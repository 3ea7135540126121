"""Differential check: the propagating/inverting search must agree
with a naive full-product enumeration about counterexample existence, and
the symmetry-reduced search with the unreduced one about what it reports."""

import itertools
import random

import pytest

from stpchc.formulas import (
    FAnd,
    FEq,
    FImp,
    FLe,
    FNot,
    FOr,
    Sort,
    TAdd,
    TCons,
    TConcat,
    TInt,
    TIte,
    TLdiff,
    TLen,
    TRdiff,
    TRev,
    TSeq,
    TSub,
    TVar,
    eval_formula,
    formula_vars,
)
from stpchc import smt_backend
from stpchc.smt_backend import BoundedChecker, Bounds

BOUNDS = Bounds(max_list_len=2, max_elem=1, int_lo=0, int_hi=2)

LIST_VARS = [TVar(n, Sort.LIST) for n in ("u", "v", "w")]
INT_VARS = [TVar(n, Sort.INT) for n in ("i", "j")]
ELEM_VARS = [TVar(n, Sort.INT) for n in ("x", "y")]


def naive_has_cex(f, bounds=BOUNDS) -> bool:
    variables = formula_vars(f)
    lists = [()]
    frontier = [()]
    for _ in range(bounds.max_list_len):
        frontier = [t + (x,) for t in frontier for x in range(bounds.max_elem + 1)]
        lists.extend(frontier)
    domains = []
    names = list(variables)
    for n in names:
        domains.append(
            lists if variables[n] is Sort.LIST else list(range(bounds.int_lo, bounds.int_hi + 1))
        )
    for combo in itertools.product(*domains):
        env = dict(zip(names, combo))
        if eval_formula(f, env) is False:
            return True
    return False


def random_seq_term(rng, depth=0, head=None):
    """A list term; `head(rng, depth)` makes its cons heads, by default
    `random_int_term`."""
    head = head or random_int_term
    sub = lambda: random_seq_term(rng, depth + 1, head)
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return rng.choice(LIST_VARS)
    if roll < 0.45:
        return TSeq(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))))
    kind = rng.choice(["concat", "rev", "cons", "ldiff", "rdiff"])
    if kind == "concat":
        return TConcat(sub(), sub())
    if kind == "rev":
        return TRev(sub())
    if kind == "cons":
        return TCons(head(rng, depth + 1), sub())
    if kind == "ldiff":
        return TLdiff(sub(), sub())
    return TRdiff(sub(), sub())


def random_int_term(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return rng.choice(INT_VARS) if rng.random() < 0.7 else TInt(rng.randint(0, 2))
    if roll < 0.75:
        return TAdd(random_int_term(rng, depth + 1), random_int_term(rng, depth + 1))
    return TSub(random_int_term(rng, depth + 1), random_int_term(rng, depth + 1))


def element_term(rng, depth=0):
    """An element-only Int: a variable no arithmetic or order touches, or a
    constant."""
    return rng.choice(ELEM_VARS) if rng.random() < 0.7 else TInt(rng.randint(0, 2))


def random_atom(rng, head=None):
    head = head or random_int_term
    seq = lambda: random_seq_term(rng, head=head)
    kind = rng.choice(["eq", "eq", "prefix", "suffix", "int_eq"])
    if kind == "eq":
        return FEq(seq(), seq())
    if kind == "prefix":  # a is a prefix of b
        a, b = seq(), seq()
        return FEq(b, TConcat(a, TLdiff(a, b)))
    if kind == "suffix":  # a is a suffix of b
        a, b = seq(), seq()
        return FEq(b, TConcat(TRdiff(b, a), a))
    return FEq(head(rng), head(rng))


def random_formula(rng, head=None):
    """A random clause-like formula; `head` makes its Int terms, by default
    `random_int_term`."""
    n_ante = rng.randint(0, 3)
    ante = FAnd(tuple(random_atom(rng, head) for _ in range(n_ante))) if n_ante else None
    cons_atoms = [random_atom(rng, head) for _ in range(rng.randint(1, 2))]
    cons = cons_atoms[0] if len(cons_atoms) == 1 else FOr(tuple(cons_atoms))
    if rng.random() < 0.2:
        cons = FNot(cons)
    return FImp(ante, cons) if ante is not None else cons


def in_bounds(env, variables, bounds=BOUNDS) -> bool:
    for name, sort in variables.items():
        v = env[name]
        if sort is Sort.INT:
            if not (bounds.int_lo <= v <= bounds.int_hi):
                return False
        elif len(v) > bounds.max_list_len or any(
            x > bounds.max_elem or x < 0 for x in v
        ):
            return False
    return True


def test_agreement_with_naive_enumeration():
    # completeness within bounds: any in-bounds counterexample must be found.
    # The search may additionally report genuine out-of-bounds ones (equality
    # forcing follows the antecedent wherever it leads), which is sound.
    # Where the search breaks symmetry, its first counterexample is the one
    # the unreduced search finds.
    rng = random.Random(99)
    checker = BoundedChecker(BOUNDS)
    extra = 0
    for trial in range(400):
        f = random_formula(rng)
        cexs = checker.counterexamples(f, limit=1)
        assert cexs == answer(checker, f, 1, reduce=False)[0], (trial, f)
        want = naive_has_cex(f)
        if want:
            assert cexs, (trial, f)
        elif cexs:
            assert eval_formula(f, cexs[0]) is False
            assert not in_bounds(cexs[0], formula_vars(f)), (trial, f)
            extra += 1
    assert extra < 40  # forcing should be the exception, not the rule


def test_counterexamples_are_genuine():
    rng = random.Random(7)
    checker = BoundedChecker(BOUNDS)
    for _ in range(200):
        f = random_formula(rng)
        for cex in checker.counterexamples(f, limit=3):
            assert eval_formula(f, cex) is False


def answer(checker, f, limit, reduce=True):
    """`checker`'s counterexamples for `f`, with or without symmetry
    reduction, and the search nodes it took to find them."""
    nodes = 0
    search, symmetry = smt_backend._search, smt_backend._symmetry

    def counting(*args):
        nonlocal nodes
        nodes += 1
        return search(*args)

    smt_backend._search = counting
    if not reduce:
        smt_backend._symmetry = lambda *args: None
    try:
        return checker.counterexamples(f, limit=limit), nodes
    finally:
        smt_backend._search, smt_backend._symmetry = search, symmetry


@pytest.mark.parametrize("bounds, pruned_floor", [
    (BOUNDS, 30),  # blocks {0, 1} and {2}
    (Bounds(max_list_len=2, max_elem=1, int_lo=1, int_hi=3), 15),  # {1}, {2, 3} and {0}
])
def test_symmetry_reduction_agrees(bounds, pruned_floor):
    # formulas whose cons heads are element-only Ints or constants: most are
    # reduced, and the reduced search must find a counterexample exactly when
    # the naive enumeration does (or find one out of bounds by forcing), the
    # same first one as the unreduced search, and the same ordered list
    rng = random.Random(5)
    checker = BoundedChecker(bounds)
    reduced = pruned = 0
    for trial in range(250):
        f = random_formula(rng, head=element_term)
        reduced += smt_backend._symmetry(f, formula_vars(f), bounds) is not None
        first, nodes = answer(checker, f, 1)
        full, full_nodes = answer(checker, f, 1, reduce=False)
        assert first == full, (trial, f)
        pruned += nodes < full_nodes
        if naive_has_cex(f, bounds):
            assert first, (trial, f)
        elif first:
            assert not in_bounds(first[0], formula_vars(f), bounds), (trial, f)
        assert answer(checker, f, 16)[0] == answer(checker, f, 16, reduce=False)[0], (trial, f)
    # not vacuous: most formulas are reduced, and some searches get shorter
    assert reduced >= 200
    assert pruned >= pruned_floor


def diff_term(rng, head):
    """An `ldiff` or `rdiff` of list terms, its part sometimes a `cons`."""
    part, whole = random_seq_term(rng, 1, head), random_seq_term(rng, 1, head)
    if rng.random() < 0.4:
        part = TCons(head(rng, 2), part)
    return TLdiff(part, whole) if rng.random() < 0.5 else TRdiff(whole, part)


def diff_atom(rng, head):
    """An atom with an `ldiff` or `rdiff` in a side, most often the solved
    form `w = p ++ ldiff(p, w)` or `w = rdiff(w, s) ++ s`."""
    d = diff_term(rng, head)
    roll = rng.random()
    if roll < 0.5:
        return FEq(d.t, TConcat(d.prefix, d) if type(d) is TLdiff else TConcat(d, d.suffix))
    if roll < 0.8:
        return FEq(random_seq_term(rng, 1, head), d)
    return FLe(TLen(d), head(rng, 2))


def diff_conjunct(rng, head):
    """An antecedent conjunct with an `ldiff` or `rdiff`: an atom, or an
    atom under `not`, `or` or `=>`, or an atom with one inside an `ite`."""
    kind = rng.choice(["atom", "atom", "not", "or", "imp", "ite"])
    if kind == "atom":
        return diff_atom(rng, head)
    if kind == "not":
        return FNot(diff_atom(rng, head))
    if kind == "or":
        return FOr((diff_atom(rng, head), random_atom(rng, head)))
    if kind == "imp":
        return FImp(diff_atom(rng, head), random_atom(rng, head))
    cond = FEq(head(rng, 2), head(rng, 2))
    branch = TIte(cond, diff_term(rng, head), random_seq_term(rng, 1, head))
    return FEq(random_seq_term(rng, 1, head), branch)


@pytest.mark.parametrize("limit", [1, 16])
def test_definedness_pruning_keeps_every_answer(limit, monkeypatch):
    # the same counterexamples, in the same order, with and without the
    # branches skipped where an `ldiff` or `rdiff` is undefined
    rng = random.Random(13)
    checker = BoundedChecker(Bounds(max_list_len=3, max_elem=1, int_lo=0, int_hi=2))
    nodes = full_nodes = found = 0
    for trial in range(150):
        head = rng.choice([random_int_term, element_term])
        ante = FAnd(tuple(diff_conjunct(rng, head) for _ in range(rng.randint(1, 3))))
        f = FImp(ante, random_atom(rng, head))
        got, n = answer(checker, f, limit)
        with monkeypatch.context() as unpruned:
            unpruned.setattr(smt_backend, "_prune", lambda q, v, env, values: values)
            want, full_n = answer(checker, f, limit)
        assert got == want, (trial, f)
        nodes, full_nodes, found = nodes + n, full_nodes + full_n, found + bool(got)
    # not vacuous: counterexamples are found, and pruning cuts the search
    # (to 51% of the nodes at both limits)
    assert found >= 80
    assert nodes < 0.6 * full_nodes


U, V = TVar("u", Sort.LIST), TVar("v", Sort.LIST)
X, Y, N = (TVar(n, Sort.INT) for n in ("x", "y", "n"))


def symmetry_of(f):
    return smt_backend._symmetry(f, formula_vars(f), Bounds())


def test_order_on_elements_is_not_reduced():
    f = FImp(FEq(U, TCons(X, TCons(Y, V))), FLe(X, Y))
    assert symmetry_of(f) is None
    assert symmetry_of(FLe(U, V)) is None  # lists are ordered by their elements
    # an order on what is not an element does not matter
    g = FImp(FAnd((FEq(U, TCons(X, V)), FLe(N, TInt(3)))), FEq(V, U))
    assert symmetry_of(g).ints == {"x"}


def test_arithmetic_on_elements_is_not_reduced():
    f = FImp(FAnd((FEq(U, TCons(X, V)), FEq(X, TAdd(N, TInt(1))))), FEq(V, U))
    assert symmetry_of(f) is None


def test_constants_are_fixed():
    f = FNot(FEq(U, TSeq((1,))))
    assert symmetry_of(f).fixed == {1}
    # without 1 fixed, (1) would stand behind (0) and go untried
    assert BoundedChecker(Bounds()).counterexamples(f) == [{"u": (1,)}]
    g = FImp(FEq(U, TCons(X, V)), FNot(FEq(X, TInt(2))))
    assert symmetry_of(g).fixed == {2}
    assert BoundedChecker(Bounds()).counterexamples(g) == [{"u": (2,), "x": 2, "v": ()}]

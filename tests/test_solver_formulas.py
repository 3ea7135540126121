import random
from functools import partial

import pytest

from stpchc.chc_core import _Parser, read_sexps
from stpchc.formulas import (
    FEq,
    FLe,
    FLt,
    FNot,
    FSubset,
    Sort,
    TAdd,
    TCollDiff,
    TCollOf,
    TConcat,
    TCons,
    TCount,
    TInt,
    TIte,
    TLdiff,
    TLen,
    TMul,
    TRdiff,
    TRev,
    TSeq,
    TSub,
    TVar,
    Undefined,
    eval_formula,
    eval_term,
    render_formula,
    render_term,
    subst_term,
)
from stpchc.pattern_core import Mode, NotSolvableError, TuplePattern, member, parse_pattern, var_atom
from stpchc.solver import pattern_to_formula

from helpers import random_solvable, random_tuple

L1 = TVar("l1", Sort.LIST)
L2 = TVar("l2", Sort.LIST)
L3 = TVar("l3", Sort.LIST)


def P(text):
    return parse_pattern(text)


class TestPatternToFormula:
    def test_prefix_pattern(self):
        f = pattern_to_formula(P("(z1 z2, z1)"), [L1, L2])
        # equivalent to: l2 is a prefix of l1 (reconstruction form)
        assert eval_formula(f, {"l1": (1, 2), "l2": (1,)})
        assert not eval_formula(f, {"l1": (1, 2), "l2": (2,)})

    def test_reverse_pattern_is_plain_equation(self):
        f = pattern_to_formula(P("(x, y, x^R y)"), [L1, L2, L3])
        want = FEq(L3, TConcat(TRev(L1), L2))
        for env in (
            {"l1": (1, 2), "l2": (3,), "l3": (2, 1, 3)},
            {"l1": (1, 2), "l2": (3,), "l3": (1, 2, 3)},
            {"l1": (), "l2": (), "l3": ()},
        ):
            assert eval_formula(f, env) == eval_formula(want, env)

    def test_trivial_pattern(self):
        f = pattern_to_formula(P("(x, y)"), [L1, L2])
        assert eval_formula(f, {"l1": (5,), "l2": ()})

    def test_rejects_unsolvable(self):
        with pytest.raises(NotSolvableError):
            pattern_to_formula(P("(xx)"), [L1])

    def test_agrees_with_member(self):
        rng = random.Random(17)
        args = [L1, L2, L3]
        for _ in range(150):
            t = random_solvable(rng, max_arity=3, max_measure=10)
            f = pattern_to_formula(t, args[: t.arity])
            for _ in range(10):
                v = random_tuple(rng, t.arity)
                env = {f"l{i+1}": v[i] for i in range(t.arity)}
                assert eval_formula(f, env) == member(v, t), (t, v)


class TestCollectionPatternToFormula:
    def test_multiset_union(self):
        t = TuplePattern(
            ((var_atom(0),), (var_atom(1),), (var_atom(0), var_atom(1))),
            Mode.MULTISET,
        )
        f = pattern_to_formula(t, [L1, L2, L3])
        assert eval_formula(f, {"l1": (1, 1), "l2": (1,), "l3": (1, 1, 1)})
        assert not eval_formula(f, {"l1": (1,), "l2": (1,), "l3": (1, 2)})

    def test_set_disjointness(self):
        t = TuplePattern(
            ((var_atom(0),), (var_atom(1),), (var_atom(0), var_atom(1))),
            Mode.SET,
        )
        f = pattern_to_formula(t, [L1, L2, L3])
        assert eval_formula(f, {"l1": (1,), "l2": (2,), "l3": (1, 2)})
        # overlapping parts are not a disjoint union
        assert not eval_formula(f, {"l1": (1,), "l2": (1,), "l3": (1,)})


I, J = TVar("i", Sort.INT), TVar("j", Sort.INT)
U, V = TVar("u", Sort.LIST), TVar("v", Sort.LIST)

# (sort of the result, constructor of a term with that root from a function
# that draws a subterm of a given sort); every term constructor appears
TERM_ROOTS = [
    ("int", lambda rng, sub: rng.choice([I, J])),
    ("list", lambda rng, sub: rng.choice([U, V])),
    ("int", lambda rng, sub: TInt(rng.randint(-1, 2))),
    ("list", lambda rng, sub: TSeq(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2))))),
    ("list", lambda rng, sub: TCons(sub("int"), sub("list"))),
    ("int", lambda rng, sub: TAdd(sub("int"), sub("int"))),
    ("int", lambda rng, sub: TSub(sub("int"), sub("int"))),
    ("int", lambda rng, sub: TMul(rng.randint(-2, 2), sub("int"))),
    ("int", lambda rng, sub: TIte(sub("cond"), sub("int"), sub("int"))),
    ("list", lambda rng, sub: TIte(sub("cond"), sub("list"), sub("list"))),
    ("int", lambda rng, sub: TLen(sub("list"))),
    ("list", lambda rng, sub: TConcat(sub("list"), sub("list"))),
    ("list", lambda rng, sub: TRev(sub("list"))),
    ("list", lambda rng, sub: TLdiff(sub("list"), sub("list"))),
    ("list", lambda rng, sub: TRdiff(sub("list"), sub("list"))),
    ("set", lambda rng, sub: TCollOf(sub(rng.choice(["int", "list"])), "set")),
    ("multiset", lambda rng, sub: TCollOf(sub(rng.choice(["int", "list"])), "multiset")),
    ("set", lambda rng, sub: TCollDiff(sub("set"), sub("set"))),
    ("multiset", lambda rng, sub: TCollDiff(sub("multiset"), sub("multiset"))),
    ("int", lambda rng, sub: TCount(sub("int"), sub("list"))),
    ("cond", lambda rng, sub: FLe(sub("int"), sub("int"))),
    ("cond", lambda rng, sub: FNot(FEq(sub("list"), sub("list")))),
    ("cond", lambda rng, sub: FSubset(sub("multiset"), sub("multiset"))),
    ("cond", lambda rng, sub: FLt(sub("int"), sub("int"))),
    ("cond", lambda rng, sub: (lambda s: FEq(sub(s), sub(s)))(
        rng.choice(["int", "list", "set", "multiset"]))),
]

# total replacements, so that each substituted variable has a value
REPLACEMENTS = {
    "i": [J, TInt(2), TAdd(I, J), TLen(U), TCount(I, V)],
    "j": [I, TInt(0), TSub(I, J), TMul(3, J)],
    "u": [V, TSeq((1,)), TCons(I, U), TConcat(U, V), TRev(V)],
    "v": [U, TSeq(()), TRev(TConcat(V, U))],
}


LEAVES = {"int": I, "list": U, "set": TCollOf(V, "set"), "multiset": TCollOf(U, "multiset"),
          "cond": FLe(J, I)}


def random_term(rng, sort, depth):
    if depth == 0:
        return LEAVES[sort]
    roots = [make for s, make in TERM_ROOTS if s == sort]
    return rng.choice(roots)(rng, lambda s: random_term(rng, s, depth - 1))


def outcome(t, env):
    try:
        return eval_term(t, env)
    except Undefined:
        return Undefined


def random_env(rng):
    return {"i": rng.randint(-1, 2), "j": rng.randint(0, 3),
            "u": tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))),
            "v": tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3)))}


def test_subst_term_is_evaluation_under_the_replaced_values():
    rng = random.Random(3)
    roots = set()
    for _ in range(3000):
        sort, make = rng.choice([r for r in TERM_ROOTS if r[0] != "cond"])
        t = make(rng, lambda s: random_term(rng, s, 2))
        roots.add(type(t))
        env = random_env(rng)
        mapping = {n: rng.choice(reps) for n, reps in REPLACEMENTS.items() if rng.random() < 0.6}
        replaced = dict(env, **{n: eval_term(r, env) for n, r in mapping.items()})
        assert outcome(subst_term(t, mapping), env) == outcome(t, replaced), (t, mapping, env)
    assert len(roots) == 16


def test_list_constant_elements_render_as_numerals():
    # -1 is not an SMT-LIB numeral; (- 1) is, as for an Int constant
    assert render_term(TSeq((-1, 2))) == "(seq.++ (seq.unit (- 1)) (seq.unit 2))"
    assert render_term(TSeq((-1, 2)), "adt") == "(cons (- 1) (cons 2 nil))"


def parse_back(text, cond):
    """`text` read by the clause parser over the variables of `random_term`."""
    (node,) = read_sexps(text)
    scope = {"i": Sort.INT, "j": Sort.INT, "u": Sort.LIST, "v": Sort.LIST}
    return (_Parser().parse_formula if cond else _Parser().parse_term)(node, scope)


@pytest.mark.parametrize("list_style", ["seq", "adt"])
def test_rendered_terms_parse_back(list_style):
    # rendering is not injective: a cons and a concatenation with a unit
    # both write (seq.++ (seq.unit h) t).  So the term read back evaluates
    # like the rendered one, Undefined included, and is a fixed point: a
    # second round trip changes no byte
    rng = random.Random(5)
    roots = set()
    for _ in range(5000):
        sort, make = rng.choice(TERM_ROOTS)
        t = make(rng, lambda s: random_term(rng, s, 2))
        roots.add(type(t))
        cond = sort == "cond"
        render = partial(render_formula if cond else render_term, list_style=list_style)
        once = parse_back(render(t), cond)
        assert render(parse_back(render(once), cond)) == render(once), t
        env = random_env(rng)
        value = partial(eval_formula, env=env) if cond else partial(outcome, env=env)
        assert value(once) == value(t), (t, env)
    atoms = {FEq, FLe, FLt, FSubset}
    assert atoms <= roots and len(roots - atoms - {FNot}) == 16

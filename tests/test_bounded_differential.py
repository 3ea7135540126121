"""Differential check: the propagating/inverting search must agree
with a naive full-product enumeration about counterexample existence."""

import itertools
import random

from stpchc.formulas import (
    FAnd,
    FEq,
    FImp,
    FNot,
    FOr,
    Sort,
    TAdd,
    TCons,
    TConcat,
    TInt,
    TLdiff,
    TRdiff,
    TRev,
    TSeq,
    TSub,
    TVar,
    eval_formula,
    formula_vars,
)
from stpchc.smt_backend import BoundedChecker, Bounds

BOUNDS = Bounds(max_list_len=2, max_elem=1, int_lo=0, int_hi=2)

LIST_VARS = [TVar(n, Sort.LIST) for n in ("u", "v", "w")]
INT_VARS = [TVar(n, Sort.INT) for n in ("i", "j")]


def naive_has_cex(f) -> bool:
    variables = formula_vars(f)
    lists = [()]
    frontier = [()]
    for _ in range(BOUNDS.max_list_len):
        frontier = [t + (x,) for t in frontier for x in range(BOUNDS.max_elem + 1)]
        lists.extend(frontier)
    domains = []
    names = list(variables)
    for n in names:
        domains.append(
            lists if variables[n] is Sort.LIST else list(range(BOUNDS.int_lo, BOUNDS.int_hi + 1))
        )
    for combo in itertools.product(*domains):
        env = dict(zip(names, combo))
        if eval_formula(f, env) is False:
            return True
    return False


def random_seq_term(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.35:
        return rng.choice(LIST_VARS)
    if roll < 0.45:
        return TSeq(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2))))
    kind = rng.choice(["concat", "rev", "cons", "ldiff", "rdiff"])
    if kind == "concat":
        return TConcat(random_seq_term(rng, depth + 1), random_seq_term(rng, depth + 1))
    if kind == "rev":
        return TRev(random_seq_term(rng, depth + 1))
    if kind == "cons":
        return TCons(random_int_term(rng, depth + 1), random_seq_term(rng, depth + 1))
    if kind == "ldiff":
        return TLdiff(random_seq_term(rng, depth + 1), random_seq_term(rng, depth + 1))
    return TRdiff(random_seq_term(rng, depth + 1), random_seq_term(rng, depth + 1))


def random_int_term(rng, depth=0):
    roll = rng.random()
    if depth >= 2 or roll < 0.5:
        return rng.choice(INT_VARS) if rng.random() < 0.7 else TInt(rng.randint(0, 2))
    if roll < 0.75:
        return TAdd(random_int_term(rng, depth + 1), random_int_term(rng, depth + 1))
    return TSub(random_int_term(rng, depth + 1), random_int_term(rng, depth + 1))


def random_atom(rng):
    kind = rng.choice(["eq", "eq", "prefix", "suffix", "int_eq"])
    if kind == "eq":
        return FEq(random_seq_term(rng), random_seq_term(rng))
    if kind == "prefix":  # a is a prefix of b
        a, b = random_seq_term(rng), random_seq_term(rng)
        return FEq(b, TConcat(a, TLdiff(a, b)))
    if kind == "suffix":  # a is a suffix of b
        a, b = random_seq_term(rng), random_seq_term(rng)
        return FEq(b, TConcat(TRdiff(b, a), a))
    return FEq(random_int_term(rng), random_int_term(rng))


def random_formula(rng):
    n_ante = rng.randint(0, 3)
    ante = FAnd(tuple(random_atom(rng) for _ in range(n_ante))) if n_ante else None
    cons_atoms = [random_atom(rng) for _ in range(rng.randint(1, 2))]
    cons = cons_atoms[0] if len(cons_atoms) == 1 else FOr(tuple(cons_atoms))
    if rng.random() < 0.2:
        cons = FNot(cons)
    return FImp(ante, cons) if ante is not None else cons


def in_bounds(env, variables) -> bool:
    for name, sort in variables.items():
        v = env[name]
        if sort is Sort.INT:
            if not (BOUNDS.int_lo <= v <= BOUNDS.int_hi):
                return False
        elif len(v) > BOUNDS.max_list_len or any(
            x > BOUNDS.max_elem or x < 0 for x in v
        ):
            return False
    return True


def test_agreement_with_naive_enumeration():
    # completeness within bounds: any in-bounds counterexample must be found.
    # The search may additionally report genuine out-of-bounds ones (equality
    # forcing follows the antecedent wherever it leads), which is sound.
    rng = random.Random(99)
    checker = BoundedChecker(BOUNDS)
    extra = 0
    for trial in range(400):
        f = random_formula(rng)
        cexs = checker.counterexamples(f, limit=1)
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

"""The bounded checker's compiled evaluator against the interpreter.

Each query compiles its formulas to closures once and caches every atom
side by the values of its variables.  One compiled closure is called on a
run of environments drawn from small domains, so the same side values come
back under different values of the other variables: a stale or under-keyed
cache gives a wrong answer, and a side that does not cache an undefined
result reads more than its variables on a repeat."""

import functools
import random

from stpchc.formulas import (
    FALSE,
    TRUE,
    FAnd,
    FEq,
    FFalse,
    FImp,
    FLe,
    FLt,
    FNot,
    FOr,
    FSubset,
    FTrue,
    TConcat,
    TRev,
    Undefined,
    eval_formula,
    term_vars,
)
from stpchc.smt_backend import _UNDEF, _formula, _side

from test_solver_formulas import TERM_ROOTS, U, V, outcome, random_term

# (atom, sort of both sides): every atom kind over every sort it takes
ATOMS = [
    (FEq, "int"), (FEq, "list"), (FEq, "set"), (FEq, "multiset"),
    (FLe, "int"), (FLt, "int"), (FSubset, "set"), (FSubset, "multiset"),
]
ATOM_KINDS = {atom for atom, _ in ATOMS}


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        atom, sort = rng.choice(ATOMS)
        return atom(random_term(rng, sort, rng.randint(0, 2)),
                    random_term(rng, sort, rng.randint(0, 2)))
    sub = lambda: random_formula(rng, depth - 1)
    make = rng.choice([
        lambda: TRUE,
        lambda: FALSE,
        lambda: FAnd(tuple(sub() for _ in range(rng.randint(2, 3)))),
        lambda: FOr(tuple(sub() for _ in range(rng.randint(2, 3)))),
        lambda: FNot(sub()),
        lambda: FImp(sub(), sub()),
    ])
    return make()


def random_env(rng):
    # small domains, so that values repeat across a run
    small_list = lambda: tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 2)))
    return {"i": rng.randint(-1, 1), "j": rng.randint(0, 2), "u": small_list(), "v": small_list()}


def parts(f):
    """`f` and every formula below it, down to the atoms."""
    yield f
    for p in getattr(f, "parts", ()):
        yield from parts(p)
    if type(f) is FNot:
        yield from parts(f.f)
    if type(f) is FImp:
        yield from parts(f.a)
        yield from parts(f.b)


def test_compiled_formula_is_evaluation():
    rng = random.Random(11)
    seen = set()
    undefined = 0
    for _ in range(400):
        f = random_formula(rng, 3)
        seen.update(type(p) for p in parts(f))
        compiled = _formula(f, functools.partial(_side, sides={}))
        for _ in range(30):
            env = random_env(rng)
            assert compiled(env) == eval_formula(f, env), (f, env)
            undefined += any(outcome(t, env) is Undefined
                             for p in parts(f) if type(p) in ATOM_KINDS for t in (p.a, p.b))
    assert seen == {FTrue, FFalse, FAnd, FOr, FNot, FImp} | ATOM_KINDS
    assert undefined > 0


class CountingEnv(dict):
    """An environment that counts the reads of its variables."""

    reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)


def test_side_caches_every_result_undefined_included():
    rng = random.Random(12)
    roots = set()
    undefined = 0
    for _ in range(1500):
        sort, make = rng.choice([r for r in TERM_ROOTS if r[0] != "cond"])
        t = make(rng, lambda s: random_term(rng, s, 2))
        roots.add(type(t))
        support = {}
        term_vars(t, support)
        side = _side(t, {})
        for _ in range(8):
            env = random_env(rng)
            want = outcome(t, env)
            undefined += want is Undefined
            assert side(env) == (_UNDEF if want is Undefined else want), (t, env)
            # a repeat of the same values is a cache hit: it reads only the
            # side's variables, for its key
            again = CountingEnv(env)
            assert side(again) == (_UNDEF if want is Undefined else want)
            assert again.reads == len(support), (t, env)
    assert len(roots) == 16
    assert undefined > 0


def test_equal_sides_share_one_cache():
    sides = {}
    side = functools.partial(_side, sides=sides)
    first = _formula(FEq(TConcat(U, V), TRev(V)), side)
    second = _formula(FEq(TRev(V), TConcat(U, V)), side)
    assert len(sides) == 2
    env = {"u": (1, 0), "v": (0,)}
    assert first(env) is False
    again = CountingEnv(env)
    assert second(again) is False
    assert again.reads == 3  # the two keys; no side is evaluated again

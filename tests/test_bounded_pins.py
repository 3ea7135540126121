"""Pinned output of the bounded checker: digests of the exact, ordered
counterexample lists it returns on seeded random formulas and on every clause
query of a multiset-mode solve.  Any change to the order in which the search
visits assignments shows up here, and with it a change to the printed
models."""

import hashlib
import random
from pathlib import Path

from stpchc import solver
from stpchc.chc_core import parse_smtlib
from stpchc.formulas import Sort, formula_vars
from stpchc.smt_backend import BoundedChecker, Bounds
from stpchc.solver import SolverConfig

from test_bounded_differential import BOUNDS as SMALL_BOUNDS
from test_bounded_differential import random_formula

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def canonical(cexs: list[dict]) -> list:
    # the list order is pinned; the key order inside one assignment is not
    return [sorted(cex.items()) for cex in cexs]


def random_formulas(seed: int, count: int, max_product: int | None = None) -> list:
    """The first `count` formulas of `random_formula` under `seed` whose
    full assignment space under the default bounds has at most
    `max_product` points (every formula when None)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng)
        size = 1
        for sort in formula_vars(f).values():
            size *= 6 if sort is Sort.INT else 121
        if max_product is None or size <= max_product:
            out.append(f)
    return out


def test_random_formulas_default_bounds():
    # at most two list variables (121 lists each under Bounds()): a valid
    # formula over three lists and two ints takes seconds to sweep
    checker = BoundedChecker(Bounds())
    got = [canonical(checker.counterexamples(f, limit=16))
           for f in random_formulas(1, 300, max_product=121 * 121)]
    assert sum(1 for c in got if c) == 218
    assert digest(got) == "ff23da76268276ba"


def test_random_formulas_small_bounds():
    # every formula of the stream, three lists and two ints included
    checker = BoundedChecker(SMALL_BOUNDS)
    got = [canonical(checker.counterexamples(f, limit=16))
           for f in random_formulas(2, 300)]
    assert digest(got) == "aa37a97e19e20035"


def test_multiset_solve_queries(monkeypatch):
    calls = []

    class Recording(BoundedChecker):
        def counterexamples(self, f, limit=1):
            cexs = super().counterexamples(f, limit=limit)
            calls.append((repr(f), limit, canonical(cexs)))
            return cexs

    # multiset mode builds its own checker at `solver.COLLECTION_BOUNDS`
    monkeypatch.setattr(solver, "BoundedChecker", Recording)
    system = parse_smtlib((BENCH / "sort.smt2").read_text())
    verdict = solver.solve_collection_mode(system, SolverConfig(seed=0), solver.Mode.MULTISET)
    assert verdict.kind is solver.VerdictKind.SAT
    assert len(calls) == 9
    assert digest(calls) == "13628e665e9914bd"

"""The indexed ground join against the naive product-then-match oracle, on
every clause body and goal body of the bundled systems and of the generated
refutation systems, over seeded random atom tables."""

import random
from pathlib import Path

from stpchc.chc_core import AtomTable, join, parse_smtlib, plan_join
from stpchc.formulas import Sort

from helpers import naive_join
from test_refute_fuzz import make_system

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def random_value(sort: Sort, rng: random.Random):
    # small values, so that the rows of different tables often agree
    if sort is Sort.INT:
        return rng.randint(0, 2)
    return tuple(rng.randint(0, 1) for _ in range(rng.choice([0, 0, 1, 1, 2])))


def random_tables(system, rng: random.Random) -> dict[str, AtomTable]:
    tables = {}
    for pred, sig in system.predicates.items():
        table = tables[pred] = AtomTable()
        for _ in range(rng.randint(0, 16)):
            values = tuple(random_value(s, rng) for s in sig)
            if values not in table:
                table.add(values, None)
    return tables


# bodies with integer and list constants, repeated variables, a predicate
# used twice and arguments that only arithmetic binds
KEYS = """
(set-logic HORN)
(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
(declare-fun p (Int Lst) Bool)
(declare-fun q (Int Int) Bool)
(assert (forall ((x Int) (y Int) (l Lst))
  (=> (and (p 1 l) (q x 2) (p x nil) (q (+ x 1) y) (p y (cons x l))) false)))
(assert (forall ((x Int) (l Lst)) (=> (and (q x x) (p x l) (p 0 l)) false)))
(assert (forall ((x Int) (y Int) (l Lst)) (=> (and (q (- y 1) x) (p y l) (q x y)) false)))
(check-sat)
"""


def systems():
    for path in sorted(BENCH.glob("*.smt2")) + sorted(BENCH.glob("unsat/*.smt2")):
        yield path.name, parse_smtlib(path.read_text())
    yield "keys", parse_smtlib(KEYS)
    rng = random.Random(8)
    for i in range(20):
        yield f"generated {i}", make_system(rng)[0]


def test_join_matches_naive_oracle():
    rng = random.Random(0)
    for name, system in systems():
        for clause in system.definite + system.goals:
            plan = plan_join(clause)
            for _ in range(25):
                tables = random_tables(system, rng)
                pools = [list(tables[a.pred].rows) for a in clause.body_atoms]
                cap = rng.choice([None, rng.randint(0, 60)])
                matches = join(plan, tables, cap)
                # atoms added after the call are not seen by the join
                for pred, sig in system.predicates.items():
                    values = tuple(random_value(s, rng) for s in sig)
                    if values not in tables[pred]:
                        tables[pred].add(values, None)
                expected = list(naive_join(clause.body_atoms, pools, cap))
                assert list(matches) == expected, (name, clause)

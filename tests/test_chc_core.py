import random
from pathlib import Path

import pytest

from stpchc.chc_core import (
    ChcSystem,
    ParseError,
    Sample,
    SampleBudget,
    _random_value,
    _skip_draws,
    collect_samples,
    derivable,
    parse_smtlib,
    render_smtlib,
)
from stpchc.formulas import Sort

from helpers import drawn_value, evaluated_samples, goal_hit

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
BUNDLED = [
    *sorted(BENCH.glob("*.smt2")),
    *sorted((BENCH / "unsat").glob("*.smt2")),
    *sorted((BENCH.parent / "perfbench" / "systems").glob("*.smt2")),
]


def load(name: str) -> ChcSystem:
    return parse_smtlib((BENCH / name).read_text())


class TestParser:
    def test_reva_shape(self):
        system = load("reva.smt2")
        assert len(system.definite) == 2
        assert len(system.goals) == 1
        assert system.predicates["reva"] == (Sort.LIST, Sort.LIST, Sort.LIST)

    def test_constraint_head_becomes_goal(self):
        text = """
        (set-logic HORN)
        (declare-fun p (Int Int) Bool)
        (assert (forall ((x Int)) (=> (p x 1) (< x 1))))
        (check-sat)
        """
        system = parse_smtlib(text)
        assert len(system.goals) == 1
        goal = system.goals[0]
        assert goal.head is None
        assert goal.body_atoms[0].pred == "p"
        # the negated head x < 1 becomes part of the body constraint; the
        # witness x = 1, which satisfies x >= 1, makes the body true
        from stpchc.formulas import eval_formula

        assert eval_formula(goal.constraint, {"x": 1})
        assert not eval_formula(goal.constraint, {"x": 0})

    def test_tree_adt_rejected(self):
        text = """
        (set-logic HORN)
        (declare-datatypes ((Tree 0))
          (((leaf) (node (left Tree) (value Int) (right Tree)))))
        (declare-fun p (Tree) Bool)
        (check-sat)
        """
        with pytest.raises(ParseError) as exc:
            parse_smtlib(text)
        assert "unsupported sort" in str(exc.value)

    def test_nat_as_list(self):
        text = """
        (set-logic HORN)
        (declare-datatypes ((Nat 0)) (((zero) (succ (pred Nat)))))
        (declare-fun p (Nat) Bool)
        (assert (p (succ (succ zero))))
        (check-sat)
        """
        with pytest.raises(ParseError):
            parse_smtlib(text)
        system = parse_smtlib(text, nat_as_list=True)
        from stpchc.formulas import eval_term

        fact = system.definite[0]
        assert eval_term(fact.head.args[0], {}) == (0, 0)

    def test_syntax_error_has_location(self):
        with pytest.raises(ParseError) as exc:
            parse_smtlib("(assert (oops x y))")
        assert "line" in str(exc.value)

    def test_parse_render_round_trip(self):
        for name in ("reva.smt2", "take_drop.smt2", "sort.smt2"):
            system = load(name)
            again = parse_smtlib(render_smtlib(system))
            assert again.predicates == system.predicates
            assert again.definite == system.definite
            assert again.goals == system.goals


class TestCollectSamples:
    def test_reva_depth0(self):
        system = load("reva.smt2")
        budget = SampleBudget(depth=0, count=6)
        samples = collect_samples(system, budget, random.Random(0))
        assert samples
        for s in samples:
            l1, l2, l3 = s.values
            assert l1 == () and l2 == l3

    def test_reva_depth1_propagates(self):
        system = load("reva.smt2")
        budget = SampleBudget(depth=1, count=6)
        samples = collect_samples(system, budget, random.Random(0))
        deeper = [s for s in samples if s.values[0] != ()]
        assert deeper
        for s in deeper:
            l1, l2, l3 = s.values
            assert l3 == l1[::-1] + l2

    def test_no_facts_no_samples(self):
        text = """
        (set-logic HORN)
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (p x) (p (+ x 1)))))
        (check-sat)
        """
        system = parse_smtlib(text)
        assert collect_samples(system, SampleBudget(), random.Random(0)) == []

    def test_every_sample_is_derivable(self):
        system = load("take_drop.smt2")
        budget = SampleBudget(depth=2, count=5)
        samples = collect_samples(system, budget, random.Random(1))
        assert samples
        for s in samples:
            depth = s.provenance[1]
            assert derivable(system, s.predicate, s.values, depth), s


    @pytest.mark.parametrize("cap", [32, 7])
    def test_full_tables_skip_only_what_they_would_drop(self, cap):
        # the same samples, in the same order, and the same draws as the
        # sampler that evaluates every draw; 32 is the solver's cap, and at 7
        # tables also start a level one row short of full
        assert len(BUNDLED) == 11
        filled = set()
        for path in BUNDLED:
            system = parse_smtlib(path.read_text())
            for depth in range(3, 9):
                budget = SampleBudget(depth=depth, count=10, per_pred_cap=cap)
                for seed in range(3):
                    rng, oracle_rng = random.Random(seed), random.Random(seed)
                    got = collect_samples(system, budget, rng)
                    assert got == evaluated_samples(system, budget, oracle_rng), (
                        path.name, depth, seed)
                    assert rng.random() == oracle_rng.random(), (path.name, depth, seed)
                    for pred in system.predicates:
                        if sum(s.predicate == pred for s in got) == budget.per_pred_cap:
                            filled.add(path.name)
        # tables do fill, so draws are skipped
        assert {"reva.smt2", "sort.smt2", "take_drop.smt2"} <= filled

    @pytest.mark.parametrize("lo, width", [(-1, 1), (2, 4), (-3, 5)])
    def test_skipped_draws_leave_the_stream_where_draws_would(self, lo, width):
        # a round draws an Int and two lists; each value is the one
        # `rng.randint` draws, and skipping the rounds leaves `rng` where
        # drawing them does
        sorts = (Sort.INT, Sort.LIST, Sort.LIST)
        for count in (1, 3):
            budget = SampleBudget(count=count, value_lo=lo, value_hi=lo + width - 1)
            for seed in range(4):
                drawn, reference, skipped = (random.Random(seed) for _ in range(3))
                for _ in range(count):
                    for sort in sorts:
                        value = _random_value(sort, budget, drawn)
                        assert value == drawn_value(sort, budget, reference)
                _skip_draws(sorts, budget, skipped)
                assert skipped.getstate() == drawn.getstate() == reference.getstate()


class TestDerivable:
    def test_fact_instance(self):
        system = load("reva.smt2")
        assert derivable(system, "reva", ((), (1,), (1,)), 0)

    def test_two_steps(self):
        system = load("reva.smt2")
        assert derivable(system, "reva", ((0, 1), (), (1, 0)), 2)
        assert not derivable(system, "reva", ((0, 1), (), (1, 0)), 1)

    def test_not_in_least_model(self):
        system = load("reva.smt2")
        assert not derivable(system, "reva", ((0, 1, 2), (), (1, 2, 0)), 8)

    # `p(x)` needs `q(x, 7)`, so it is derivable only where 7 may be tried:
    # in a call on an atom that holds 7, like `r(0, 7)`
    NEEDS_SEVEN = """
    (set-logic HORN)
    (declare-fun q (Int Int) Bool)
    (declare-fun p (Int) Bool)
    (declare-fun r (Int Int) Bool)
    (assert (forall ((x Int)) (q x 7)))
    (assert (forall ((x Int) (y Int)) (=> (q x y) (p x))))
    (assert (forall ((x Int) (y Int)) (=> (and (p x) (q y y)) (r x y))))
    (check-sat)
    """

    def test_shared_memo_gives_the_fresh_answers(self):
        # atoms of the bundled sat systems' samples, the same atoms with
        # every integer moved above value_hi, and NEEDS_SEVEN's atoms: asked
        # in turn through one memo per system, each answer is that of a
        # call with a fresh memo
        shift = lambda v: v + 5 if isinstance(v, int) else tuple(x + 5 for x in v)
        cases = []
        for path in sorted(BENCH.glob("*.smt2")):
            system = parse_smtlib(path.read_text())
            samples = collect_samples(system, SampleBudget(depth=2, count=3), random.Random(0))
            atoms = [(s.predicate, s.values) for s in samples[::3]]
            cases.append((system, atoms + [(p, tuple(map(shift, vs))) for p, vs in atoms]))
        cases.append((parse_smtlib(self.NEEDS_SEVEN), [("r", (0, 7)), ("p", (0,))]))
        answers = []
        for system, atoms in cases:
            memo: dict = {}
            for pred, values in atoms:
                for depth in (1, 2, 3):
                    got = derivable(system, pred, values, depth, SampleBudget(), memo)
                    assert got == derivable(system, pred, values, depth), (pred, values, depth)
                    answers.append(got)
        # not vacuous: both answers occur; r(0, 7) holds from depth 2 on,
        # and p(0) at no depth, though r(0, 7) derives it at depth 1
        assert True in answers[:-6] and False in answers[:-6]
        assert answers[-6:] == [False, True, True, False, False, False]


class TestBoundedGoalCheck:
    def test_direct_match(self):
        system = parse_smtlib(
            (BENCH / "unsat" / "direct_fact.smt2").read_text()
        )
        samples = [Sample("p", ((1,),), ("derived", 0))]
        witness = goal_hit(samples, system)
        assert witness is not None
        assert witness[1][0] == ((1,),)

    def test_none_for_satisfiable_samples(self):
        system = load("reva.smt2")
        budget = SampleBudget(depth=3, count=8)
        samples = collect_samples(system, budget, random.Random(2))
        assert goal_hit(samples, system) is None

    def test_empty_samples(self):
        system = load("reva.smt2")
        assert goal_hit([], system) is None


class TestParserRobustness:
    def test_truncations_fail_cleanly(self):
        text = (BENCH / "reva.smt2").read_text()
        for cut in range(10, len(text), 37):
            try:
                parse_smtlib(text[:cut])
            except ParseError:
                pass  # any malformed prefix must raise the parse error type

    def test_garbage_tokens(self):
        for bad in [
            "(((", ")", "(assert)", "(declare-fun p)", "(assert (=>))",
            "(declare-fun p Int Bool)",
            "(declare-fun p (Int) Bool)(assert (forall x (p x)))",
            "(declare-fun p (Int) Bool)(assert (forall (x) (p x)))",
            "(declare-datatypes ((L 0)) (nil))",
            "(declare-datatypes ((L 0)) (((nil) (cons (head Int) tail))))",
            "(declare-fun p (Bool Int) Bool)",
        ]:
            with pytest.raises(ParseError):
                parse_smtlib(bad)


class TestSamplingDeterminism:
    def test_same_seed_same_samples(self):
        system = load("take_drop.smt2")
        budget = SampleBudget(depth=2, count=6)
        first = collect_samples(system, budget, random.Random(9))
        second = collect_samples(system, budget, random.Random(9))
        assert first == second

import gc
import random
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from stpchc import solver
from stpchc.chc_core import (
    Sample,
    SampleBudget,
    collect_samples,
    derivable,
    parse_smtlib,
)
from stpchc.formulas import (
    FEq, FImp, FNot, FPrefix, FTrue, Sort, TConcat, TInt, TRev, TVar, eval_formula,
)
from stpchc.pattern_core import Mode
from stpchc.smt_backend import Bounds, BoundedChecker, Cancelled
from stpchc.solver import (
    BuiltinIntChc,
    CandidateModel,
    ExternalIntChc,
    RefuteBudget,
    SolverConfig,
    VerdictKind,
    check_definite,
    check_goal,
    length_abstract,
    mode_registry,
    parse_int_model,
    refute,
    replay_derivation,
    screen_samples,
    solve,
    solve_auto,
    solve_collection_mode,
    solve_list_len_mode,
    solve_list_mode,
)

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
PERF_SYSTEMS = BENCH.parent / "perfbench" / "systems"


def load(name):
    return parse_smtlib((BENCH / name).read_text())


@pytest.fixture(scope="module")
def reva():
    return load("reva.smt2")


@pytest.fixture(scope="module")
def take_drop():
    return load("take_drop.smt2")


@pytest.fixture(scope="module")
def sort_system():
    return load("sort.smt2")


def reverse_model_formula(args):
    from stpchc.formulas import TConcat, TRev

    return FEq(args[2], TConcat(TRev(args[0]), args[1]))


class TestListMode:
    def test_reva_sat_with_reverse_model(self, reva):
        verdict = solve_list_mode(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.bounded
        # the produced model is equivalent to l3 = reverse(l1) . l2
        args = [TVar(n, Sort.LIST) for n in ("a", "b", "c")]
        got = verdict.model.models["reva"].formula(args)
        want = reverse_model_formula(args)
        checker = BoundedChecker(Bounds())
        from stpchc.formulas import FImp

        assert checker.check_validity(FImp(got, want)).valid
        assert checker.check_validity(FImp(want, got)).valid

    def test_reva_from_facts_only_uses_counterexamples(self, reva):
        # with depth-0 sampling only the base facts are known, so the loop
        # must walk the counterexample-guided path
        cfg = SolverConfig(seed=0, sample_depth=0, samples_per_pred=4)
        verdict = solve_list_mode(reva, cfg)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.stats["accepted_cex"] >= 1

    def test_fact_only_system(self):
        text = """
        (set-logic HORN)
        (declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
        (declare-fun p (Lst) Bool)
        (assert (p nil))
        (assert (forall ((l Lst)) (=> (and (p l) (not (= l nil))) false)))
        (check-sat)
        """
        system = parse_smtlib(text)
        verdict = solve_list_mode(system, SolverConfig(seed=1))
        assert verdict.kind is VerdictKind.SAT

    def test_take_drop_list_mode_unknown(self, take_drop):
        verdict = solve_list_mode(take_drop, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.UNKNOWN
        assert "goal" in verdict.reason


class TestCounterexampleHygiene:
    SPURIOUS = Sample("reva", ((0, 1, 2), (), (1, 2, 0)), ("counterexample",))

    def test_spurious_sample_rejected_by_screen(self, reva):
        cfg = SolverConfig(seed=0)
        kept, rejected = screen_samples(reva, [self.SPURIOUS], cfg)
        assert kept == [] and rejected == 1

    def test_derivable_rejects_spurious(self, reva):
        assert not derivable(reva, "reva", self.SPURIOUS.values, 10)

    def test_solve_converges_despite_spurious_injection(self, reva):
        cfg = SolverConfig(seed=0, sample_depth=0, samples_per_pred=4)
        verdict = solve_list_mode(reva, cfg, initial_samples=[self.SPURIOUS])
        assert verdict.kind is VerdictKind.SAT
        assert verdict.stats["rejected_cex"] >= 1
        args = [TVar(n, Sort.LIST) for n in ("a", "b", "c")]
        got = verdict.model.models["reva"].formula(args)
        want = reverse_model_formula(args)
        checker = BoundedChecker(Bounds())
        from stpchc.formulas import FImp

        assert checker.check_validity(FImp(got, want)).valid
        assert checker.check_validity(FImp(want, got)).valid


class TestLengthAbstract:
    def test_take_clause_shapes(self, take_drop):
        abstract = length_abstract(take_drop)
        # take fact: take(0, l, nil) becomes take(0, l, 0)
        fact = abstract.definite[0]
        assert fact.head.args[0] == TInt(0)
        assert fact.head.args[2] == TInt(0)
        # the cons clause head becomes 1 + _
        from stpchc.formulas import TAdd

        cons_clause = abstract.definite[2]
        assert isinstance(cons_clause.head.args[1], TAdd)
        assert all(s is Sort.INT for s in abstract.predicates["take"])

    def test_goal_disequality_kept_definite_dropped(self):
        text = """
        (set-logic HORN)
        (declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
        (declare-fun p (Lst Lst) Bool)
        (assert (forall ((l Lst) (m Lst)) (=> (not (= l m)) (p l m))))
        (assert (forall ((l Lst) (m Lst)) (=> (and (p l m) (not (= l m))) false)))
        (check-sat)
        """
        abstract = length_abstract(parse_smtlib(text))
        assert abstract.definite[0].constraint == FTrue()
        assert isinstance(abstract.goals[0].constraint, FNot)

    def test_pure_integer_clause_unchanged(self):
        text = """
        (set-logic HORN)
        (declare-fun p (Int) Bool)
        (assert (forall ((x Int)) (=> (< x 3) (p x))))
        (check-sat)
        """
        system = parse_smtlib(text)
        abstract = length_abstract(system)
        assert abstract.definite == system.definite

    def test_abstraction_preserves_derived_samples(self, reva):
        budget = SampleBudget(depth=2, count=6)
        samples = collect_samples(reva, budget, random.Random(3))
        abstract = length_abstract(reva)
        assert samples
        for s in samples:
            depth = s.provenance[1]
            lengths = tuple(
                len(v) if isinstance(v, tuple) else v for v in s.values
            )
            assert derivable(abstract, s.predicate, lengths, depth), s


class TestListLenMode:
    def test_take_drop_sat(self, take_drop):
        verdict = solve(take_drop, SolverConfig(seed=0), mode="list-len")
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list-len"
        # the goal is implied at the default bound
        checker = BoundedChecker(Bounds())
        assert check_goal(verdict.model, take_drop, checker).status == "valid"

    def test_reva_still_sat_with_lengths(self, reva):
        verdict = solve_list_len_mode(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT

    def test_fact_free_predicate_modeled_empty(self):
        # no facts: the least model is empty, the empty relation satisfies
        # every clause, and the goal holds vacuously
        text = """
        (set-logic HORN)
        (declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
        (declare-fun p (Lst) Bool)
        (assert (forall ((l Lst)) (=> (p l) (p (cons 0 l)))))
        (assert (forall ((l Lst)) (=> (and (p l) (not (= l nil))) false)))
        (check-sat)
        """
        system = parse_smtlib(text)
        verdict = solve_list_len_mode(system, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.model.models["p"].empty


class TestBuiltinIntFitter:
    def test_take_drop_abstract_model(self, take_drop):
        abstract = length_abstract(take_drop)
        models = BuiltinIntChc().solve(abstract, SolverConfig(seed=0), random.Random(1))
        assert models is not None
        # the fitted take model matches min-like behaviour on the abstract
        # least model
        f = models["take"]
        for n, l, r in [(0, 3, 0), (2, 3, 2), (4, 3, 3), (1, 0, 0)]:
            env = {"$arg0": n, "$arg1": l, "$arg2": r}
            assert eval_formula(f, env), (n, l, r)
        assert not eval_formula(f, {"$arg0": 2, "$arg1": 3, "$arg2": 3})

    def test_append_is_pure_affine(self, take_drop):
        abstract = length_abstract(take_drop)
        models = BuiltinIntChc().solve(abstract, SolverConfig(seed=0), random.Random(1))
        f = models["append"]
        assert eval_formula(f, {"$arg0": 2, "$arg1": 3, "$arg2": 5})
        assert not eval_formula(f, {"$arg0": 2, "$arg1": 3, "$arg2": 4})


class TestExternalIntBackend:
    def test_model_parsing(self):
        text = """
        (model
          (define-fun take ((A Int) (B Int) (C Int)) Bool
            (ite (< B A) (= C B) (= C A)))
          (define-fun drop ((A Int) (B Int) (C Int)) Bool
            (= (+ A C) B))
        )
        """
        preds = {"take": (Sort.INT,) * 3, "drop": (Sort.INT,) * 3}
        models = parse_int_model(text, preds)
        assert models is not None
        assert eval_formula(models["take"], {"$arg0": 5, "$arg1": 3, "$arg2": 3})
        assert eval_formula(models["drop"], {"$arg0": 1, "$arg1": 3, "$arg2": 2})

    def test_model_parsing_distinct_implication_and_negation(self):
        text = """
        (define-fun p ((a Int) (b Int)) Bool
          (and (distinct a 0) (=> (< a b) (> b 1) (<= a (- b 1))) (not (= b (- a)))))
        """
        model = parse_int_model(text, {"p": (Sort.INT,) * 2})["p"]
        assert not eval_formula(model, {"$arg0": 0, "$arg1": 2})
        assert eval_formula(model, {"$arg0": 1, "$arg1": 2})
        assert eval_formula(model, {"$arg0": 2, "$arg1": 1})
        assert eval_formula(model, {"$arg0": 2, "$arg1": 2})
        assert not eval_formula(model, {"$arg0": 2, "$arg1": -2})

    @pytest.mark.parametrize("body", [
        "(= a c)",            # an undeclared symbol
        "(ite (< a b) a)",    # a Bool ite without its else branch
        "(frobnicate a b)",   # an unknown operator
        "(not)",              # an operator without its argument
    ])
    def test_unreadable_model_is_none(self, body):
        text = f"(define-fun p ((a Int) (b Int)) Bool {body})"
        assert parse_int_model(text, {"p": (Sort.INT,) * 2}) is None

    def test_subprocess_roundtrip(self, tmp_path, take_drop):
        stub = tmp_path / "intchc.py"
        stub.write_text(
            textwrap.dedent(
                """
                import sys
                sys.stdin.read()
                print("sat")
                print('(model')
                print('  (define-fun take ((a Int) (b Int) (c Int)) Bool (ite (< b a) (= c b) (= c a)))')
                print('  (define-fun drop ((a Int) (b Int) (c Int)) Bool (ite (< b a) (= c 0) (= c (- b a))))')
                print('  (define-fun append ((a Int) (b Int) (c Int)) Bool (= c (+ a b)))')
                print(')')
                """
            )
        )
        backend = ExternalIntChc([sys.executable, str(stub)])
        verdict = solve_list_len_mode(
            take_drop, SolverConfig(seed=0), int_backend=backend
        )
        assert verdict.kind is VerdictKind.SAT


class TestCollectionMode:
    def test_sort_multiset_sat(self, sort_system):
        verdict = solve(sort_system, SolverConfig(seed=0), mode="multiset")
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "multiset"
        srt = verdict.model.models["srt"]
        # multiset equality of the two arguments
        args = [TVar("a", Sort.LIST), TVar("b", Sort.LIST)]
        f = srt.formula(args)
        assert eval_formula(f, {"a": (2, 1), "b": (1, 2)})
        assert not eval_formula(f, {"a": (1,), "b": (1, 1)})
        # insert gains the singleton-sum pattern and count gets counting
        insert = verdict.model.models["insert"]
        assert insert.patterns
        assert verdict.model.models["count"].count_model

    def test_reva_collection_mode_too_coarse(self, reva):
        verdict = solve_collection_mode(reva, SolverConfig(seed=0), Mode.MULTISET)
        assert verdict.kind is VerdictKind.UNKNOWN


class TestRefute:
    def test_unsat_suite(self):
        for path in sorted((BENCH / "unsat").glob("*.smt2")):
            system = parse_smtlib(path.read_text())
            started = time.monotonic()
            witness = refute(system)
            elapsed = time.monotonic() - started
            assert witness is not None, path.name
            assert witness.depth <= 4
            assert replay_derivation(system, witness), path.name
            assert elapsed < 5.0, (path.name, elapsed)

    def test_sat_systems_never_refuted(self, reva, take_drop):
        for system in (reva, take_drop):
            for depth in (1, 3, 6):
                assert refute(system, RefuteBudget(depth=depth)) is None

    def test_cancel_stops_the_engine(self, sort_system):
        # this budget keeps refute(sort) busy for more than 5 s uncancelled
        budget = RefuteBudget(depth=8, max_atoms=10**6, value_hi=3, max_list_len=4)
        cancel = threading.Event()
        timer = threading.Timer(0.2, cancel.set)
        started = time.monotonic()
        timer.start()
        try:
            with pytest.raises(Cancelled):
                refute(sort_system, budget, cancel=cancel)
        finally:
            timer.cancel()
        assert time.monotonic() - started < 1.0

    def test_derivation_is_replayable_structure(self):
        system = parse_smtlib((BENCH / "unsat" / "plus_reach.smt2").read_text())
        witness = refute(system)
        assert witness.depth == 2
        node = witness.atoms[0]
        assert node.predicate == "plus"
        assert node.values == (2, 1, 3)
        assert node.children[0].values == (1, 1, 2)


class TestSolveAuto:
    def test_reva(self, reva):
        verdict = solve_auto(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list"

    def test_take_drop(self, take_drop):
        verdict = solve_auto(take_drop, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list-len"

    def test_sort(self, sort_system):
        verdict = solve_auto(sort_system, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "multiset"

    def test_unsat_instances(self):
        for path in sorted((BENCH / "unsat").glob("*.smt2")):
            system = parse_smtlib(path.read_text())
            verdict = solve_auto(system, SolverConfig(seed=0))
            assert verdict.kind is VerdictKind.UNSAT, path.name
            assert replay_derivation(system, verdict.derivation)

    def test_unreplayable_witness_is_not_unsat(self, monkeypatch):
        system = parse_smtlib((BENCH / "unsat" / "direct_fact.smt2").read_text())
        witness = refute(system)
        node = witness.atoms[0]
        assert node.values == ((1,),)
        altered = replace(witness, atoms=(replace(node, values=((2,),)),))
        monkeypatch.setattr(solver, "refute", lambda *args, **kwargs: altered)
        verdict = solve_auto(system, SolverConfig(seed=0, timeout=30))
        assert verdict.kind is not VerdictKind.UNSAT

    def test_timeout_gives_unknown(self, take_drop):
        started = time.monotonic()
        verdict = solve_auto(take_drop, SolverConfig(seed=0, timeout=0.01))
        assert time.monotonic() - started < 0.7
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "timeout"

    def test_no_thread_left_running(self):
        paths = [
            *sorted(BENCH.glob("*.smt2")),
            *sorted((BENCH / "unsat").glob("*.smt2")),
            *sorted(PERF_SYSTEMS.glob("*.smt2")),
        ]
        assert len(paths) == 11
        for path in paths:
            system = parse_smtlib(path.read_text())
            before = threading.active_count()
            verdict = solve(system, SolverConfig(seed=0), mode="auto")
            assert verdict.kind is not VerdictKind.UNKNOWN, path.name
            assert threading.active_count() == before, path.name


class TestSatVerdictValidity:
    def test_models_replay_at_larger_bound(self, reva, take_drop):
        # soundness spot-check: replaying every Sat model with a fresh
        # bounded checker at list bound 5 finds no counterexample
        replay = BoundedChecker(Bounds(max_list_len=5, max_elem=2))
        for system, verdict in (
            (reva, solve_list_mode(reva, SolverConfig(seed=0))),
            (take_drop, solve_list_len_mode(take_drop, SolverConfig(seed=0))),
        ):
            assert verdict.kind is VerdictKind.SAT
            assert check_definite(verdict.model, system, replay, 1).status == "valid"
            assert check_goal(verdict.model, system, replay).status == "valid"


class TestCheckDefiniteExamples:
    def make_model(self, reva, pattern_text):
        from stpchc.pattern_core import parse_pattern
        from stpchc.solver import PredicateModel

        sig = reva.predicates["reva"]
        return CandidateModel(
            {"reva": PredicateModel("reva", sig, patterns=(parse_pattern(pattern_text),))}
        )

    def test_base_model_fails_cons_clause(self, reva):
        model = self.make_model(reva, "(eps, x, x)")
        checker = BoundedChecker(Bounds())
        outcome = check_definite(model, reva, checker, 4)
        assert outcome.status == "cex"
        assert outcome.clause is reva.definite[1]
        # the counterexamples concretely falsify the clause
        from stpchc.solver import clause_formula

        f = clause_formula(model, outcome.clause)
        for env in outcome.assignments:
            assert eval_formula(f, env) is False

    def test_reverse_model_valid(self, reva):
        model = self.make_model(reva, "(x, y, x^R y)")
        checker = BoundedChecker(Bounds())
        assert check_definite(model, reva, checker, 4).status == "valid"
        assert check_goal(model, reva, checker).status == "valid"

    def test_empty_clause_sets_valid(self, reva):
        from stpchc.chc_core import ChcSystem

        empty = ChcSystem(dict(reva.predicates), [], [])
        model = self.make_model(reva, "(x, y, x^R y)")
        checker = BoundedChecker(Bounds())
        assert check_definite(model, empty, checker, 4).status == "valid"
        assert check_goal(model, empty, checker).status == "valid"


class TestBoundedGoalCheckOnWorkedSystems:
    def test_never_witnesses_satisfiable_systems(self, reva, take_drop, sort_system):
        from helpers import goal_hit

        for system in (reva, take_drop, sort_system):
            budget = SampleBudget(depth=3, count=8)
            samples = collect_samples(system, budget, random.Random(5))
            assert goal_hit(samples, system) is None


class TestRefuteExamples:
    def test_plus_invariant_goal_never_refuted(self):
        text = """
        (set-logic HORN)
        (declare-fun plus (Int Int Int) Bool)
        (assert (forall ((y Int)) (plus 0 y y)))
        (assert (forall ((x Int) (y Int) (z Int))
          (=> (and (plus (- x 1) y z) (not (= x 0))) (plus x y (+ z 1)))))
        (assert (forall ((x Int) (y Int) (z Int))
          (=> (and (plus x y z) (< z y)) false)))
        (check-sat)
        """
        system = parse_smtlib(text)
        budget = RefuteBudget(depth=4, value_lo=0, value_hi=3)
        assert refute(system, budget) is None

    def test_list_domain_honours_value_lo(self):
        def pinned(element: int):
            return parse_smtlib(f"""
            (set-logic HORN)
            (declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))
            (declare-fun p (Lst) Bool)
            (assert (forall ((l Lst)) (p l)))
            (assert (forall ((l Lst))
              (=> (and (p l) (= l (cons {element} nil))) false)))
            (check-sat)
            """)

        assert refute(pinned(0), RefuteBudget(value_lo=1)) is None
        witness = refute(pinned(-1), RefuteBudget(value_lo=-1))
        assert witness is not None
        assert witness.atoms[0].values == ((-1,),)

    def test_insert_patterns_include_singleton_sum(self, sort_system):
        verdict = solve_collection_mode(sort_system, SolverConfig(seed=0), Mode.MULTISET)
        from stpchc.pattern_core import TuplePattern, var_atom

        want = TuplePattern(
            ((var_atom(0),), (var_atom(1),), (var_atom(0), var_atom(1))),
            Mode.MULTISET,
        )
        assert want in verdict.model.models["insert"].patterns
        srt_pattern = TuplePattern(((var_atom(0),), (var_atom(0),)), Mode.MULTISET)
        assert srt_pattern in verdict.model.models["srt"].patterns


class TestTimeout:
    TIMEOUT = 0.1

    @pytest.mark.parametrize("mode", ["auto", *mode_registry()])
    def test_every_mode_honours_timeout(self, mode, sort_system, reva):
        # sort first; a mode that gives up on sort before the deadline (list
        # mode does, in milliseconds) is timed on reva
        for system in (sort_system, reva):
            started = time.monotonic()
            verdict = solve(system, SolverConfig(seed=0, timeout=self.TIMEOUT), mode=mode)
            elapsed = time.monotonic() - started
            assert elapsed < self.TIMEOUT + 0.7, (system, elapsed)
            if elapsed >= self.TIMEOUT:
                break
            assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "timeout"
        assert verdict.mode in ("refutation", *mode_registry())


class TestNoReferenceCycles:
    def test_derivable_and_replay_leave_no_garbage(self, reva):
        plus_reach = parse_smtlib((BENCH / "unsat" / "plus_reach.smt2").read_text())
        witness = refute(plus_reach)
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert derivable(reva, "reva", ((0, 1), (), (1, 0)), 8)
            for _ in range(50):
                assert replay_derivation(plus_reach, witness)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_bounded_search_leaves_no_garbage(self):
        l1, l2, l3 = (TVar(n, Sort.LIST) for n in ("l1", "l2", "l3"))
        f = FImp(FEq(l3, TConcat(TRev(l1), l2)), FPrefix(TRev(l1), l3))
        checker = BoundedChecker(Bounds())
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                assert checker.counterexamples(f, limit=16) == []
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_length_abstraction_leaves_no_garbage(self, take_drop):
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                length_abstract(take_drop)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_exhaustive_inference_leaves_no_garbage(self):
        from stpchc.data import LearningData
        from stpchc.stp_inference import infer_all, reachable_patterns

        data = LearningData.from_csv("aa,a,aac\nb,bb,bbd\n")
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert infer_all(data).complete
                assert reachable_patterns(data)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_collection_scan_leaves_no_garbage(self):
        from stpchc.smt_backend import _uses_collections

        l1, l2 = TVar("l1", Sort.LIST), TVar("l2", Sort.LIST)
        f = FImp(FEq(l1, TConcat(TRev(l1), l2)), FPrefix(l1, l2))
        gc.collect()
        gc.disable()
        try:
            for _ in range(50):
                assert not _uses_collections(f)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNatAsList:
    TEXT = """
    (set-logic HORN)
    (declare-datatypes ((Nat 0)) (((zero) (succ (pred Nat)))))
    (declare-fun plus (Nat Nat Nat) Bool)
    (assert (forall ((y Nat)) (plus zero y y)))
    (assert (forall ((x Nat) (y Nat) (z Nat))
      (=> (plus x y z) (plus (succ x) y (succ z)))))
    (assert (forall ((x Nat) (z Nat))
      (=> (and (plus x zero z) (not (= x z))) false)))
    (check-sat)
    """

    def test_unit_list_encoding_solves(self):
        system = parse_smtlib(self.TEXT, nat_as_list=True)
        verdict = solve_list_mode(system, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        # the inferred relation is concatenation of unit lists
        from stpchc.pattern_core import parse_pattern

        assert verdict.model.models["plus"].patterns == (
            parse_pattern("(x, y, x y)"),
        )


class TestAdmissionGate:
    def test_first_derivable_head_instance_wins(self, reva):
        cfg = SolverConfig(seed=0)
        clause = reva.definite[1]  # reva(l1, x::l2, l3) => reva(x::l1, l2, l3)
        assignments = [
            # spurious: head instance ([0,1,2], (), (1,2,0)) is not derivable
            {"x": 0, "l1": (1, 2), "l2": (), "l3": (1, 2, 0)},
            # genuine: head instance ([0,1], (), (1,0)) is derivable
            {"x": 0, "l1": (1,), "l2": (), "l3": (1, 0)},
        ]
        from stpchc.solver import admit_counterexamples

        admitted, rejected = admit_counterexamples(
            reva, clause, assignments, cfg, known=set()
        )
        assert rejected == 1
        assert [s.values for s in admitted] == [((0, 1), (), (1, 0))]
        assert admitted[0].provenance == ("counterexample",)

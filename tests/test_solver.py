import gc
import math
import multiprocessing
import os
import random
import signal
import subprocess
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
from stpchc.chc_core import ChcSystem, Clause, PredicateAtom
from stpchc.formulas import (
    FAnd, FEq, FImp, FLe, FLt, FNot, FOr, FTrue, Sort, TAdd, TConcat, TCons, TInt, TIte,
    TLdiff, TMul, TRev, TSeq, TVar, eval_formula,
)
from stpchc.pattern_core import Mode
from stpchc.smt_backend import Bounds, BoundedChecker, ExternalSmtChecker
from stpchc.solver import (
    BuiltinIntChc,
    CandidateModel,
    ExternalIntChc,
    RefuteBudget,
    SolverConfig,
    Verdict,
    VerdictKind,
    admit_counterexamples,
    check_definite,
    check_goal,
    length_abstract,
    mode_registry,
    parse_int_model,
    refute,
    replay_derivation,
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


@pytest.fixture
def starts(monkeypatch):
    """The processes this process starts, one entry per start: the name of a
    `multiprocessing` process, "fork" per `os.fork` call, or a `subprocess`
    command."""
    started = []
    start = multiprocessing.process.BaseProcess.start
    fork = os.fork
    execute = subprocess.Popen._execute_child

    def counted(self):
        started.append(self.name)
        start(self)

    def forked():
        started.append("fork")
        return fork()

    def executed(self, args, *rest):
        started.append(args)
        return execute(self, args, *rest)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(subprocess.Popen, "_execute_child", executed)
    return started


def stub_refutation(monkeypatch, witness, in_slice, then=lambda: None):
    """Replace auto mode's refutation search by one that returns `witness`:
    from the slice it runs in the calling process (a call with `units`) only
    when `in_slice`, and from the full search run after the modes, after
    calling `then` there."""

    def search(system, budget=RefuteBudget(), units=math.inf):
        if units < math.inf:
            return witness if in_slice else None
        then()
        return witness

    monkeypatch.setattr(solver, "refute", search)


def unreplayable_witness(system):
    """`system`'s witness with its first atom's values changed."""
    witness = refute(system)
    return replace(witness, atoms=(replace(witness.atoms[0], values=((2,),)),))


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

        assert checker.counterexamples(FImp(got, want)) == []
        assert checker.counterexamples(FImp(want, got)) == []

    def test_reva_from_facts_only_uses_counterexamples(self, reva):
        # with depth-0 sampling only the base facts are known, so the loop
        # must walk the counterexample-guided path
        cfg = SolverConfig(seed=0, sampling=SampleBudget(depth=0, count=4))
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

    def test_derivable_asked_once_per_atom(self, monkeypatch, sort_system):
        calls = []

        def counted(*args):
            calls.append(args[1:3])
            return derivable(*args)

        monkeypatch.setattr(solver, "derivable", counted)
        verdict = solve_list_mode(sort_system, SolverConfig(seed=2))
        assert verdict.kind is VerdictKind.UNKNOWN
        # every rejection is counted, each atom asked about once
        assert verdict.stats["rejected_cex"] == 128
        assert len(calls) == len(set(calls)) == 16

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_give_up_says_the_deeper_sample_found_nothing(self, reva, depth):
        # reva's least model is infinite, so sampling is not exhausted: one
        # deeper draw of a single sample per clause found no new atom
        cfg = SolverConfig(seed=2, sampling=SampleBudget(depth=depth, count=1))
        verdict = solve_list_mode(reva, cfg)
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "counterexamples rejected and a deeper sample found no new atom"


class TestCounterexampleHygiene:
    SPURIOUS = Sample("reva", ((0, 1, 2), (), (1, 2, 0)), ("counterexample",))

    def test_spurious_counterexample_rejected_by_gate(self, reva):
        # a counterexample to the recursive clause whose head is the spurious atom
        clause = next(c for c in reva.definite if c.body_atoms)
        env = {"x": 0, "l1": (1, 2), "l2": (), "l3": (1, 2, 0)}
        refused = set()
        new, rejected = admit_counterexamples(reva, clause, [env], SolverConfig(seed=0),
                                              set(), refused)
        assert new == [] and rejected == 1
        assert refused == {("reva", self.SPURIOUS.values)}

    def test_derivable_rejects_spurious(self, reva):
        assert not derivable(reva, "reva", self.SPURIOUS.values, 10)

    def test_solve_converges_despite_spurious_counterexamples(self, reva):
        # with depth-0 sampling the checker's counterexamples include
        # underivable head instances; the gate rejects them
        cfg = SolverConfig(seed=0, sampling=SampleBudget(depth=0, count=4))
        verdict = solve_list_mode(reva, cfg)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.stats["rejected_cex"] >= 1
        args = [TVar(n, Sort.LIST) for n in ("a", "b", "c")]
        got = verdict.model.models["reva"].formula(args)
        want = reverse_model_formula(args)
        checker = BoundedChecker(Bounds())
        from stpchc.formulas import FImp

        assert checker.counterexamples(FImp(got, want)) == []
        assert checker.counterexamples(FImp(want, got)) == []


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

    def test_definite_abstraction_holds_on_lengths(self):
        # wherever a definite constraint holds on lists, its abstraction holds
        # on their lengths: list equalities under a negation are dropped
        rng = random.Random(7)
        l, m = TVar("l", Sort.LIST), TVar("m", Sort.LIST)
        x, y = TVar("x", Sort.INT), TVar("y", Sort.INT)
        atoms = [FEq(l, m), FEq(l, TCons(TInt(0), m)), FEq(m, TSeq(())),
                 FEq(TIte(FLt(x, y), l, m), TIte(FLt(x, y), m, l)),
                 FEq(x, y), FLt(x, y), FLe(TAdd(x, TInt(1)), y)]

        def formula(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            kind = rng.randrange(4)
            if kind == 0:
                return FNot(formula(depth - 1))
            a, b = formula(depth - 1), formula(depth - 1)
            return (FAnd((a, b)), FOr((a, b)), FImp(a, b))[kind - 1]

        lists = [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
        envs = [{"l": a, "m": b, "x": i, "y": j}
                for a in lists for b in lists for i in range(3) for j in range(3)]
        for _ in range(300):
            f = formula(3)
            system = ChcSystem({"p": (Sort.INT,)}, [Clause((), f, PredicateAtom("p", (x,)))], [])
            abstract = length_abstract(system).definite[0].constraint
            for env in envs:
                if eval_formula(f, env):
                    lengths = {**env, "l": len(env["l"]), "m": len(env["m"])}
                    assert eval_formula(abstract, lengths), (f, abstract, env)

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

    def test_starts_from_list_mode_verdict(self, monkeypatch, take_drop):
        cfg = SolverConfig(seed=0)
        alone = solve_list_len_mode(take_drop, cfg)
        after = solve_list_mode(take_drop, cfg)
        # the checked model of list mode's loop, no bounds: not a sat
        assert after.kind is VerdictKind.UNKNOWN
        assert after.model is not None and after.bounds is None
        loops = []
        loop = solver._solve_patterns

        def counted(*args, **kwargs):
            loops.append(args)
            return loop(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_patterns", counted)
        verdict = solve_list_len_mode(take_drop, cfg, after=after)
        assert loops == []
        assert verdict.kind is VerdictKind.SAT
        assert verdict.model.render() == alone.model.render()
        assert (verdict.bounds, verdict.stats) == (alone.bounds, alone.stats)
        # a verdict without a model is the loop's reason to give up
        gave_up = Verdict(VerdictKind.UNKNOWN, reason="iteration limit", mode="list")
        assert solve_list_len_mode(take_drop, cfg, after=gave_up) is gave_up
        assert loops == []

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


def _coefficients(t) -> list[int]:
    """The integer coefficients of an affine equation side, constant last."""
    if type(t) is TAdd:
        return _coefficients(t.a) + _coefficients(t.b)
    if type(t) is TMul:
        return [t.factor]
    return [1] if type(t) is TVar else [t.value]


class TestAffineEquations:
    def test_coefficients_are_coprime_integers(self):
        # rows on a random integer affine image of k parameters, so the
        # nullspace needs fractions cleared and coefficients other than 1
        rng = random.Random(5)
        scaled = 0
        for _ in range(300):
            arity, k = rng.randint(1, 4), rng.randint(0, 2)
            image = [[rng.randint(-3, 3) for _ in range(k + 1)] for _ in range(arity)]
            rows = []
            for _ in range(rng.randint(1, 10)):
                params = [rng.randint(-4, 4) for _ in range(k)] + [1]
                rows.append(tuple(sum(a * p for a, p in zip(col, params)) for col in image))
            for eq in solver._affine_equations(rows, arity):
                coeffs = _coefficients(eq.a)
                assert eq.b == TInt(0) and math.gcd(*coeffs) == 1, (rows, eq)
                scaled += any(abs(c) > 1 for c in coeffs)
                for row in rows:
                    assert eval_formula(eq, {f"$arg{i}": v for i, v in enumerate(row)})
        assert scaled > 0


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
        "(= a --1)",          # a numeral with two signs
        "(= a \u00b2)",        # a digit that is not ASCII
        pytest.param("(and " * 5000 + "(= a b)" + ")" * 5000, id="deep"),
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
        assert insert.pattern is not None
        assert verdict.model.models["count"].count_model

    def test_external_checker_is_not_used(self, sort_system):
        # collection atoms have no SMT encoding: the mode checks them bounded
        checker = ExternalSmtChecker(["/nonexistent/solver"])
        verdict = solve_collection_mode(sort_system, SolverConfig(seed=0), Mode.MULTISET,
                                        checker=checker)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.bounded

    def test_reva_collection_mode_too_coarse(self, reva):
        verdict = solve_collection_mode(reva, SolverConfig(seed=0), Mode.MULTISET)
        assert verdict.kind is VerdictKind.UNKNOWN

    @pytest.mark.parametrize("mode", [Mode.SET, Mode.MULTISET])
    def test_unknown_keeps_no_model(self, reva, mode):
        # the patterns hold, but only list mode's unknown keeps their model,
        # the one list-len mode starts from
        verdict = solve_collection_mode(reva, SolverConfig(seed=0), mode)
        assert verdict.reason == "patterns hold but do not imply the goals"
        assert verdict.model is None


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

    @pytest.mark.parametrize("units", [1, 2, 7, 64, solver.REFUTE_SLICE, math.inf])
    def test_resumed_search_finds_the_same_witness(self, units):
        # a search cut after `units` units finds nothing or the full
        # search's witness (the same derivation trees); auto mode's slice
        # finds one on exactly the unsat systems
        paths = [
            *sorted(BENCH.glob("*.smt2")),
            *sorted((BENCH / "unsat").glob("*.smt2")),
            *sorted(PERF_SYSTEMS.glob("*.smt2")),
        ]
        assert len(paths) == 11
        found = set()
        for path in paths:
            system = parse_smtlib(path.read_text())
            got = refute(system, RefuteBudget(), units)
            assert got is None or got == refute(system), (path.name, units)
            if got is not None:
                found.add(path)
        if units == solver.REFUTE_SLICE:
            assert found == {*(BENCH / "unsat").glob("*.smt2"), *PERF_SYSTEMS.glob("*.smt2")}

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
        assert verdict.stats["attempts"] == []

    def test_take_drop(self, take_drop):
        verdict = solve_auto(take_drop, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list-len"
        # every mode before the winner, in registry order
        assert verdict.stats["attempts"] == [
            (mode, "unknown", "patterns hold but do not imply the goals")
            for mode in ("list", "multiset")
        ]

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
            assert verdict.stats["attempts"] == [], path.name

    def test_unsat_found_in_the_slice_starts_no_process(self, starts):
        paths = [
            *sorted((BENCH / "unsat").glob("*.smt2")),
            *sorted(PERF_SYSTEMS.glob("*.smt2")),
        ]
        assert len(paths) == 8
        for path in paths:
            system = parse_smtlib(path.read_text())
            verdict = solve_auto(system, SolverConfig(seed=0))
            assert verdict.kind is VerdictKind.UNSAT, path.name
            assert starts == [], path.name

    def test_refutation_resumes_only_after_every_mode_is_unknown(self, monkeypatch, reva):
        # the slice is inconclusive; the full search logs when it runs
        log = []
        stub_refutation(monkeypatch, None, False, lambda: log.append("refutation"))

        def logged(name, kind):
            return lambda: log.append(name) or Verdict(kind, reason="stub")

        self.stub_modes(monkeypatch, logged("list", VerdictKind.SAT),
                        logged("multiset", VerdictKind.SAT))
        assert solve_auto(reva, SolverConfig(seed=0)).mode == "list"
        assert log == ["list"]
        log.clear()
        self.stub_modes(monkeypatch, logged("list", VerdictKind.UNKNOWN),
                        logged("multiset", VerdictKind.UNKNOWN))
        verdict = solve_auto(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.UNKNOWN
        assert log == ["list", "multiset", "refutation"]

    @pytest.mark.parametrize("name", ["reva.smt2", "sort.smt2"])
    def test_timed_solve_runs_the_full_search_after_the_modes(self, monkeypatch, starts,
                                                              tmp_path, name):
        # reva's search ends inside the slice, sort's does not; with a
        # deadline, the full search runs once after the modes for both, in
        # this process.  Each full search is a line of the log
        log = tmp_path / "full"
        search = solver.refute

        def logged(system, budget=RefuteBudget(), units=math.inf):
            if units == math.inf:
                with open(log, "a") as handle:
                    handle.write("full\n")
            return search(system, budget, units)

        monkeypatch.setattr(solver, "refute", logged)

        def unknown():
            return Verdict(VerdictKind.UNKNOWN, reason="stub")

        self.stub_modes(monkeypatch, unknown, unknown)
        verdict = solve_auto(load(name), SolverConfig(seed=0, timeout=30))
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "stub"
        assert starts == []
        assert log.read_text().splitlines() == ["full"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("timeout", [None, 30])
    def test_solve_starts_a_process_only_for_a_deadline(self, starts, timeout):
        paths = [
            *sorted(BENCH.glob("*.smt2")),
            *sorted((BENCH / "unsat").glob("*.smt2")),
            *sorted(PERF_SYSTEMS.glob("*.smt2")),
        ]
        assert len(paths) == 11
        for path in paths:
            system = parse_smtlib(path.read_text())
            starts.clear()
            verdict = solve_auto(system, SolverConfig(seed=0, timeout=timeout))
            assert verdict.kind is not VerdictKind.UNKNOWN, path.name
            assert starts == [], path.name
            assert multiprocessing.active_children() == [], path.name
            if timeout is not None:
                # the deadline changes nothing a solve inside it returns
                untimed = solve_auto(system, SolverConfig(seed=0))
                assert (verdict.kind, verdict.mode, verdict.stats["attempts"]) == (
                    untimed.kind, untimed.mode, untimed.stats["attempts"]), path.name

    def test_resumed_refuter_finds_the_same_witness(self, monkeypatch, starts):
        # with a slice of 7 units, take_drop_swapped's witness (2,239 units
        # in) is found once every mode returned unknown, by the full search,
        # with a deadline or without
        system = parse_smtlib((PERF_SYSTEMS / "take_drop_swapped.smt2").read_text())
        monkeypatch.setattr(solver, "REFUTE_SLICE", 7)
        def unknown():
            return Verdict(VerdictKind.UNKNOWN, reason="stub")

        self.stub_modes(monkeypatch, unknown, unknown)
        for timeout in (None, 30):
            starts.clear()
            verdict = solve_auto(system, SolverConfig(seed=0, timeout=timeout))
            assert verdict.kind is VerdictKind.UNSAT
            assert verdict.mode == "refutation"
            assert verdict.stats == {
                "attempts": [(mode, "unknown", "stub") for mode in mode_registry()]
            }
            assert verdict.derivation == refute(system)
            assert starts == []
            assert multiprocessing.active_children() == []

    def test_unreplayable_witness_is_not_unsat(self, monkeypatch, starts):
        system = parse_smtlib((BENCH / "unsat" / "direct_fact.smt2").read_text())
        assert refute(system).atoms[0].values == ((1,),)
        # found in the slice, and found by the full search after the modes
        for in_slice in (True, False):
            stub_refutation(monkeypatch, unreplayable_witness(system), in_slice)
            starts.clear()
            verdict = solve_auto(system, SolverConfig(seed=0, timeout=30))
            assert verdict.kind is not VerdictKind.UNSAT, in_slice
            assert starts == []

    def test_refutation_is_killed_once_a_mode_wins(self, monkeypatch, starts, reva):
        # the slice is inconclusive; the full search would sleep past
        # the test.  It never runs once list mode wins, and with a deadline
        # the timer is disarmed once its verdict is in
        stub_refutation(monkeypatch, None, False, lambda: time.sleep(30))
        for timeout in (None, 30):
            starts.clear()
            started = time.monotonic()
            verdict = solve_auto(reva, SolverConfig(seed=0, timeout=timeout))
            assert time.monotonic() - started < 5
            assert verdict.kind is VerdictKind.SAT
            assert verdict.mode == "list"
            assert starts == []
            assert multiprocessing.active_children() == []

    def test_timeout_gives_unknown(self, take_drop):
        started = time.monotonic()
        verdict = solve_auto(take_drop, SolverConfig(seed=0, timeout=0.01))
        assert time.monotonic() - started < 0.7
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "timeout"
        assert multiprocessing.active_children() == []

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
            assert multiprocessing.active_children() == [], path.name

    def test_list_len_reuses_list_mode_loop(self, monkeypatch, take_drop, tmp_path):
        # each loop appends a line to the log
        log = tmp_path / "loops"
        loop = solver._solve_patterns

        def counted(*args, **kwargs):
            with open(log, "a") as handle:
                handle.write("loop\n")
            return loop(*args, **kwargs)

        monkeypatch.setattr(solver, "_solve_patterns", counted)
        verdict = solve_auto(take_drop, SolverConfig(seed=0))
        assert verdict.mode == "list-len"
        # list and multiset; list-len strengthens list's model and wins, so
        # set mode, after it, never runs
        assert log.read_text().splitlines() == ["loop"] * 2

    @pytest.mark.parametrize("timeout", [None, 5])
    def test_modes_run_in_order_list_len_after_list(self, monkeypatch, reva, tmp_path, timeout):
        # each start of a runner is a line of the log
        log = tmp_path / "starts"

        def stub(name):
            def runner(*args, after=None, **kwargs):
                got = None if after is None else (after.mode, after.reason)
                with open(log, "a") as handle:
                    handle.write(f"{name} {got}\n")
                return Verdict(VerdictKind.UNKNOWN, reason=f"{name} stub")

            return runner

        def collection(*args, mode, **kwargs):
            return stub("set" if mode is Mode.SET else "multiset")(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_list_mode", stub("list"))
        monkeypatch.setattr(solver, "solve_collection_mode", collection)
        monkeypatch.setattr(solver, "solve_list_len_mode", stub("list-len"))
        verdict = solve_auto(reva, SolverConfig(seed=0, timeout=timeout))
        assert verdict.kind is VerdictKind.UNKNOWN
        assert (verdict.mode, verdict.reason) == ("set", "set stub")
        assert log.read_text().splitlines() == [
            "list None", "multiset None", "list-len ('list', 'list stub')", "set None",
        ]
        assert multiprocessing.active_children() == []

    @staticmethod
    def stub_modes(monkeypatch, list_mode, multiset_mode):
        """Replace list mode and multiset mode, the mode after it, by
        functions of no argument; list-len and set mode give UNKNOWN at
        once."""

        def unknown():
            return Verdict(VerdictKind.UNKNOWN, reason="stub")

        def collection(*args, mode, **kwargs):
            return multiset_mode() if mode is Mode.MULTISET else unknown()

        monkeypatch.setattr(solver, "solve_list_mode", lambda *args, **kwargs: list_mode())
        monkeypatch.setattr(solver, "solve_collection_mode", collection)
        monkeypatch.setattr(solver, "solve_list_len_mode", lambda *args, **kwargs: unknown())

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_later_sat_waits_for_earlier_unknown(self, monkeypatch, reva, cpus):
        # the modes run in order whatever the CPUs the process may use
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def slow_unknown():
            time.sleep(0.3)
            return Verdict(VerdictKind.UNKNOWN, reason="slow")

        self.stub_modes(monkeypatch, slow_unknown, lambda: Verdict(VerdictKind.SAT))
        verdict = solve_auto(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "multiset"
        assert verdict.stats["attempts"] == [("list", "unknown", "slow")]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_earlier_sat_wins_over_faster_later_sat(self, monkeypatch, reva, cpus):
        # the modes run in order whatever the CPUs the process may use
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

        def slow_sat():
            time.sleep(0.3)
            return Verdict(VerdictKind.SAT)

        self.stub_modes(monkeypatch, slow_sat, lambda: Verdict(VerdictKind.SAT))
        verdict = solve_auto(reva, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list"
        assert verdict.stats["attempts"] == []
        assert multiprocessing.active_children() == []

    def test_all_unknown_verdict_is_the_last_modes(self, monkeypatch, starts):
        # refutation's verdict, from the full search after the modes, does
        # not replace the last mode's reason
        system = parse_smtlib((BENCH / "unsat" / "direct_fact.smt2").read_text())
        stub_refutation(monkeypatch, unreplayable_witness(system), False,
                        lambda: time.sleep(0.3))

        def unknown():
            return Verdict(VerdictKind.UNKNOWN, reason="stub")

        self.stub_modes(monkeypatch, unknown, unknown)
        verdict = solve_auto(system, SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "stub"
        assert verdict.mode == "set"
        assert starts == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("timeout", [None, 30])
    def test_runner_exception_is_raised(self, monkeypatch, reva, starts, timeout):
        def boom():
            raise RuntimeError("boom")

        self.stub_modes(monkeypatch, boom, lambda: Verdict(VerdictKind.SAT))
        with pytest.raises(RuntimeError, match="^boom$"):
            solve_auto(reva, SolverConfig(seed=0, timeout=timeout))
        assert starts == []
        assert multiprocessing.active_children() == []


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
            {"reva": PredicateModel("reva", sig, pattern=parse_pattern(pattern_text))}
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
        assert verdict.model.models["insert"].pattern == want
        srt_pattern = TuplePattern(((var_atom(0),), (var_atom(0),)), Mode.MULTISET)
        assert verdict.model.models["srt"].pattern == srt_pattern


class TestTimeout:
    TIMEOUT = 0.1
    # at the default bounds some modes finish inside the deadline (reva's list
    # mode in about 10 ms), and at length 6 reva's list mode takes about
    # 0.1 s; with lists up to length 8 every mode that reaches the checker
    # takes seconds on reva, and sort's list mode gives up in about 20 ms
    BOUNDS = Bounds(max_list_len=8)

    @pytest.mark.parametrize("mode", ["auto", *mode_registry()])
    def test_every_mode_honours_timeout(self, mode, sort_system, reva):
        # sort first; a mode that gives up on sort before the deadline (list
        # mode does, in milliseconds) is timed on reva
        cfg = SolverConfig(seed=0, timeout=self.TIMEOUT, bounds=self.BOUNDS)
        for system in (sort_system, reva):
            started = time.monotonic()
            verdict = solve(system, cfg, mode=mode)
            elapsed = time.monotonic() - started
            assert elapsed < self.TIMEOUT + 0.7, (system, elapsed)
            if elapsed >= self.TIMEOUT:
                break
            assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.kind is VerdictKind.UNKNOWN
        assert verdict.reason == "timeout"
        assert verdict.mode in ("refutation", *mode_registry())

    def test_deadline_is_not_swallowed(self, monkeypatch, reva):
        # the sampler's first evaluated draw sleeps past the test, inside the
        # `except Exception` that drops draws the constraint cannot evaluate
        from stpchc import chc_core

        evaluate, collect = chc_core.eval_formula, solver.collect_samples
        sampling, slept = [], []

        def sleepy(*args, **kwargs):
            if sampling and not slept:
                slept.append(True)
                time.sleep(30)
            return evaluate(*args, **kwargs)

        def sampled(*args, **kwargs):
            sampling.append(True)
            try:
                return collect(*args, **kwargs)
            finally:
                sampling.pop()

        monkeypatch.setattr(chc_core, "eval_formula", sleepy)
        monkeypatch.setattr(solver, "collect_samples", sampled)
        started = time.monotonic()
        verdict = solve(reva, SolverConfig(seed=0, timeout=0.2))
        assert time.monotonic() - started < 0.2 + 0.7
        assert slept
        assert (verdict.kind, verdict.reason, verdict.mode) == (
            VerdictKind.UNKNOWN, "timeout", "list")

    def test_deadline_off_the_main_thread_is_refused(self, monkeypatch, reva):
        searches, raised = [], []
        monkeypatch.setattr(solver, "refute", lambda *args, **kwargs: searches.append(args))

        def run():
            try:
                solve(reva, SolverConfig(seed=0, timeout=30))
            except ValueError as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(raised) == 1 and "main thread" in raised[0]
        assert searches == []

    @pytest.mark.parametrize("ends", ["finished", "timed out"])
    def test_callers_alarm_handler_is_restored(self, monkeypatch, reva, ends):
        def callers(signum, frame):
            raise AssertionError("the caller's handler ran")

        handlers = []  # SIGALRM's handler while list mode runs

        def list_mode(*args, **kwargs):
            handlers.append(signal.getsignal(signal.SIGALRM))
            if ends == "timed out":
                time.sleep(30)
            return Verdict(VerdictKind.SAT)

        monkeypatch.setattr(solver, "solve_list_mode", list_mode)
        previous = signal.signal(signal.SIGALRM, callers)
        try:
            verdict = solve(reva, SolverConfig(seed=0, timeout=0.2))
            assert signal.getsignal(signal.SIGALRM) is callers
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert len(handlers) == 1 and handlers[0] is not callers
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        if ends == "finished":
            assert (verdict.kind, verdict.mode) == (VerdictKind.SAT, "list")
        else:
            assert (verdict.kind, verdict.reason, verdict.mode) == (
                VerdictKind.UNKNOWN, "timeout", "list")


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
        # the consequent says that rev(l1) is a prefix of l3
        f = FImp(FEq(l3, TConcat(TRev(l1), l2)),
                 FEq(l3, TConcat(TRev(l1), TLdiff(TRev(l1), l3))))
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
        from stpchc.stp_inference import infer_all

        from helpers import reachable_patterns

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

        assert verdict.model.models["plus"].pattern == parse_pattern("(x, y, x y)")


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

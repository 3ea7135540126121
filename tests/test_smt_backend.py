import sys
import textwrap
import time
from pathlib import Path

import pytest

from stpchc.chc_core import parse_smtlib
from stpchc.formulas import (
    FEq,
    FFalse,
    FImp,
    FLe,
    Sort,
    TConcat,
    TInt,
    TLdiff,
    TLen,
    TRev,
    TSeq,
    TVar,
)
from stpchc.pattern_core import parse_pattern
from stpchc.smt_backend import (
    BoundedChecker,
    Bounds,
    ExternalSmtChecker,
    Unknown,
    ask,
)
from stpchc.solver import CandidateModel, PredicateModel, check_definite

from helpers import assert_stopped

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

L1 = TVar("l1", Sort.LIST)
L2 = TVar("l2", Sort.LIST)
L3 = TVar("l3", Sort.LIST)


class TestBoundedChecker:
    def test_valid_identity(self):
        # l2 = reverse(eps) . l2
        f = FEq(L2, TConcat(TRev(TSeq(())), L2))
        checker = BoundedChecker()
        assert checker.counterexamples(f) == []
        assert checker.bounds == Bounds()

    def test_concat_model_counterexample(self):
        # under the plain concatenation model, consing on the left is not
        # the same as appending on the right
        ante = FEq(L3, TConcat(L1, TConcat(TSeq((0,)), L2)))
        cons = FEq(L3, TConcat(TSeq((0,)), TConcat(L1, L2)))
        [env] = BoundedChecker().counterexamples(FImp(ante, cons))
        assert env["l3"] == env["l1"] + (0,) + env["l2"]
        assert env["l3"] != (0,) + env["l1"] + env["l2"]

    def test_counterexamples_ordered_and_limited(self):
        checker = BoundedChecker(Bounds(max_list_len=2, max_elem=1))
        f = FEq(L1, L2)
        cexs = checker.counterexamples(f, limit=3)
        assert len(cexs) == 3
        # deterministic smallest-first order
        assert cexs[0]["l1"] == () and cexs[0]["l2"] == (0,)

    def test_propagation_handles_forced_equalities(self):
        # l3 is forced by the antecedent, so this must be fast despite three
        # list variables
        ante = FEq(L3, TConcat(TRev(L1), L2))
        cons = FEq(L3, TConcat(TRev(L1), TLdiff(TRev(L1), L3)))  # rev(l1) prefixes l3
        start = time.monotonic()
        assert BoundedChecker().counterexamples(FImp(ante, cons)) == []
        assert time.monotonic() - start < 2.0

    def test_never_upgrades_to_plain_valid(self):
        # a pass of the bounded checker holds within its bounds only
        reva = parse_smtlib((BENCH / "reva.smt2").read_text())
        sig = reva.predicates["reva"]
        model = CandidateModel(
            {"reva": PredicateModel("reva", sig, pattern=parse_pattern("(x, y, x^R y)"))}
        )
        checker = BoundedChecker(Bounds(max_list_len=2, max_elem=1))
        outcome = check_definite(model, reva, checker)
        assert outcome.status == "valid"
        assert outcome.bounds == checker.bounds

    def test_evaluation_fault_is_raised_not_bounded_validity(self):
        # `len` of an Int is a fault of the formula: neither the target check
        # nor a forced equation may read it as "no counterexample here"
        x, n = TVar("x", Sort.INT), TVar("n", Sort.INT)
        with pytest.raises(TypeError):
            BoundedChecker().counterexamples(FImp(FLe(TInt(0), x), FEq(TLen(x), TInt(0))))
        with pytest.raises(TypeError):
            BoundedChecker().counterexamples(FImp(FEq(n, TLen(x)), FFalse()))


def make_stub(tmp_path: Path, body: str) -> str:
    script = tmp_path / "stub_solver.py"
    script.write_text("import sys\n" + textwrap.dedent(body))
    return f"{sys.executable} {script}"


class TestExternalChecker:
    def test_unsat_means_valid(self, tmp_path):
        cmd = make_stub(tmp_path, "print('unsat')")
        checker = ExternalSmtChecker(cmd.split())
        assert checker.counterexamples(FEq(L1, L1)) == []
        assert checker.bounds is None  # the answer holds for every value

    def test_sat_with_verified_counterexample(self, tmp_path):
        cmd = make_stub(
            tmp_path,
            """
            sys.stdin.read()
            print('sat')
            print('((l1 (seq.++ (seq.unit 1) (seq.unit 0))) (l2 (as seq.empty (Seq Int))))')
            """,
        )
        checker = ExternalSmtChecker(cmd.split())
        assert checker.counterexamples(FEq(L1, L2)) == [{"l1": (1, 0), "l2": ()}]

    def test_bogus_counterexample_rejected(self, tmp_path):
        cmd = make_stub(
            tmp_path,
            """
            sys.stdin.read()
            print('sat')
            print('((l1 (seq.unit 1)) (l2 (seq.unit 1)))')
            """,
        )
        checker = ExternalSmtChecker(cmd.split())
        with pytest.raises(Unknown, match="re-evaluation"):
            checker.counterexamples(FEq(L1, L2))

    def test_symbolic_counterexample_rejected(self, tmp_path):
        cmd = make_stub(
            tmp_path,
            """
            sys.stdin.read()
            print('sat')
            print('((l1 (seq.rev l2)) (l2 (seq.unit 1)))')
            """,
        )
        checker = ExternalSmtChecker(cmd.split())
        with pytest.raises(Unknown, match="^counter-model not parseable$"):
            checker.counterexamples(FEq(L1, L2))

    @pytest.mark.parametrize("value", ["--5", "\u00b2", "(- \u00b2)"])
    def test_malformed_numeral_rejected(self, tmp_path, value):
        # a numeral is ASCII `-?[0-9]+`
        cmd = make_stub(
            tmp_path,
            f"""
            sys.stdin.read()
            print('sat')
            print('((l1 (seq.unit {value})) (l2 (seq.unit 1)))')
            """,
        )
        checker = ExternalSmtChecker(cmd.split())
        with pytest.raises(Unknown, match="^counter-model not parseable$"):
            checker.counterexamples(FEq(L1, L2))

    @pytest.mark.parametrize("value", [
        "(seq.unit)",                 # seq.unit takes one argument
        "(seq.unit 1 2)",
        "(seq.unit (seq.unit 1))",    # of an integer
        pytest.param("(seq.++ " * 3000 + "(seq.unit 1)" + ")" * 3000, id="deep"),
    ])
    def test_malformed_value_rejected(self, tmp_path, value):
        # an unreadable model is Unknown, never a traceback
        cmd = make_stub(
            tmp_path,
            f"""
            sys.stdin.read()
            print('sat')
            print('((l1 {value}) (l2 (seq.unit 1)))')
            """,
        )
        checker = ExternalSmtChecker(cmd.split())
        with pytest.raises(Unknown, match="^counter-model not parseable$"):
            checker.counterexamples(FEq(L1, L2))

    def test_process_failure_is_unknown(self):
        checker = ExternalSmtChecker(["/nonexistent/solver"])
        with pytest.raises(Unknown, match="No such file"):
            checker.counterexamples(FEq(L1, L2))

    def test_no_output_is_unknown(self):
        checker = ExternalSmtChecker(["true"])
        with pytest.raises(Unknown, match="^no solver output$"):
            checker.counterexamples(FEq(L1, L2))

    def test_output_that_is_not_text_is_unknown(self, tmp_path):
        cmd = make_stub(tmp_path, "sys.stdin.read()\nsys.stdout.buffer.write(b'\\xff\\n')")
        checker = ExternalSmtChecker(cmd.split())
        with pytest.raises(Unknown, match="'utf-8' codec can't decode byte 0xff"):
            checker.counterexamples(FEq(L1, L2))

    def test_timeout_kills_the_command_group(self, tmp_path):
        # the shell waits on a sleep it started; `ask` gives up at its own
        # timeout, and the sleep goes with the shell
        pids = tmp_path / "pids"
        started = time.monotonic()
        with pytest.raises(Unknown, match="timed out after 0.2 seconds"):
            ask(["sh", "-c", f"sleep 30 & echo $! > {pids}; wait; echo sat"], "", 0.2)
        assert time.monotonic() - started < 0.2 + 0.7
        stubs = pids.read_text().split()
        assert stubs
        assert_stopped(stubs)

    def test_answer_kills_the_command_group(self, tmp_path):
        # the shell answers and exits, leaving a sleep in the background
        # that holds none of its pipes
        pids = tmp_path / "pids"
        script = f"sleep 30 >/dev/null 2>&1 & echo $! > {pids}; echo sat"
        assert ask(["sh", "-c", script], "", 5) == ("sat", "")
        stubs = pids.read_text().split()
        assert stubs
        assert_stopped(stubs)

    def test_script_declares_and_negates(self, tmp_path):
        checker = ExternalSmtChecker(["true"])
        script = checker.script(FEq(L1, TConcat(TRev(L2), L2)))
        assert "(declare-const l1 (Seq Int))" in script
        assert "(assert (not (= l1 (seq.++ (seq.rev l2) l2))))" in script
        assert "define-fun-rec seq.rev" in script

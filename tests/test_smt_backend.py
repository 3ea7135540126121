import sys
import textwrap
import time
from pathlib import Path

import pytest

from stpchc.formulas import (
    FEq,
    FFalse,
    FImp,
    FLe,
    FNot,
    FPrefix,
    FSubset,
    Sort,
    TCollOf,
    TConcat,
    TCount,
    TInt,
    TIte,
    TLen,
    TRev,
    TSeq,
    TVar,
)
from stpchc.smt_backend import (
    BoundedChecker,
    Bounds,
    ExternalSmtChecker,
    ValidityKind,
)

L1 = TVar("l1", Sort.LIST)
L2 = TVar("l2", Sort.LIST)
L3 = TVar("l3", Sort.LIST)


class TestBoundedChecker:
    def test_valid_identity(self):
        # l2 = reverse(eps) . l2
        f = FEq(L2, TConcat(TRev(TSeq(())), L2))
        res = BoundedChecker().check_validity(f)
        assert res.kind is ValidityKind.VALID_BOUNDED
        assert res.bounds is not None

    def test_concat_model_counterexample(self):
        # under the plain concatenation model, consing on the left is not
        # the same as appending on the right
        ante = FEq(L3, TConcat(L1, TConcat(TSeq((0,)), L2)))
        cons = FEq(L3, TConcat(TSeq((0,)), TConcat(L1, L2)))
        res = BoundedChecker().check_validity(FImp(ante, cons))
        assert res.kind is ValidityKind.INVALID
        env = res.assignment
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
        cons = FPrefix(TRev(L1), L3)
        start = time.monotonic()
        res = BoundedChecker().check_validity(FImp(ante, cons))
        assert res.kind is ValidityKind.VALID_BOUNDED
        assert time.monotonic() - start < 2.0

    def test_never_upgrades_to_plain_valid(self):
        f = FEq(L1, L1)
        assert BoundedChecker().check_validity(f).kind is ValidityKind.VALID_BOUNDED

    def test_evaluation_fault_is_raised_not_bounded_validity(self):
        # `len` of an Int is a fault of the formula: neither the target check
        # nor a forced equation may read it as "no counterexample here"
        x, n = TVar("x", Sort.INT), TVar("n", Sort.INT)
        with pytest.raises(TypeError):
            BoundedChecker().check_validity(FImp(FLe(TInt(0), x), FEq(TLen(x), TInt(0))))
        with pytest.raises(TypeError):
            BoundedChecker().check_validity(FImp(FEq(n, TLen(x)), FFalse()))


def make_stub(tmp_path: Path, body: str) -> str:
    script = tmp_path / "stub_solver.py"
    script.write_text("import sys\n" + textwrap.dedent(body))
    return f"{sys.executable} {script}"


class TestExternalChecker:
    def test_unsat_means_valid(self, tmp_path):
        cmd = make_stub(tmp_path, "print('unsat')")
        checker = ExternalSmtChecker(cmd.split())
        res = checker.check_validity(FEq(L1, L1))
        assert res.kind is ValidityKind.VALID

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
        res = checker.check_validity(FEq(L1, L2))
        assert res.kind is ValidityKind.INVALID
        assert res.assignment == {"l1": (1, 0), "l2": ()}

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
        res = checker.check_validity(FEq(L1, L2))
        assert res.kind is ValidityKind.UNKNOWN
        assert "re-evaluation" in res.reason

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
        res = checker.check_validity(FEq(L1, L2))
        assert res.kind is ValidityKind.UNKNOWN

    def test_process_failure_is_unknown(self):
        checker = ExternalSmtChecker(["/nonexistent/solver"])
        res = checker.check_validity(FEq(L1, L2))
        assert res.kind is ValidityKind.UNKNOWN

    def test_script_declares_and_negates(self, tmp_path):
        checker = ExternalSmtChecker(["true"])
        script = checker.script(FEq(L1, TConcat(TRev(L2), L2)))
        assert "(declare-const l1 (Seq Int))" in script
        assert "(assert (not (= l1 (seq.++ (seq.rev l2) l2))))" in script
        assert "define-fun-rec seq.rev" in script
        native = ExternalSmtChecker(["true"], native_reverse=True)
        assert "define-fun-rec" not in native.script(FEq(L1, TRev(L2)))

    def test_collection_atoms_are_not_sent(self):
        # the process is never started: `/nonexistent/solver` would say why
        checker = ExternalSmtChecker(["/nonexistent/solver"])
        n = TVar("n", Sort.INT)
        bag = TCollOf(L1, "multiset")
        for f in (
            FSubset(bag, TCollOf(L2, "multiset")),
            FImp(FEq(L1, L2), FEq(n, TCount(TInt(0), L1))),
            FNot(FEq(L1, TIte(FSubset(bag, bag), L2, L1))),
        ):
            res = checker.check_validity(f)
            assert res.kind is ValidityKind.UNKNOWN
            assert res.reason == "collection atoms are not encoded"

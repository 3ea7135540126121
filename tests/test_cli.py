import json
from pathlib import Path

import pytest

from stpchc.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def reva_csv(tmp_path):
    p = tmp_path / "reva.csv"
    p.write_text("ab,cd,bacd\nbc,da,cbda\n")
    return str(p)


class TestInferCommand:
    def test_reverse_inference(self, capsys, reva_csv):
        code, out, _ = run(capsys, "infer", reva_csv, "--reverse")
        assert code == 0
        assert out.strip() == "(x0, x1, x0^R x1)"

    def test_all_flag(self, capsys, tmp_path):
        p = tmp_path / "nondet.csv"
        p.write_text("aa,a,aac\nb,bb,bbd\n")
        code, out, _ = run(capsys, "infer", str(p), "--all")
        assert code == 0
        lines = out.strip().splitlines()
        assert "(x0, x1, x0 x2)" in lines
        assert "(x0, x1, x1 x2)" in lines

    def test_multiset_mode(self, capsys, tmp_path):
        p = tmp_path / "ms.csv"
        p.write_text("1.2,2.1\n3.4.5,4.3.5\n")
        code, out, _ = run(capsys, "infer", str(p), "--multiset")
        assert code == 0
        assert out.strip() == "(x0, x0)"

    def test_json(self, capsys, reva_csv):
        code, out, _ = run(capsys, "infer", reva_csv, "--reverse", "--json")
        assert code == 0
        assert json.loads(out) == {"patterns": ["(x0, x1, x0^R x1)"]}


class TestDecideCommand:
    def test_solvable_no(self, capsys):
        code, out, _ = run(capsys, "decide", "solvable", "(x x)")
        assert code == 0 and out.strip() == "no"

    def test_solvable_yes(self, capsys):
        code, out, _ = run(capsys, "decide", "solvable", "(x1x2, x2x1, x1)")
        assert code == 0 and out.strip() == "yes"

    def test_member(self, capsys):
        code, out, _ = run(
            capsys, "decide", "member", "ab,bcd,abcd", "(l1l2, l2l3, l1l2l3)"
        )
        assert code == 0 and out.strip() == "yes"
        code, out, _ = run(
            capsys, "decide", "member", "ab,d,abcd", "(l1l2, l2l3, l1l2l3)"
        )
        assert code == 0 and out.strip() == "no"

    def test_includes_and_equiv(self, capsys):
        code, out, _ = run(capsys, "decide", "includes", "(x, x)", "(x, y)")
        assert out.strip() == "yes"
        code, out, _ = run(capsys, "decide", "equiv", "(x, xy)", "(u, uv)")
        assert out.strip() == "yes"


class TestGenDataCommand:
    def test_worked_matrix(self, capsys):
        code, out, _ = run(capsys, "gen-data", "(a x1 x2, x3 b x2, x1 x2 x3)")
        assert code == 0
        assert out == "aaaab,babab,aaabba\nabbba,abbba,bbbaab\n"

    def test_round_trips_through_infer(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen-data", "(x, y, x^R y)")
        assert code == 0
        p = tmp_path / "gen.csv"
        p.write_text(out)
        code, out2, _ = run(capsys, "infer", str(p), "--reverse", "--postfix", "--constants")
        assert code == 0
        # identification promises language equality, not the same rendering
        code, out3, _ = run(capsys, "decide", "equiv", out2.strip(), "(x, y, x^R y)")
        assert code == 0 and out3.strip() == "yes"

    def test_unsolvable_rejected(self, capsys):
        code, _out, err = run(capsys, "gen-data", "(x x)")
        assert code == 2
        assert "solvable" in err


class TestSolveCommand:
    def test_reva_sat(self, capsys):
        code, out, _ = run(capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "list")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("sat")
        assert "define-fun reva" in out

    def test_unsat_exit_code(self, capsys):
        code, out, _ = run(capsys, "solve", str(BENCH / "unsat" / "direct_fact.smt2"))
        assert code == 1
        assert out.splitlines()[0] == "unsat"

    def test_json_single_object(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "list", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "sat"
        assert report["mode"] == "list"
        assert report["bounded"] is True
        assert "seconds" not in report  # only under --verbose

    def test_bounds_reach_multiset_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(BENCH / "sort.smt2"), "--mode", "multiset",
            "--bounds", "1,1", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "sat" and report["bounded"] is True
        assert report["bounds"] == {"max_list_len": 1, "max_elem": 1, "int_lo": 0, "int_hi": 5}

    def test_deterministic_output(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "list",
                "--seed", "7",
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_parse_error_reported(self, capsys, tmp_path):
        p = tmp_path / "bad.smt2"
        p.write_text("(assert (unknown-thing))")
        code, _out, err = run(capsys, "solve", str(p))
        assert code == 2
        assert "error" in err

    def test_deep_nesting_reported(self, capsys, tmp_path):
        # deeper than the interpreter's recursion limit: still a located
        # parse error, not a traceback with the exit code of unsat
        p = tmp_path / "deep.smt2"
        p.write_text("(assert " + "(" * 5000 + ")" * 5000 + ")\n")
        code, _out, err = run(capsys, "solve", str(p))
        assert code == 2
        assert err.startswith("error: ")
        assert "(line 1, column 9)" in err

    def test_bad_bounds_usage_error(self, capsys):
        code, _out, err = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--bounds", "nope"
        )
        assert code == 64
        assert "usage" in err

    @pytest.mark.parametrize("bounds", ["-1,2", "2,-1"])
    def test_negative_bounds_usage_error(self, capsys, bounds):
        code, out, err = run(
            capsys, "solve", str(BENCH / "reva.smt2"), f"--bounds={bounds}"
        )
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: bad --bounds")

    @pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "-0.5"])
    def test_bad_timeout_usage_error(self, capsys, timeout):
        code, out, err = run(
            capsys, "solve", str(BENCH / "reva.smt2"), f"--timeout={timeout}"
        )
        assert code == 64
        assert out == ""
        assert err.startswith("usage error: bad --timeout")

    def test_timeout_applies_to_a_single_mode(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(BENCH / "sort.smt2"), "--mode", "list-len",
            "--timeout", "0.2",
        )
        assert code == 2
        assert out.splitlines() == ["unknown", "; timeout"]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _out, err = run(capsys, "bogus")
        assert code == 64

    def test_missing_subcommand(self, capsys):
        code, _out, err = run(capsys)
        assert code == 64


class TestExternalSmtWiring:
    def test_external_valid_everywhere_gives_unbounded_sat(self, capsys, tmp_path):
        import sys as _sys

        stub = tmp_path / "always_unsat.py"
        stub.write_text("import sys\nsys.stdin.read()\nprint('unsat')\n")
        code, out, _ = run(
            capsys,
            "solve",
            str(BENCH / "reva.smt2"),
            "--mode",
            "list",
            "--smt-cmd",
            f"{_sys.executable} {stub}",
        )
        assert code == 0
        # plain validity from the external prover: no bounded qualifier
        assert out.splitlines()[0] == "sat"


class TestByteDeterminism:
    def test_same_seed_same_bytes_across_processes(self):
        import subprocess
        import sys as _sys

        cmd = [
            _sys.executable, "-m", "stpchc.cli", "solve",
            str(BENCH / "reva.smt2"), "--seed", "3",
        ]
        outs = [
            subprocess.run(cmd, capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0].startswith("sat")

    def test_unsat_instance_bytes(self):
        import subprocess
        import sys as _sys

        cmd = [
            _sys.executable, "-m", "stpchc.cli", "solve",
            str(BENCH / "unsat" / "plus_reach.smt2"), "--seed", "1",
        ]
        outs = [
            subprocess.run(cmd, capture_output=True, text=True).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "unsat"


class TestInferErrors:
    def test_duplicate_set_cell_reported(self, capsys, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("1.1,2\n")
        code, _out, err = run(capsys, "infer", str(p), "--set")
        assert code == 2
        assert "duplicate" in err


class TestSetModeSmoke:
    def test_set_mode_runs(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "set"
        )
        assert code == 2
        assert out.splitlines()[0] == "unknown"

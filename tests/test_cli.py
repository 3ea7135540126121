import json
from pathlib import Path

import pytest

from stpchc.cli import main

from helpers import assert_stopped

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


    @pytest.mark.parametrize("question, form, args", [
        ("solvable", "PATTERN", ["(x)", "(y)"]),
        ("member", "ROW PATTERN", ["a", "(x0)", "extra"]),
        ("includes", "PATTERN PATTERN", ["(x)"]),
        ("equiv", "PATTERN PATTERN", ["(x)", "(y)", "(z)"]),
    ])
    def test_wrong_argument_count_names_the_form(self, capsys, question, form, args):
        code, out, err = run(capsys, "decide", question, *args)
        assert code == 64 and out == ""
        assert err == f"usage error: decide {question} takes {form}\n"


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

    def test_zero_timeout_still_refutes_in_the_slice(self, capsys):
        # the refutation's first slice runs before the deadline is checked,
        # so a witness found there is printed whatever the timeout
        code, out, _ = run(
            capsys, "solve", str(BENCH / "unsat" / "direct_fact.smt2"), "--timeout", "0"
        )
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

    def test_model_printed_only_for_sat(self, capsys):
        # list mode's unknown verdict carries the model whose definite
        # clauses passed; it is not an answer, so it is not printed
        code, out, _ = run(capsys, "solve", str(BENCH / "take_drop.smt2"), "--mode", "list")
        assert code == 2
        assert out.splitlines() == ["unknown", "; patterns hold but do not imply the goals"]
        code, out, _ = run(
            capsys, "solve", str(BENCH / "take_drop.smt2"), "--mode", "list", "--json"
        )
        assert code == 2
        assert "model" not in json.loads(out)

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

    def test_bool_argument_rejected(self, capsys, tmp_path):
        # only Int and list arguments are solved; a Bool one is refused, not
        # enumerated as a list and printed as an Int
        p = tmp_path / "bool.smt2"
        p.write_text(
            "(set-logic HORN)\n"
            "(declare-fun p (Bool Int) Bool)\n"
            "(assert (forall ((b Bool)) (p b 0)))\n"
            "(assert (forall ((b Bool) (n Int)) (=> (and (p b n) (< n 3)) (p b (+ n 1)))))\n"
            "(assert (forall ((b Bool) (n Int)) (=> (and (p b n) (> n 5)) false)))\n"
        )
        code, out, err = run(capsys, "solve", str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: unsupported sort Bool (line 2, column 17)")

    LST = "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))\n"

    @pytest.mark.parametrize("clauses, message", [
        (
            "(declare-fun p (Lst) Bool)\n"
            "(assert (p nil))\n"
            "(declare-fun p (Lst Lst) Bool)\n"
            "(assert (forall ((l Lst) (m Lst)) (=> (p l m) false)))\n",
            "p redeclared with another signature (line 5, column 14)",
        ),
        (
            "(declare-fun p (Lst) Bool)\n"
            "(assert (forall ((n Int)) (p n)))\n"
            "(assert (forall ((l Lst)) (=> (p l) false)))\n",
            "ill-sorted term: expected List, got Int (line 4, column 30)",
        ),
        (
            "(declare-fun p (Lst) Bool)\n"
            "(assert (forall ((x Int) (x Lst)) (p x)))\n",
            "duplicate binder x (line 4, column 27)",
        ),
        (
            "(declare-fun p (Lst Int) Bool)\n"
            "(assert (forall ((l Lst)) (p l (+ l 1))))\n",
            "ill-sorted term: expected Int, got List (line 4, column 35)",
        ),
        (
            "(declare-fun p (Lst) Bool)\n"
            "(assert (forall ((l Lst)) (p (cons l nil))))\n",
            "ill-sorted term: expected Int, got List (line 4, column 36)",
        ),
    ], ids=["redeclared", "int-as-list", "duplicate-binder", "list-plus", "list-head"])
    def test_ill_sorted_input_rejected(self, capsys, tmp_path, clauses, message):
        # a located parse error, not a traceback or a verdict on what the
        # solver made of the input
        p = tmp_path / "ill_sorted.smt2"
        p.write_text("(set-logic HORN)\n" + self.LST + clauses)
        code, out, err = run(capsys, "solve", str(p))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("numeral", ["--5", "\u00b2"])
    def test_malformed_numeral_rejected(self, capsys, tmp_path, numeral):
        # a numeral is ASCII `-?[0-9]+`: anything else is a located parse
        # error, not a traceback with the exit code of unsat
        p = tmp_path / "numeral.smt2"
        p.write_text(
            "(set-logic HORN)\n(declare-fun p (Int) Bool)\n"
            f"(assert (forall ((x Int)) (=> (= x {numeral}) (p x))))\n"
        )
        code, out, err = run(capsys, "solve", str(p))
        assert (code, out, err) == (2, "", f"error: unknown symbol {numeral} (line 3, column 36)\n")

    @pytest.mark.parametrize("command", ["solve", "infer"])
    def test_non_utf8_input_rejected(self, capsys, tmp_path, command):
        p = tmp_path / "bytes.smt2"
        p.write_bytes(b"\xff(set-logic HORN)\n")
        code, out, err = run(capsys, command, str(p))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")

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

    def test_json_provider_of_a_bounded_sat(self, capsys, tmp_path):
        # the external prover answers nothing, so list mode gives up and
        # multiset mode, which checks with the bounded evaluator, wins
        import sys as _sys

        stub = tmp_path / "always_unknown.py"
        stub.write_text("import sys\nsys.stdin.read()\nprint('unknown')\n")
        code, out, _ = run(
            capsys, "solve", str(BENCH / "sort.smt2"), "--json",
            "--smt-cmd", f"{_sys.executable} {stub}",
        )
        report = json.loads(out)
        assert code == 0
        assert (report["mode"], report["bounded"], report["provider"]) == (
            "multiset", True, "bounded")

    def test_output_that_is_not_text_is_unknown(self, capsys, tmp_path):
        import sys as _sys

        stub = tmp_path / "not_text.py"
        stub.write_text("import sys\nsys.stdin.read()\nsys.stdout.buffer.write(b'\\xff\\n')\n")
        code, out, err = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "list",
            "--smt-cmd", f"{_sys.executable} {stub}",
        )
        assert code == 2
        assert out.splitlines()[0] == "unknown"
        assert "'utf-8' codec can't decode byte 0xff" in out
        assert "Traceback" not in err

    def test_command_split_as_a_shell_would(self, capsys):
        # quoted arguments stay whole: the stub answers unsat to every query
        code, out, _ = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "list",
            "--smt-cmd", "sh -c 'cat >/dev/null; echo unsat'",
        )
        assert code == 0
        assert out.splitlines()[0] == "sat"

    @pytest.mark.parametrize("flag", ["--smt-cmd", "--int-chc-cmd"])
    @pytest.mark.parametrize("command", ["sh -c 'cat", " "])
    def test_malformed_command_usage_error(self, capsys, flag, command):
        # an unbalanced quote, or no words at all
        code, out, err = run(capsys, "solve", str(BENCH / "reva.smt2"), flag, command)
        assert code == 64
        assert out == ""
        assert err.startswith(f"usage error: bad {flag}")

    def test_auto_timeout_kills_external_solver(self, capsys, tmp_path):
        import multiprocessing
        import time

        pids = tmp_path / "pids"
        stub = tmp_path / "slow_solver.sh"
        stub.write_text(f"#!/bin/sh\necho $$ >> {pids}\nexec sleep 30\n")
        stub.chmod(0o755)
        started = time.monotonic()
        code, out, _ = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--timeout", "0.3", "--smt-cmd", str(stub)
        )
        assert time.monotonic() - started < 0.3 + 0.7
        assert code == 2
        assert out.splitlines() == ["unknown", "; timeout"]
        assert multiprocessing.active_children() == []
        stubs = pids.read_text().split()
        assert stubs
        # killed with its process group by `ask`: gone, or a zombie not yet reaped
        assert_stopped(stubs)

    @pytest.mark.parametrize("system, options", [
        ("reva.smt2", ["--mode", "list", "--smt-cmd"]),
        # an integer system: list mode's loop has no list to sample or check,
        # so the integer backend starts some 10 ms in, whatever the bounds
        ("unsat/plus_reach.smt2", ["--mode", "list-len", "--int-chc-cmd"]),
    ])
    def test_single_mode_timeout_kills_external_solver(self, capsys, tmp_path, system, options):
        import multiprocessing
        import time

        pids = tmp_path / "pids"
        stub = tmp_path / "slow_solver.sh"
        stub.write_text(f"#!/bin/sh\necho $$ >> {pids}\nexec sleep 30\n")
        stub.chmod(0o755)
        started = time.monotonic()
        code, out, _ = run(
            capsys, "solve", str(BENCH / system), "--timeout", "0.3", *options, str(stub)
        )
        assert time.monotonic() - started < 0.3 + 0.7
        assert code == 2
        assert out.splitlines() == ["unknown", "; timeout"]
        assert multiprocessing.active_children() == []
        stubs = pids.read_text().split()
        assert stubs
        # killed with its process group by `ask`: gone, or a zombie not yet reaped
        assert_stopped(stubs)


class TestByteDeterminism:
    @staticmethod
    def solve_twice(path, seed):
        """The output of two `solve` processes on the package under test."""
        import os
        import subprocess
        import sys as _sys

        import stpchc

        src = str(Path(stpchc.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cmd = [_sys.executable, "-m", "stpchc.cli", "solve", str(path), "--seed", str(seed)]
        return [
            subprocess.run(cmd, capture_output=True, text=True, env=env).stdout
            for _ in range(2)
        ]

    def test_same_seed_same_bytes_across_processes(self):
        outs = self.solve_twice(BENCH / "reva.smt2", 3)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0].startswith("sat")

    def test_unsat_instance_bytes(self):
        outs = self.solve_twice(BENCH / "unsat" / "plus_reach.smt2", 1)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "unsat"


class TestInferErrors:
    def test_duplicate_set_cell_reported(self, capsys, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("1.1,2\n")
        code, _out, err = run(capsys, "infer", str(p), "--set")
        assert code == 2
        assert "duplicate" in err

    @pytest.mark.parametrize("cell", ["1.-2", "a.b", "1..2"])
    @pytest.mark.parametrize("options", [[], ["--constants"], ["--set"], ["--multiset"]])
    def test_bad_dotted_cell_reported(self, capsys, tmp_path, cell, options):
        # a dotted cell holds non-negative integer tokens, in every mode
        p = tmp_path / "bad.csv"
        p.write_text(f"{cell},3\n")
        code, out, err = run(capsys, "infer", str(p), *options)
        assert code == 2 and out == ""
        assert err == f"error: cell {cell!r}: dotted tokens are non-negative integers\n"

    def test_bad_dotted_cell_in_member_row(self, capsys):
        code, out, err = run(capsys, "decide", "member", "1.-2,3", "(x, y)")
        assert code == 64 and out == ""
        assert "cell '1.-2'" in err


class TestSetModeSmoke:
    def test_set_mode_runs(self, capsys):
        code, out, _ = run(
            capsys, "solve", str(BENCH / "reva.smt2"), "--mode", "set"
        )
        assert code == 2
        assert out.splitlines()[0] == "unknown"

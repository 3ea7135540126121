"""Print what `solve` answers on every bundled system, in every mode, at
seeds 0-2, and what `stp-chc infer` prints on a fixed set of CSV files: one
JSON line per run, for comparing two versions with `diff`.

    python tools/output_matrix.py SRC_DIR [FILE ...] > out.jsonl

`SRC_DIR` is the directory that holds the `stpchc` package to run (`src` of
a checkout).  The systems are FILEs, or else every `.smt2` file of
`benchmarks/`, `benchmarks/unsat/` and `perfbench/systems/` next to this
script.  Each solve line holds the system, mode and seed, then the verdict,
the mode that gave it, its reason and bounds, the model of a `sat`, the goal
and depth of an `unsat` derivation, and the verdict's stats.  Then each
`INFER_CSVS` file is inferred with every `INFER_OPTIONS` entry, in process;
each infer line holds the file, the options, the exit code, stdout and
stderr.  No timing is printed, so equal versions print equal bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)

# the CSV inputs of tests/test_cli.py, and one ragged matrix
INFER_CSVS = {
    "reva": "ab,cd,bacd\nbc,da,cbda\n",
    "nondet": "aa,a,aac\nb,bb,bbd\n",
    "multiset": "1.2,2.1\n3.4.5,4.3.5\n",
    "duplicate": "1.1,2\n",
    "negative-token": "1.-2,3\n",
    "letter-tokens": "a.b,3\n",
    "empty-token": "1..2,3\n",
    "identifying": "aaaab,babab,aaabba\nabbba,abbba,bbbaab\n",
    "ragged": "ab,c\nd\n",
}
INFER_OPTIONS = ([], ["--all"], ["--set"], ["--multiset"], ["--json"])


def bundled_systems() -> list[Path]:
    return [
        *sorted((ROOT / "benchmarks").glob("*.smt2")),
        *sorted((ROOT / "benchmarks" / "unsat").glob("*.smt2")),
        *sorted((ROOT / "perfbench" / "systems").glob("*.smt2")),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", help="the directory holding the stpchc package")
    parser.add_argument("files", nargs="*", type=Path, help="systems (default: the bundled ones)")
    ns = parser.parse_args(argv)
    sys.path.insert(0, str(Path(ns.src_dir).resolve()))
    from stpchc.chc_core import parse_smtlib
    from stpchc.solver import SolverConfig, VerdictKind, mode_registry, solve

    modes = ["auto", *mode_registry()]
    for path in ns.files or bundled_systems():
        system = parse_smtlib(path.read_text())
        name = path.resolve().relative_to(ROOT) if path.resolve().is_relative_to(ROOT) else path
        for mode in modes:
            for seed in SEEDS:
                verdict = solve(system, SolverConfig(seed=seed), mode=mode)
                sat = verdict.kind is VerdictKind.SAT
                derivation = verdict.derivation
                line = {
                    "system": str(name),
                    "mode": mode,
                    "seed": seed,
                    "verdict": verdict.kind.value,
                    "winner": verdict.mode,
                    "reason": verdict.reason,
                    "bounds": None if verdict.bounds is None else dataclasses.asdict(verdict.bounds),
                    "model": verdict.model.render() if sat else None,
                    "derivation": None if derivation is None
                    else {"goal": derivation.goal_index, "depth": derivation.depth},
                    "stats": verdict.stats,
                }
                print(json.dumps(line, sort_keys=True, default=repr), flush=True)
    infer_rows()
    return 0


def infer_rows() -> None:
    from stpchc.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INFER_CSVS.items():
            path = Path(tmp) / f"{name}.csv"
            path.write_text(text)
            for options in INFER_OPTIONS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli(["infer", str(path), *options])
                line = {"infer": name, "options": options, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()}
                print(json.dumps(line, sort_keys=True), flush=True)


if __name__ == "__main__":
    sys.exit(main())

"""Count the bounded checker's search nodes and time each mode, in process,
on every bundled sat system at seeds 0-2.

    python tools/search_nodes.py NAME=SRC_DIR [NAME=SRC_DIR ...] > BENCH_checker.json

Each `SRC_DIR` is the directory that holds the `stpchc` package to run (`src`
of a checkout), and `NAME` labels its report.  For each version, one child
process runs every mode's runner from `solver.mode_registry()` on each sat
system of `benchmarks/` and seed 0-2, and counts:

- `nodes`: calls of `smt_backend._search`, the search's node function,
  counted by wrapping the module attribute (its recursive calls go through
  it too);
- `queries`: calls of `BoundedChecker.counterexamples`;
- `element_order`: the queries with an order atom (`<` or `<=`) on a
  variable that is also the head of a `cons` (sort's `x <= y`);
- `reduced`, `element_order_reduced`: the queries, and the queries with an
  order on elements, whose search breaks element symmetry, read from
  `smt_backend._symmetry` where the version has it (absent otherwise).

Then every mode is timed unwrapped: one pass is each sat system at seeds
0-2, in a fresh child process per version and round, the versions
alternating within each of `--rounds` rounds (default 5); the report keeps
the min and median of the rounds.  Only the standard library is used, and
nothing in `src/` is changed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)


def sat_systems() -> list[Path]:
    return sorted((ROOT / "benchmarks").glob("*.smt2"))


def order_on_elements(f) -> bool:
    """Whether an order atom of `f` compares a variable that `f` also puts at
    the head of a `cons`."""
    heads, compared = set(), set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        if kind == "TCons" and type(node.head).__name__ == "TVar":
            heads.add(node.head.name)
        elif kind in ("FLe", "FLt"):
            compared.update(s.name for s in (node.a, node.b) if type(s).__name__ == "TVar")
        if dataclasses.is_dataclass(node):
            stack.extend(getattr(node, fl.name) for fl in dataclasses.fields(node))
        elif isinstance(node, tuple):
            stack.extend(node)
    return bool(heads & compared)


def _load(src_dir: str):
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from stpchc import smt_backend, solver
    from stpchc.chc_core import parse_smtlib

    systems = {p.stem: parse_smtlib(p.read_text()) for p in sat_systems()}
    return smt_backend, solver, systems


def counts(src_dir: str) -> dict:
    """Nodes, queries and reduced queries per system, mode and seed."""
    smt_backend, solver, systems = _load(src_dir)
    keys = ("nodes", "queries", "element_order", "reduced", "element_order_reduced")
    tally = dict.fromkeys(keys, 0)
    search = smt_backend._search
    counterexamples = smt_backend.BoundedChecker.counterexamples
    symmetry = getattr(smt_backend, "_symmetry", None)
    last = {"reduced": False}  # whether the latest query was reduced

    def counting_search(*args):
        tally["nodes"] += 1
        return search(*args)

    def counting_symmetry(*args):
        found = symmetry(*args)
        last["reduced"] = found is not None
        return found

    def counting_counterexamples(self, f, limit=1):
        last["reduced"] = False
        try:
            return counterexamples(self, f, limit)
        finally:
            ordered = order_on_elements(f)
            tally["queries"] += 1
            tally["element_order"] += ordered
            tally["reduced"] += last["reduced"]
            tally["element_order_reduced"] += ordered and last["reduced"]

    smt_backend._search = counting_search
    smt_backend.BoundedChecker.counterexamples = counting_counterexamples
    if symmetry is not None:
        smt_backend._symmetry = counting_symmetry

    out: dict = {}
    for name, system in systems.items():
        for mode, runner in solver.mode_registry().items():
            for seed in SEEDS:
                tally.update(dict.fromkeys(keys, 0))
                verdict = runner(system, solver.SolverConfig(seed=seed))
                row = {"verdict": verdict.kind.value, **tally}
                if symmetry is None:
                    del row["reduced"], row["element_order_reduced"]
                out.setdefault(name, {}).setdefault(mode, {})[str(seed)] = row
    return out


def time_once(src_dir: str) -> dict:
    """Seconds of one pass per mode: every sat system at every seed."""
    _, solver, systems = _load(src_dir)
    out = {}
    for mode, runner in solver.mode_registry().items():
        started = time.perf_counter()
        for system in systems.values():
            for seed in SEEDS:
                runner(system, solver.SolverConfig(seed=seed))
        out[mode] = time.perf_counter() - started
    return out


def _child(part: str, src_dir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--part", part, src_dir],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("versions", nargs="+", help="NAME=SRC_DIR, one per version")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--part", choices=("counts", "time"), help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.part:  # a child: one version, one part
        run = counts if ns.part == "counts" else time_once
        print(json.dumps(run(ns.versions[0])))
        return 0
    versions = dict(v.split("=", 1) for v in ns.versions)
    report = {name: {"counts": _child("counts", src)} for name, src in versions.items()}
    rounds: dict = {name: [] for name in versions}
    for _ in range(ns.rounds):
        for name, src in versions.items():
            rounds[name].append(_child("time", src))
    for name, times in rounds.items():
        report[name]["wall_s"] = {
            mode: {
                "min": round(min(t[mode] for t in times), 3),
                "median": round(statistics.median(t[mode] for t in times), 3),
            }
            for mode in times[0]
        }
        report[name]["nodes_total"] = {
            mode: sum(
                row["nodes"]
                for by_mode in report[name]["counts"].values()
                for row in by_mode[mode].values()
            )
            for mode in times[0]
        }
    print(json.dumps({
        "what": "bounded-checker search nodes per sat system, mode and seed; "
                "in-process wall time per mode (3 systems x seeds 0-2), "
                f"min and median of {ns.rounds} alternated rounds",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "versions": report,
    }, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

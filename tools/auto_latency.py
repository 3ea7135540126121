"""Time auto-mode solves in fresh processes and count what each one starts,
on every bundled system at solver seeds 1 and 2.

    python tools/auto_latency.py NAME=SRC_DIR [NAME=SRC_DIR ...] [--runs N] > BENCH_auto.json

Each `SRC_DIR` is the directory that holds the `stpchc` package to run (`src`
of a checkout), and `NAME` labels its report.  The systems are the `.smt2`
files of `benchmarks/`, `benchmarks/unsat/` and `perfbench/systems/` next to
this script.

Time: each solve, `solve(system, SolverConfig(seed=k), mode="auto")`, runs in
a fresh child process, timed from just before the call to its return (the
import and the parse are not timed).  For each system and seed the versions
alternate, `--runs` times (default 5), and the report keeps the min and the
median.

Counts: one child process per version runs every solve once, in process,
and records

- `processes`: the processes the solving process starts (calls of
  `os.fork` and of `_posixsubprocess.fork_exec`, which `subprocess` and
  `multiprocessing` start processes with), without a deadline, as the CLI
  solves by default;
- `processes_timeout`: the same for a solve with `timeout=30`;
- `refute_units_caller`: the units of refutation work the solving process
  does before its first mode starts, that is the slice; a unit is one join
  match of a refutation rule or one assignment of its free variables,
  counted by wrapping `solver.join` and `itertools.product` as `solver`
  sees them;
- `refute_units_after_modes`: the units done after that, in any process: the
  full refutation search, run again from the start once every mode returned
  `unknown`, or a refuter forked to run beside the modes;
- `sampler_candidates`: the draws `collect_samples` evaluates (calls of
  `eval_formula` inside it), in any process;
- `values_built`: the random values the sampler builds (calls of
  `chc_core._random_value`), in any process;
- `derive_expanded`: the atoms `derivable` works out rather than finds in
  its memo (calls of `chc_core._derive` whose key is not in the memo they
  are given), in any process;
- `search_nodes`: the bounded checker's search nodes (calls of
  `smt_backend._search`), in any process.

The last six are counted on the solve without a deadline; a forked
process adds to the shared counts too.  They are deterministic for a
version that runs its modes in order to the end; for a version that kills a
worker mid-run they count what the worker did before the kill.  Only the
standard library is used, and nothing in `src/` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def bundled_systems() -> list[Path]:
    return [
        *sorted((ROOT / "benchmarks").glob("*.smt2")),
        *sorted((ROOT / "benchmarks" / "unsat").glob("*.smt2")),
        *sorted((ROOT / "perfbench" / "systems").glob("*.smt2")),
    ]


def _label(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _load(src_dir: str):
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from stpchc import solver
    from stpchc.chc_core import parse_smtlib

    return solver, parse_smtlib


def time_once(src_dir: str, path: str, seed: int) -> dict:
    """One auto solve's verdict and seconds to verdict."""
    solver, parse_smtlib = _load(src_dir)
    system = parse_smtlib((ROOT / path).read_text())
    started = time.perf_counter()
    verdict = solver.solve(system, solver.SolverConfig(seed=seed), mode="auto")
    return {"verdict": verdict.kind.value, "verdict_s": time.perf_counter() - started}


def counts(src_dir: str) -> dict:
    """Processes started, refutation units and evaluated sampler draws per
    system and seed."""
    import _posixsubprocess
    import itertools
    import multiprocessing

    solver, parse_smtlib = _load(src_dir)
    from stpchc import chc_core, smt_backend

    shared = {key: multiprocessing.Value("q")
              for key in ("units", "candidates", "values", "expanded", "nodes")}
    local = {"processes": 0, "caller": 0, "modes": False, "sampling": False}
    solving = os.getpid()
    join, product = solver.join, itertools.product
    collect, evaluate = solver.collect_samples, chc_core.eval_formula
    random_value, derive, search = chc_core._random_value, chc_core._derive, smt_backend._search
    fork, fork_exec = os.fork, _posixsubprocess.fork_exec

    def bump(key):
        with shared[key].get_lock():
            shared[key].value += 1

    def unit():
        bump("units")
        if os.getpid() == solving and not local["modes"]:
            local["caller"] += 1

    def counting_join(*args, **kwargs):
        for match in join(*args, **kwargs):
            unit()
            yield match

    def counting_product(*args, **kwargs):
        for assignment in product(*args, **kwargs):
            unit()
            yield assignment

    def sampling(*args, **kwargs):
        local["sampling"] = True
        try:
            return collect(*args, **kwargs)
        finally:
            local["sampling"] = False

    def counting_eval(*args, **kwargs):
        if local["sampling"]:
            bump("candidates")
        return evaluate(*args, **kwargs)

    def counting_value(*args):
        bump("values")
        return random_value(*args)

    def counting_derive(system, budget, seen_ints, memo, pred, values, depth):
        if (pred, values, depth) not in memo:
            bump("expanded")
        return derive(system, budget, seen_ints, memo, pred, values, depth)

    def counting_search(*args):
        bump("nodes")
        return search(*args)

    def mode(runner):
        def started(*args, **kwargs):
            if os.getpid() == solving:
                local["modes"] = True
            return runner(*args, **kwargs)

        return started

    def counting_fork():
        local["processes"] += 1
        return fork()

    def counting_fork_exec(*args):
        local["processes"] += 1
        return fork_exec(*args)

    solver.join = counting_join
    solver.itertools = types.SimpleNamespace(**{**vars(itertools), "product": counting_product})
    solver.collect_samples = sampling
    chc_core.eval_formula = counting_eval
    chc_core._random_value, chc_core._derive = counting_value, counting_derive
    smt_backend._search = counting_search
    for name in ("solve_list_mode", "solve_collection_mode", "solve_list_len_mode"):
        setattr(solver, name, mode(getattr(solver, name)))
    os.fork, _posixsubprocess.fork_exec = counting_fork, counting_fork_exec

    out: dict = {}
    for path in bundled_systems():
        system = parse_smtlib(path.read_text())
        for seed in SEEDS:
            local["processes"] = 0
            solver.solve(system, solver.SolverConfig(seed=seed, timeout=30), mode="auto")
            with_timeout = local["processes"]
            local.update(processes=0, caller=0, modes=False)
            for value in shared.values():
                value.value = 0
            verdict = solver.solve(system, solver.SolverConfig(seed=seed), mode="auto")
            out.setdefault(_label(path), {})[str(seed)] = {
                "verdict": verdict.kind.value,
                "winner": verdict.mode,
                "processes": local["processes"],
                "processes_timeout": with_timeout,
                "refute_units_caller": local["caller"],
                "refute_units_after_modes": shared["units"].value - local["caller"],
                "sampler_candidates": shared["candidates"].value,
                "values_built": shared["values"].value,
                "derive_expanded": shared["expanded"].value,
                "search_nodes": shared["nodes"].value,
            }
    return out


def _child(*argv: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, *argv], capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("versions", nargs="+", help="NAME=SRC_DIR, one per version")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--part", help=argparse.SUPPRESS)  # a child: "counts" or "time:PATH:SEED"
    ns = parser.parse_args(argv)
    if ns.part == "counts":
        print(json.dumps(counts(ns.versions[0])))
        return 0
    if ns.part:
        _, path, seed = ns.part.split(":")
        print(json.dumps(time_once(ns.versions[0], path, int(seed))))
        return 0
    versions = dict(v.split("=", 1) for v in ns.versions)
    report = {name: {"counts": _child("--part", "counts", src)} for name, src in versions.items()}
    times: dict = {name: {} for name in versions}
    for run in range(ns.runs):
        for path in bundled_systems():
            for seed in SEEDS:
                order = list(versions.items())
                if run % 2:
                    order.reverse()
                for name, src in order:
                    got = _child("--part", f"time:{_label(path)}:{seed}", src)
                    want = report[name]["counts"][_label(path)][str(seed)]["verdict"]
                    if got["verdict"] != want:
                        raise SystemExit(f"{name} {path.name} seed {seed}: "
                                         f"verdict {got['verdict']}, {want} before")
                    times[name].setdefault(_label(path), {}).setdefault(str(seed), []).append(
                        got["verdict_s"])
    for name, by_path in times.items():
        report[name]["verdict_s"] = {
            path: {
                seed: {"min": round(min(ts), 4), "median": round(statistics.median(ts), 4)}
                for seed, ts in by_seed.items()
            }
            for path, by_seed in by_path.items()
        }
        rows = [
            (report[name]["counts"][path][seed], t)
            for path, by_seed in report[name]["verdict_s"].items()
            for seed, t in by_seed.items()
        ]
        report[name]["totals"] = {
            **{
                f"{answer}_median_s": round(sum(t["median"] for c, t in rows
                                                if c["verdict"] == answer), 4)
                for answer in ("sat", "unsat")
            },
            **{
                key: sum(c[key] for c, _ in rows)
                for key in ("processes", "processes_timeout", "refute_units_caller",
                            "refute_units_after_modes", "sampler_candidates",
                            "values_built", "derive_expanded", "search_nodes")
            },
        }
    print(json.dumps({
        "what": "auto-mode seconds to verdict per bundled system and solver seed, "
                f"min and median of {ns.runs} fresh processes per version, alternated; "
                "per solve, processes started without and with a timeout, refutation "
                "units before the first mode and after it, sampler draws evaluated, "
                "values built, atoms derivable expanded and checker search nodes",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "versions": report,
    }, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

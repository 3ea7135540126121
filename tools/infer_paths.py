"""Count the solving-path searches of perfbench's `infer` workload, digest
the patterns it infers, and time its passes, in process, for one or more
versions of `stpchc`.

    python tools/infer_paths.py NAME=SRC_DIR [NAME=SRC_DIR ...] [--rounds N] > BENCH_infer.json

Each `SRC_DIR` is the directory that holds the `stpchc` package to run (`src`
of a checkout), and `NAME` labels its report.  A pass is the workload's
pass: `perfbench/run.py`'s `infer_op` on every case of
`perfbench/patterns.py`'s `make_cases(seed, CASES)`, in order.

Counts: for each version, one child process per seed 0-2 builds the cases
and makes three passes, and records `find_path`, the search for a solving
path, counted by wrapping the module attribute `pattern_core.find_path`
(which `solving_path` looks up):

- `setup`: the searches made while the cases are built;
- `passes`: the searches made in each of the three passes;
- `calls`: the function calls of the third pass, Python and built-in,
  as cProfile counts them (the sum of its `ncalls`): the pass's work in a
  unit that does not depend on the machine or its load;
- `failed`: the operations of the three passes that failed a check;
- `patterns_sha256`: the SHA-256 of every pattern the three passes infer,
  mode and rendering one per line in inference order, caught by wrapping
  `stp_inference.infer` and `collection_inference.infer_collection` (the
  names perfbench calls).

Two runs give identical `find_path` counts and digests, and two versions
that infer the same patterns give the same digest.  `calls` is not exact
across runs: at seed 0 two runs of one version read 10,716,191 and
10,754,510 (0.4% apart), seeds 1 and 2 repeated exactly.

Time: each round runs, for every version, a fresh child process that builds
the cases of `--seed` (default 0), makes `--passes` passes (default 2) and
reports the wall time of each and its max RSS.  The versions alternate, and
their order flips every round; the report keeps the min and median over
`--rounds` rounds (default 10) per pass.  Only the standard library is used,
and nothing in `src/` or `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
COUNTED_PASSES = 3


def _import(src_dir: str):
    """The version's `pattern_core` and perfbench's `run` module."""
    sys.path[:0] = [str(Path(src_dir).resolve()), str(ROOT / "perfbench")]
    import run
    from stpchc import pattern_core

    return pattern_core, run


def _digest_inferred(digest) -> None:
    """Feed every pattern inferred from now on to `digest`."""
    from stpchc import collection_inference, stp_inference

    def digesting(infer):
        def wrapped(*args, **kwargs):
            t = infer(*args, **kwargs)
            digest.update(f"{t.mode.value} {t}\n".encode())
            return t

        return wrapped

    stp_inference.infer = digesting(stp_inference.infer)
    collection_inference.infer_collection = digesting(collection_inference.infer_collection)


def _cases(seed: int):
    import patterns

    return patterns.make_cases(seed, patterns.CASES)


def counts(src_dir: str, seed: int) -> dict:
    """`find_path` calls while building the cases and in each pass, the
    function calls of the last pass, and the digest of the patterns the
    passes infer."""
    pattern_core, run = _import(src_dir)
    calls = [0]
    find_path = pattern_core.find_path

    def counting_find_path(*args, **kwargs):
        calls[0] += 1
        return find_path(*args, **kwargs)

    pattern_core.find_path = counting_find_path
    cases = _cases(seed)
    out = {"setup": calls[0], "passes": []}
    digest = hashlib.sha256()
    _digest_inferred(digest)
    tally = run.Tally()
    profiler = cProfile.Profile()
    for k in range(COUNTED_PASSES):
        calls[0] = 0
        if k == COUNTED_PASSES - 1:
            profiler.enable()
        for case in cases:
            run.infer_op(case, tally)
        profiler.disable()
        out["passes"].append(calls[0])
    out["calls"] = pstats.Stats(profiler).total_calls
    out["failed"] = len(tally.failures)
    out["patterns_sha256"] = digest.hexdigest()
    return out


def time_passes(src_dir: str, seed: int, passes: int) -> dict:
    """Seconds of each pass, and the process's max RSS in MB."""
    _, run = _import(src_dir)
    cases = _cases(seed)
    tally = run.Tally()
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        for case in cases:
            run.infer_op(case, tally)
        times.append(time.perf_counter() - started)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"pass_s": times, "max_rss_mb": rss, "failed": len(tally.failures)}


def _child(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, *map(str, args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _summary(values) -> dict:
    return {"min": round(min(values), 3), "median": round(statistics.median(values), 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("versions", nargs="+", help="NAME=SRC_DIR, one per version")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", choices=("counts", "time"), help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.part:  # a child: one version, one part
        src = ns.versions[0]
        out = counts(src, ns.seed) if ns.part == "counts" else time_passes(src, ns.seed, ns.passes)
        print(json.dumps(out))
        return 0
    versions = dict(v.split("=", 1) for v in ns.versions)
    report = {
        name: {"counts": {str(seed): _child("--part", "counts", "--seed", seed, src)
                          for seed in SEEDS}}
        for name, src in versions.items()
    }
    runs: dict = {name: [] for name in versions}
    order = list(versions)
    for _ in range(ns.rounds):
        for name in order:
            runs[name].append(_child("--part", "time", "--seed", ns.seed,
                                     "--passes", ns.passes, versions[name]))
        order.reverse()
    for name, rows in runs.items():
        report[name]["pass_s"] = [
            _summary([row["pass_s"][k] for row in rows]) for k in range(ns.passes)
        ]
        report[name]["max_rss_mb"] = _summary([row["max_rss_mb"] for row in rows])
        report[name]["timed_failed"] = sum(row["failed"] for row in rows)
    print(json.dumps({
        "what": "find_path calls (solving-path searches) while perfbench's infer cases "
                "are built and in each of three passes, the function calls (cProfile "
                "ncalls) of the third pass, and the SHA-256 of the patterns "
                "those passes infer, seeds 0-2; in-process wall "
                f"time of passes 1-{ns.passes} at seed {ns.seed} and max RSS, "
                f"min and median of {ns.rounds} alternated rounds",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "versions": report,
    }, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

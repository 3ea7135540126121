"""One operation of the benchmark in a fresh process.

    child.py solve FILE --seed N --spawned-at T [--trace]
    child.py setup --workload refute|infer --seed N --spawned-at T

`solve` does what `stp-chc solve FILE --seed N` does,
`solve(parse_smtlib(text), SolverConfig(seed=N), mode="auto")`, and prints one
JSON line: set-up time (from `T`, the parent's monotonic clock just before it
started this process, to `stpchc` imported and the file parsed), time to
verdict, the verdict, a digest of the rendered model and whether an unsat
derivation replays.  With `--trace` it also prints the per-layer counters and
span times, and what the solve left running after it returned.

`setup` imports `stpchc`, builds the inputs of an in-process workload and
prints its set-up time the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from pathlib import Path

from common import SetupError, import_program, systems

# Window after `solve` returns in which the process's CPU time is taken: a
# worker still running after the return shows up as CPU time here.
AFTER_RETURN_WINDOW_S = 0.25


def _solve(args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_probes(tracer)
    from stpchc import chc_core, solver

    system = chc_core.parse_smtlib(Path(args.file).read_text())
    out: dict = {"setup_s": time.monotonic() - args.spawned_at}
    started = time.perf_counter()
    verdict = solver.solve(system, solver.SolverConfig(seed=args.seed), mode="auto")
    returned = time.perf_counter()
    out["verdict_s"] = returned - started
    if tracer is not None:
        out["threads_alive"] = threading.active_count() - 1
        counts = tracer.counts_by_role()
        spans = tracer.spans()
        cpu = time.process_time()
        time.sleep(AFTER_RETURN_WINDOW_S)
        out["cpu_after_return_s"] = time.process_time() - cpu
        witness = [t for kind, t in tracer.events if kind == "witness" and t <= returned]
        out["cancel_wait_s"] = returned - witness[0] if witness else 0.0
        out["counts"] = {role: dict(c) for role, c in counts.items()}
        out["spans"] = tracing.span_times(spans)
    out["verdict"] = verdict.kind.value
    out["mode"] = verdict.mode
    if verdict.model is not None:
        out["digest"] = hashlib.sha256(verdict.model.render().encode()).hexdigest()
    if verdict.derivation is not None:
        out["replayed"] = solver.replay_derivation(system, verdict.derivation)
    return out


def _setup(args) -> dict:
    from stpchc import chc_core

    if args.workload == "refute":
        for s in systems():
            chc_core.parse_smtlib(s.read())
    else:
        import patterns

        patterns.make_cases(args.seed, patterns.CASES)
    return {"setup_s": time.monotonic() - args.spawned_at}


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve")
    p_solve.add_argument("file")
    p_solve.add_argument("--seed", type=int, required=True)
    p_solve.add_argument("--spawned-at", type=float, required=True)
    p_solve.add_argument("--trace", action="store_true")
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", choices=["refute", "infer"], required=True)
    p_setup.add_argument("--seed", type=int, required=True)
    p_setup.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    try:
        import_program()
    except (SetupError, ImportError) as exc:
        print(f"child: {exc}", file=sys.stderr)
        return 2
    if args.command == "setup":
        out = _setup(args)
    else:
        try:
            out = _solve(args)
        except Exception as exc:  # reported to the driver as a failed operation
            out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

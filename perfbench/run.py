"""The stpchc benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload is a closed loop with one
client and one operation at a time; README.md says why each exists.

    solve-auto   `stp-chc solve FILE --seed N` on every system, each solve in
                 a fresh process
    refute       `refute(system, RefuteBudget())` on every system, in-process
    infer        sequence and collection inference on seeded solvable
                 patterns, in-process

With `--trace 0` the run measures for S seconds and reports the end-to-end
metrics; with `--trace 1` it makes one untraced pass and two traced passes
over the workload's inputs and reports the per-layer metrics, the tracing
overhead, and how many counters differed between the two traced passes.
Earlier lines of output are diagnostics: one row per instance.  The last
line is the JSON result.  Exit code 2 means the checkout lacks the program
or its inputs.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from common import (
    BENCH_DIR, ROOT, SOLVER_SEEDS, SORT_SEEDS, UNSAT_SEEDS, SetupError, import_program, systems,
)

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


class NoResult(Exception):
    """No operation of the run succeeded, so there is nothing to measure."""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return problem is None


def spawn(argv: list[str]) -> tuple[dict | None, float, str]:
    """Run child.py with `argv`; its JSON line, wall time and stderr."""
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), *argv, "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - started, f"no result within {CHILD_TIMEOUT_S} s"
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return json.loads(lines[-1]), wall, ""


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def timed_passes(n: int, op, args) -> list[list]:
    """Shuffled passes over range(n), calling op(k), until every k ran once
    and `args.seconds` have passed.  For each k, the results of op(k) that
    were not None."""
    rng = random.Random(args.seed)
    samples: list[list] = [[] for _ in range(n)]
    tried: set[int] = set()
    deadline = time.monotonic() + args.seconds
    while len(tried) < n or time.monotonic() < deadline:
        order = list(range(n))
        rng.shuffle(order)
        for k in order:
            if len(tried) == n and time.monotonic() >= deadline:
                break
            result = op(k)
            tried.add(k)
            if result is not None:
                samples[k].append(result)
    return samples


def median_setup(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes that import the program and
    build this in-process workload's inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        out, _wall, err = spawn(["setup", "--workload", workload, "--seed", str(seed)])
        if out is None:
            raise NoResult(f"set-up probe failed: {err}")
        times.append(out["setup_s"])
    return statistics.median(times)


# ---------------------------------------------------------------------------
# solve-auto: one fresh process per solve

# Which thread's counts repeat: on sat systems the modes thread runs to its
# verdict and refute is cut off when it lands; on unsat systems refute runs
# to its witness and the modes thread is cut off.
STEADY_ROLES = {"sat": ("main", "modes"), "unsat": ("main", "refute")}

def solve_once(system, seed: int, trace: bool, tally: Tally) -> dict | None:
    argv = ["solve", str(system.path), "--seed", str(seed)] + (["--trace"] if trace else [])
    out, wall, err = spawn(argv)
    if out is None:
        problem = err
    elif "error" in out:
        problem = out["error"]
    elif out["verdict"] != system.answer:
        problem = f"verdict {out['verdict']}, known answer {system.answer}"
    elif system.answer == "unsat" and not out.get("replayed"):
        problem = "unsat derivation does not replay"
    else:
        problem = None
    if not tally.record(f"{system.name} seed={seed}", problem):
        return None
    out["op_s"] = wall
    return out


def solve_instances(seed: int):
    """(system, solver seed) pairs of one pass."""
    rng = random.Random(seed)
    out = []
    for s in systems():
        if s.answer == "unsat":
            seeds = UNSAT_SEEDS
        elif s.name == "sort":
            seeds = SORT_SEEDS
        else:
            seeds = (rng.choice(SOLVER_SEEDS),)
        out += [(s, k) for k in seeds]
    return out


def solve_pass(instances, order, trace: bool, tally: Tally) -> dict:
    return {k: solve_once(*instances[k], trace, tally) for k in order}


def solve_report(instances, samples: dict[int, list[dict]]) -> None:
    digests = json.loads((BENCH_DIR / "models.json").read_text())
    changed = 0
    for k, (system, seed) in enumerate(instances):
        got = samples[k]
        row = f"  {system.name:18} seed={seed} solves={len(got)}"
        if got:
            first = got[0]
            row += (
                f" verdict={first['verdict']} mode={first['mode']}"
                f" verdict_s={statistics.median(o['verdict_s'] for o in got):.3f}"
                f" setup_s={statistics.median(o['setup_s'] for o in got):.3f}"
            )
            if system.answer == "sat":
                same = all(o.get("digest") == digests.get(system.name) for o in got)
                changed += not same
                row += " model=" + ("unchanged" if same else "CHANGED")
        print(row)
    print(f"models_changed = {changed} (against perfbench/models.json)")


def run_solve(args, tally: Tally) -> dict:
    instances = solve_instances(args.seed)
    samples = timed_passes(len(instances), lambda k: solve_once(*instances[k], False, tally), args)
    solve_report(instances, samples)
    done = [samples[k] for k in range(len(instances)) if samples[k]]
    if not done:
        raise NoResult("no solve succeeded")
    verdict_s = {k: statistics.median(o["verdict_s"] for o in got)
                 for k, got in enumerate(samples) if got}
    for answer in ("sat", "unsat"):
        part = [t for k, t in verdict_s.items() if instances[k][0].answer == answer]
        print(f"{answer}_s = {sum(part):.3f} s (time to verdict, summed over {len(part)} {answer} solves)")
    return {
        "setup_s": statistics.median(o["setup_s"] for got in done for o in got),
        "pass_s": sum(verdict_s.values()),
        "ops_per_s": len(done) / sum(statistics.median(o["op_s"] for o in got) for got in done),
        "peak_rss_mb": peak_rss_mb(),
    }


def trace_solve(args, tally: Tally) -> dict:
    instances = solve_instances(args.seed)
    order = list(range(len(instances)))
    random.Random(args.seed).shuffle(order)
    untraced = solve_pass(instances, order, False, tally)
    first = solve_pass(instances, order, True, tally)
    second = solve_pass(instances, order, True, tally)
    solve_report(instances, {k: [out] if out else [] for k, out in first.items()})
    mismatches = 0
    groups: dict[str, Counter] = defaultdict(Counter)
    steady = set()
    spans: dict = defaultdict(lambda: {"cpu_s": 0.0, "self_cpu_s": 0.0})
    extra = Counter()
    for k in order:
        if first[k] is None:
            continue
        system, seed = instances[k]
        roles = STEADY_ROLES[system.answer]
        if second[k] is not None:
            for role in roles:
                mismatches += differing(first[k]["counts"].get(role, {}),
                                        second[k]["counts"].get(role, {}),
                                        f"{system.name} seed={seed} {role} ")
        for role, c in first[k]["counts"].items():
            group = f"{system.answer} systems, {role} thread"
            groups[group].update(c)
            if role in roles:
                steady.add(group)
        for name, t in first[k]["spans"].items():
            spans[name]["cpu_s"] += t["cpu_s"]
            spans[name]["self_cpu_s"] += t["self_cpu_s"]
        extra["solver.auto.cancel_wait_s"] += first[k]["cancel_wait_s"]
        extra["solver.auto.threads_alive_after_return"] += first[k]["threads_alive"]
        extra["solver.auto.cpu_after_return_s"] += first[k]["cpu_after_return_s"]
    print_counters(groups, steady)
    plain = sum(o["verdict_s"] for o in untraced.values() if o)
    traced = sum(o["verdict_s"] for o in first.values() if o)
    if not plain:
        raise NoResult("no untraced solve succeeded")
    counts = sum(groups.values(), Counter())
    return layer_metrics(counts, spans, extra, traced / plain - 1.0, mismatches)


# ---------------------------------------------------------------------------
# refute and infer: in-process passes over fixed inputs

def refute_inputs(seed: int):
    from stpchc import chc_core

    return [(s, chc_core.parse_smtlib(s.read())) for s in systems()]


def refute_op(item, tally: Tally) -> float | None:
    from stpchc import solver

    system, parsed = item
    started = time.perf_counter()
    try:
        witness = solver.refute(parsed, solver.RefuteBudget())
        elapsed = time.perf_counter() - started
        if system.answer == "sat":
            problem = None if witness is None else "refuted a sat system"
        elif witness is None:
            problem = "no derivation of false within the budget"
        elif not solver.replay_derivation(parsed, witness):
            problem = "derivation does not replay"
        else:
            problem = None
    except Exception as exc:
        problem = f"{type(exc).__name__}: {exc}"
    return elapsed if tally.record(system.name, problem) else None


def infer_inputs(seed: int):
    import patterns

    return patterns.make_cases(seed, patterns.CASES)


def _infer_jobs(case):
    """The case's four inferences, each returning a problem or None."""
    from stpchc import collection_inference as ci
    from stpchc import pattern_core as pc
    from stpchc import stp_inference as si
    from stpchc.data import LearningData

    t = case.pattern
    cfg = si.InferConfig(constants=case.rules.constants, postfix=True, reverse=case.rules.reverse)

    def identify():
        data = pc.canonical_data(t)
        got = si.infer(data, si.InferConfig(constants=True, postfix=True, reverse=t.has_reverse()))
        return None if pc.equivalent(got, t) else f"identifying data inferred {got}"

    def from_rows():
        got = si.infer(LearningData(case.rows), cfg)
        bad = next((r for r in case.rows if not pc.member(r, got)), None)
        return None if bad is None else f"inferred {got} misses row {bad}"

    def collection(mode):
        def job():
            cells = [[set(c) if mode is pc.Mode.SET else c for c in row] for row in case.rows]
            data = ci.CollectionData(cells, mode)
            got = ci.infer_collection(data, cfg)
            bad = next((r for r in data.rows if not ci.collection_member(r, got)), None)
            return None if bad is None else f"{mode.value} inferred {got} misses row {bad}"

        return job

    return [("identify", identify), ("rows", from_rows),
            ("set", collection(pc.Mode.SET)), ("multiset", collection(pc.Mode.MULTISET))]


def infer_op(case, tally: Tally) -> float | None:
    elapsed = 0.0
    ok = True
    for label, job in _infer_jobs(case):
        started = time.perf_counter()
        try:
            problem = job()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - started
        ok = tally.record(f"{label} {case.pattern}", problem) and ok
    return elapsed if ok else None


IN_PROCESS = {
    "refute": (refute_inputs, refute_op, 1),
    "infer": (infer_inputs, infer_op, 4),
}


def run_in_process(workload: str, args, tally: Tally) -> dict:
    make_inputs, op, ops_per_item = IN_PROCESS[workload]
    setup_s = median_setup(workload, args.seed)
    items = make_inputs(args.seed)
    samples = timed_passes(len(items), lambda k: op(items[k], tally), args)
    medians = [statistics.median(s) for s in samples if s]
    if not medians:
        raise NoResult(f"no {workload} operation succeeded")
    values = {
        "setup_s": setup_s,
        "pass_s": sum(medians),
        "ops_per_s": ops_per_item * len(medians) / sum(medians),
        "peak_rss_mb": peak_rss_mb(),
    }
    if workload == "refute":
        for (system, _), s in zip(items, samples):
            median = f"{statistics.median(s):.3f}" if s else "-"
            print(f"  {system.name:18} {system.answer:5} calls={len(s)} refute_s={median}")
        print(f"refute_s = {values['pass_s']:.3f} s (refute time, summed over {len(medians)} systems)")
    else:
        print(f"  {len(items)} cases x 4 patterns, {min(len(s) for s in samples)}+ passes")
        print(f"infer_ops_per_s = {values['ops_per_s']:.1f} patterns/s")
    return values


def trace_in_process(workload: str, args, tally: Tally) -> dict:
    import tracing

    make_inputs, op, _ = IN_PROCESS[workload]

    def one_pass(tracer):
        if tracer is not None:
            tracing.install_probes(tracer)
        try:
            items = make_inputs(args.seed)
            random.Random(args.seed).shuffle(items)
            started = time.perf_counter()
            for item in items:
                op(item, tally)
            return time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()

    plain = one_pass(None)
    first, second = tracing.Tracer(), tracing.Tracer()
    traced = one_pass(first)
    one_pass(second)
    a = first.counts_by_role().get("main", Counter())
    mismatches = differing(a, second.counts_by_role().get("main", Counter()), "")
    print_counters({"main thread": a}, {"main thread"})
    spans = tracing.span_times(first.spans())
    return layer_metrics(a, spans, Counter(), traced / plain - 1.0, mismatches)


# ---------------------------------------------------------------------------
# per-layer metrics

def differing(a: dict, b: dict, label: str) -> int:
    """Print and count the counters that differ between two traced passes."""
    diff = sorted(key for key in set(a) | set(b) if a.get(key) != b.get(key))
    for key in diff:
        print(f"  counter differs: {label}{key}: {a.get(key)} vs {b.get(key)}")
    return len(diff)


def print_counters(groups: dict, steady: set) -> None:
    for label, c in sorted(groups.items()):
        note = "" if label in steady else "  (depends on thread timing; not compared)"
        print(f"  {label} counters{note}:")
        for key, value in sorted(c.items()):
            print(f"    {key} = {value}")


def layer_metrics(counts, spans, extra, overhead: float, mismatches: int) -> dict:
    def calls(name):
        return counts.get(name + ".calls", 0)

    def cpu(name):
        return spans.get(name, {}).get("cpu_s", 0.0)

    def frac(part, whole):
        return counts.get(part, 0) / calls(whole) if calls(whole) else 0.0

    print("  span                                      calls      cpu_s  self_cpu_s")
    for name, t in sorted(spans.items()):
        print(f"  {name:40} {calls(name):6} {t['cpu_s']:10.3f} {t['self_cpu_s']:11.3f}")
    out = {}
    for mode in ("list", "set", "multiset", "list-len"):
        out[f"solver.mode.{mode}.cpu_s"] = cpu(f"solver.mode.{mode}")
        out[f"solver.mode.{mode}.attempts"] = calls(f"solver.mode.{mode}")
    out["solver.refute.cpu_s"] = cpu("solver.refute")
    for key in ("cancel_wait_s", "threads_alive_after_return", "cpu_after_return_s"):
        out[f"solver.auto.{key}"] = extra.get(f"solver.auto.{key}", 0)
    out["solver.length_abstract.cpu_s"] = cpu("solver.length_abstract")
    out["solver.BuiltinIntChc.solve.cpu_s"] = cpu("solver.BuiltinIntChc.solve")
    out["solver.admit_counterexamples.calls"] = calls("solver.admit_counterexamples")
    for key in ("accepted", "rejected"):
        out[f"solver.admit_counterexamples.{key}"] = counts.get(f"solver.admit_counterexamples.{key}", 0)
    out["smt_backend.counterexamples.calls"] = calls("smt_backend.counterexamples")
    out["smt_backend.counterexamples.cpu_s"] = cpu("smt_backend.counterexamples")
    out["smt_backend.counterexamples.cex_frac"] = frac(
        "smt_backend.counterexamples.hits", "smt_backend.counterexamples")
    for key in ("smt_backend.eval_term.calls", "smt_backend.eval_formula.calls",
                "chc_core.match_term.solver_calls", "chc_core.match_term.chc_core_calls",
                "formulas.eval_formula.solver_calls", "formulas.eval_term.solver_calls",
                "chc_core.collect_samples.samples"):
        out[key] = counts.get(key, 0)
    out["chc_core.parse_smtlib.cpu_s"] = cpu("chc_core.parse_smtlib")
    for name in ("chc_core.collect_samples", "chc_core.derivable",
                 "stp_inference.infer", "collection_inference.infer_collection",
                 "collection_inference.collection_member"):
        out[name + ".calls"] = calls(name)
        out[name + ".cpu_s"] = cpu(name)
    out["chc_core.derivable.true_frac"] = frac("chc_core.derivable.true", "chc_core.derivable")
    for fn in ("canonical_data", "member", "includes", "equivalent"):
        out[f"pattern_core.{fn}.cpu_s"] = cpu(f"pattern_core.{fn}")
    out["pattern_core.member.calls"] = calls("pattern_core.member")
    out["trace.overhead_frac"] = overhead
    out["trace.counter_mismatches"] = mismatches
    print(f"tracing overhead = {overhead:.1%} of untraced time; counters differing "
          f"between the two traced passes = {mismatches}")
    return out


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve-auto", "refute", "infer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_program()
        systems()
    except (OSError, ValueError, SetupError, ImportError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    tally = Tally()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        if args.workload == "solve-auto":
            values = (trace_solve if args.trace else run_solve)(args, tally)
        else:
            values = (trace_in_process if args.trace else run_in_process)(args.workload, args, tally)
    except NoResult as exc:
        values = None
        print(f"perfbench: {exc}", file=sys.stderr)
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    if values is None:
        return 1
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

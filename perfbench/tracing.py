"""Spans and counters taken from outside the program.

Every probe wraps one public function of `stpchc` and is installed at the
name its caller looks up: a module attribute (for example
`stpchc.solver.match_term`, which `refute` resolves in `solver`) or a class
attribute (`BoundedChecker.counterexamples`).  No file of the program changes,
and `Tracer.uninstall` puts every original back.

Each thread keeps its own counters and spans, so a count never loses an
update to the other thread.  A thread is labelled by the first role probe it
enters: in auto mode the thread that calls `refute` is `refute`, the thread
that runs the modes is `modes`.  Spans record name, span id, parent span,
thread, wall start and end, and per-thread CPU time from `time.thread_time()`:
auto mode runs two CPU-bound threads under one interpreter lock, so wall time
would count the same seconds twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field


@dataclass
class _ThreadLog:
    role: str
    counts: Counter = field(default_factory=Counter)
    spans: list = field(default_factory=list)  # (id, parent, name, thread, start, end, cpu)
    stack: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._installed: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self.events: list[tuple[str, float]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            main = threading.current_thread() is threading.main_thread()
            log = _ThreadLog("main" if main else "worker")
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def _install(self, owner, attr: str, probe) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, probe)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def span(self, owner, attr: str, name, role: str | None = None, on_result=None) -> None:
        """Record a span and count a call each time `owner.attr` is called.
        `name` is a string or a function of the call's arguments;
        `on_result(counts, result)` adds counters from the return value."""
        original = getattr(owner, attr)
        tracer = self

        def probe(*args, **kwargs):
            log = tracer._log()
            if role is not None and log.role == "worker":
                log.role = role
            label = name if isinstance(name, str) else name(args, kwargs)
            span_id = next(tracer._ids)
            parent = log.stack[-1] if log.stack else 0
            log.stack.append(span_id)
            log.counts[label + ".calls"] += 1
            start = time.perf_counter()
            cpu = time.thread_time()
            try:
                result = original(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                log.stack.pop()
                log.spans.append(
                    (span_id, parent, label, threading.get_ident(), start, time.perf_counter(), cpu)
                )
            if on_result is not None:
                on_result(log.counts, result)
            return result

        self._install(owner, attr, probe)

    def count(self, owner, attr: str, key: str) -> None:
        """Count calls of `owner.attr` under `key`, with no span: for
        functions called millions of times."""
        original = getattr(owner, attr)
        local = self._local
        tracer = self

        def probe(*args, **kwargs):
            log = getattr(local, "log", None) or tracer._log()
            log.counts[key] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, probe)

    def counts_by_role(self) -> dict[str, Counter]:
        with self._lock:
            logs = list(self._logs)
        out: dict[str, Counter] = defaultdict(Counter)
        for log in logs:
            out[log.role].update(dict(log.counts))
        return dict(out)

    def spans(self) -> list[tuple]:
        with self._lock:
            logs = list(self._logs)
        return [s for log in logs for s in list(log.spans)]


def span_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: inclusive CPU seconds and self CPU seconds, where self
    time is the span's CPU time minus that of its child spans."""
    child_cpu: Counter = Counter()
    for _id, parent, _name, _thread, _start, _end, cpu in spans:
        if parent:
            child_cpu[parent] += cpu
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"cpu_s": 0.0, "self_cpu_s": 0.0})
    for span_id, _parent, name, _thread, _start, _end, cpu in spans:
        out[name]["cpu_s"] += cpu
        out[name]["self_cpu_s"] += cpu - child_cpu[span_id]
    return dict(out)


def _mode_name(args, kwargs) -> str:
    from stpchc.pattern_core import Mode

    mode = args[2] if len(args) > 2 else kwargs.get("mode", Mode.MULTISET)
    return "solver.mode.set" if mode is Mode.SET else "solver.mode.multiset"


def _add(key: str, measure):
    def on_result(counts, result):
        counts[key] += measure(result)

    return on_result


def install_probes(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are taken from."""
    from stpchc import chc_core, collection_inference, pattern_core, smt_backend, solver, stp_inference

    # solver: modes, scheduler, refutation, length abstraction, integer CHC
    tracer.span(solver, "solve_auto", "solver.solve_auto")
    tracer.span(solver, "solve_list_mode", "solver.mode.list", role="modes")
    tracer.span(solver, "solve_collection_mode", _mode_name, role="modes")
    tracer.span(solver, "solve_list_len_mode", "solver.mode.list-len", role="modes")

    def witness_at(counts, result):
        if result is not None:
            tracer.events.append(("witness", time.perf_counter()))

    tracer.span(solver, "refute", "solver.refute", role="refute", on_result=witness_at)
    tracer.span(solver, "length_abstract", "solver.length_abstract")
    tracer.span(solver.BuiltinIntChc, "solve", "solver.BuiltinIntChc.solve")

    def admitted(counts, result):
        new, rejected = result
        counts["solver.admit_counterexamples.accepted"] += len(new)
        counts["solver.admit_counterexamples.rejected"] += rejected

    tracer.span(solver, "admit_counterexamples", "solver.admit_counterexamples", on_result=admitted)

    # chc_core, as resolved by its callers in solver
    tracer.span(solver, "collect_samples", "chc_core.collect_samples",
                on_result=_add("chc_core.collect_samples.samples", len))
    tracer.span(solver, "derivable", "chc_core.derivable",
                on_result=_add("chc_core.derivable.true", bool))
    tracer.count(solver, "match_term", "chc_core.match_term.solver_calls")
    # sampling, derivable and match_term's own recursion resolve it in chc_core
    tracer.count(chc_core, "match_term", "chc_core.match_term.chc_core_calls")
    tracer.span(chc_core, "parse_smtlib", "chc_core.parse_smtlib")

    # formulas, as resolved in solver (refutation joins and goal matching)
    tracer.count(solver, "eval_formula", "formulas.eval_formula.solver_calls")
    tracer.count(solver, "eval_term", "formulas.eval_term.solver_calls")

    # smt_backend: the bounded checker and its term evaluations
    tracer.span(smt_backend.BoundedChecker, "counterexamples", "smt_backend.counterexamples",
                on_result=_add("smt_backend.counterexamples.hits", bool))
    tracer.count(smt_backend, "eval_term", "smt_backend.eval_term.calls")
    tracer.count(smt_backend, "eval_formula", "smt_backend.eval_formula.calls")

    # the learners, called from solver and from the infer workload
    for owner in (solver, stp_inference):
        tracer.span(owner, "infer", "stp_inference.infer")
    for owner in (solver, collection_inference):
        tracer.span(owner, "infer_collection", "collection_inference.infer_collection")
    tracer.span(collection_inference, "collection_member", "collection_inference.collection_member")

    # decision procedures and identifying data
    for fn in ("canonical_data", "member", "includes", "equivalent"):
        tracer.span(pattern_core, fn, "pattern_core." + fn)

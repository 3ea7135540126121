"""The benchmark's probes wrap program functions by name (`perfbench/
tracing.py`), so renaming or moving one of them breaks `--trace 1`.  This
installs every probe and takes them out again."""

import importlib.util
import sys
from pathlib import Path

from stpchc import chc_core, smt_backend, solver

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_probe_finds_its_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    originals = (solver.refute, chc_core.match_term, smt_backend.BoundedChecker.counterexamples)
    tracer = tracing.Tracer()
    try:
        tracing.install_probes(tracer)
        assert solver.refute is not originals[0]
    finally:
        tracer.uninstall()
    assert (solver.refute, chc_core.match_term,
            smt_backend.BoundedChecker.counterexamples) == originals

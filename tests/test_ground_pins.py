"""Pinned results of the ground derivations: the exact refutation witness
(or None) of every bundled system, and digests of the least-model samples
drawn on the sat systems.  Any change to how atoms are joined, ordered or
sampled shows up here."""

import hashlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from stpchc.chc_core import collect_samples, parse_smtlib
from stpchc.solver import SolverConfig, refute

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


REFUTE_PINS = {
    "reva": None,
    "sort": None,
    "take_drop": None,
    "unsat/append_pair": "ac642caaec2b8a0e",
    "unsat/direct_fact": "042ef05b8d960d30",
    "unsat/even_list": "4b0f732429a69302",
    "unsat/plus_reach": "54bd1567464b37cd",
    "unsat/two_preds": "2462c1d8c16531b4",
}


@pytest.mark.parametrize("name", sorted(REFUTE_PINS))
def test_refute_result_pinned(name):
    system = parse_smtlib((BENCH / f"{name}.smt2").read_text())
    witness = refute(system)
    expected = REFUTE_PINS[name]
    if expected is None:
        assert witness is None
    else:
        assert witness is not None
        assert digest(witness) == expected


# (system, depth, seed) -> digest of the samples and of the next draw of the
# generator, so the random stream is pinned as well as the output
SAMPLE_PINS = {
    ("reva", 3, 0): "5a2941d14014ac4f",
    ("reva", 3, 1): "578188561a58a7fd",
    ("reva", 3, 2): "94797cd2b12a7bf0",
    ("reva", 4, 0): "6da01bf0bf7aeabb",
    ("reva", 4, 1): "2c9db2c68dace362",
    ("reva", 4, 2): "1026b19800487ffc",
    ("reva", 5, 0): "6da01bf0bf7aeabb",
    ("reva", 5, 1): "2c9db2c68dace362",
    ("reva", 5, 2): "1026b19800487ffc",
    ("take_drop", 3, 0): "e304637794ee97f8",
    ("take_drop", 3, 1): "8b1f950e23aa6d84",
    ("take_drop", 3, 2): "69a19589002813da",
    ("take_drop", 4, 0): "5e95cbea7eea2a2e",
    ("take_drop", 4, 1): "fec1b3c5bd9fa2d7",
    ("take_drop", 4, 2): "dbd85de3d0f4548c",
    ("take_drop", 5, 0): "11d703d5de241678",
    ("take_drop", 5, 1): "6e95f4ce6d1de46f",
    ("take_drop", 5, 2): "4728021fcf10e03e",
    ("sort", 3, 0): "6fab50a23bceb1cf",
    ("sort", 3, 1): "e571747223ffdef6",
    ("sort", 3, 2): "6855676d0d01caa5",
    ("sort", 4, 0): "dd93aeb3cfebd249",
    ("sort", 4, 1): "c4e3a29af66c1fee",
    ("sort", 4, 2): "f315364ed0d7a652",
    ("sort", 5, 0): "843158e56581b0f7",
    ("sort", 5, 1): "b05ba88b6f7b18b9",
    ("sort", 5, 2): "8dfc516257c2a90e",
}


@pytest.mark.parametrize("name", ["reva", "take_drop", "sort"])
def test_samples_pinned(name):
    system = parse_smtlib((BENCH / f"{name}.smt2").read_text())
    for depth in range(3, 6):
        for seed in range(3):
            rng = random.Random(seed)
            samples = collect_samples(system, replace(SolverConfig().sampling, depth=depth), rng)
            assert digest((samples, rng.random())) == SAMPLE_PINS[name, depth, seed]

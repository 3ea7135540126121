"""Printed models read back: each `define-fun` that a sat verdict on a
bundled system prints is read by the clause parser from its text, renders
to the same bytes, and passes the system's clauses when checked from it."""

import functools
from dataclasses import replace
from pathlib import Path

import pytest

from stpchc.chc_core import _Parser, parse_smtlib, read_sexps, symbol
from stpchc.formulas import Sort, render_formula, subst_formula
from stpchc.smt_backend import BoundedChecker
from stpchc.solver import SolverConfig, VerdictKind, check_definite, check_goal, mode_registry, solve

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SYSTEMS = ("reva", "sort", "take_drop")


@functools.cache
def sat_verdicts(name):
    """The system and its sat verdicts, in every mode at seeds 0-2."""
    system = parse_smtlib((BENCH / f"{name}.smt2").read_text())
    verdicts = [
        solve(system, SolverConfig(seed=seed), mode=mode)
        for mode in ("auto", *mode_registry()) for seed in (0, 1, 2)
    ]
    return system, [v for v in verdicts if v.kind is VerdictKind.SAT]


def read_model(text):
    """Each `define-fun` of a printed model: name -> (parameter sorts, body)."""
    reader = _Parser()
    out = {}
    for _, name, params, _, body in read_sexps(text):
        scope = {symbol(v): reader.parse_sort(s) for v, s in params}
        out[symbol(name)] = (scope, reader.parse_formula(body, scope))
    return out


class PrintedModel:
    """A model read from its text, with the `formula_for` of `CandidateModel`."""

    def __init__(self, text):
        self.defs = read_model(text)

    def formula_for(self, atom):
        params, body = self.defs[atom.pred]
        return subst_formula(body, dict(zip(params, atom.args)))


def test_printed_define_funs_render_back_byte_identically():
    lines = [
        line for name in SYSTEMS for v in sat_verdicts(name)[1]
        for line in v.model.render().splitlines()
    ]
    # every sat verdict on the bundled systems: 21 verdicts, 45 define-funs
    assert sum(len(sat_verdicts(name)[1]) for name in SYSTEMS) == 21
    assert len(lines) == 45
    for line in lines:
        ((name, (params, body)),) = read_model(line).items()
        binder = " ".join(
            f"({v} {'(Seq Int)' if s is Sort.LIST else 'Int'})" for v, s in params.items()
        )
        assert f"(define-fun {name} ({binder}) Bool {render_formula(body)})" == line


def check_printed(name, bounds_of):
    system, verdicts = sat_verdicts(name)
    for v in verdicts:
        model = PrintedModel(v.model.render())
        checker = BoundedChecker(bounds_of(v))
        for outcome in (check_definite(model, system, checker, 1),
                        check_goal(model, system, checker)):
            assert outcome.status == "valid", (v.mode, outcome.clause, outcome.assignments)


@pytest.mark.parametrize("name", SYSTEMS)
def test_printed_models_pass_at_their_bounds(name):
    check_printed(name, lambda v: v.bounds)


@pytest.mark.parametrize("name", [
    "reva",
    "sort",
    pytest.param("take_drop", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: the model fails definite clause 1 (take) at n = -2",
    )),
])
def test_printed_models_pass_negative_integers(name):
    check_printed(name, lambda v: replace(v.bounds, int_lo=-2))

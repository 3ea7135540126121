"""Pattern inference from positive samples.

Rewrite rules strip shared column content (prefixes, postfixes, reversed
columns, leading constants, all-empty columns) from the sample columns until
no rule applies.  The pattern of a normal form is the path of steps that
reached it, composed backwards from distinct variables over the columns
left: each step puts back, in pattern form, what it stripped from the data.
The deterministic strategy (`infer`) takes the first applicable step in the
fixed rule order; `infer_all` explores every reduction order and returns the
full set of normal forms.

The rules are those of `pattern_core.RULE_TABLE`; this module supplies the
cell algebra of sequence data columns (`COLUMNS`), and the rewrite loop and
normal-form explorer of every mode: `infer` and `infer_all` take learning
data or `collection_inference.CollectionData`, whose columns name their own
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .data import Cell, LearningData
from .pattern_core import (
    STRINGS,
    Cells,
    TuplePattern,
    compose,
    data_steps,
    var_atom,
)

Columns = tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class InferConfig:
    """Which rule extensions participate; all off reproduces the minimal
    rule set."""

    constants: bool = False
    postfix: bool = False
    reverse: bool = False
    exhaustive_limit: int = 50_000


class _Columns(Cells):
    """Sequence data columns: one sequence per sample row.  A rule applies
    when it applies in every row."""

    patterns = STRINGS  # the algebra of the pattern elements inferred

    def is_empty(self, col) -> bool:
        return not any(col)

    def strip(self, col, aux, front: bool):
        if front:
            if all(cj[: len(ci)] == ci for cj, ci in zip(col, aux)):
                return tuple(cj[len(ci) :] for cj, ci in zip(col, aux))
        elif all(len(ci) <= len(cj) and cj[len(cj) - len(ci) :] == ci for cj, ci in zip(col, aux)):
            return tuple(cj[: len(cj) - len(ci)] for cj, ci in zip(col, aux))
        return None

    def reverse(self, col):
        return tuple(cell[::-1] for cell in col)

    def end_letter(self, col, front: bool) -> Optional[int]:
        if not all(col):
            return None
        end = 0 if front else -1
        letter = col[0][end]
        return letter if all(cell[end] == letter for cell in col) else None

    def letter(self, letter: int, like):
        return ((letter,),) * len(like)


COLUMNS = _Columns()


def _cells_of(data) -> Cells:
    """The algebra of the data's columns; empty data is rejected."""
    if data.m == 0 or data.n == 0:
        raise ValueError("learning data must have at least one row and column")
    # collection data names the algebra of its columns
    return getattr(data, "cells", COLUMNS)


def _trivial(n: int) -> tuple:
    """The normal form's pattern over `n` remaining columns: distinct
    variables."""
    return tuple((var_atom(k),) for k in range(n))


def infer(data: LearningData, cfg: InferConfig = InferConfig()) -> TuplePattern:
    """The pattern of the deterministic normal form on learning data or
    collection data, in the data's mode; it fits every row.  The first
    applicable step is taken until none applies, and the path is composed
    backwards from the trivial tuple over the columns left."""
    cells = _cells_of(data)
    columns = data.columns()
    path = []
    while (first := next(data_steps(columns, cells, cfg), None)) is not None:
        step, columns = first
        path.append(step)
    elements = _trivial(len(columns))
    for step in reversed(path):
        elements = compose(step, elements, cells.patterns)
    return TuplePattern(elements, cells.mode)


@dataclass(frozen=True)
class InferenceResult:
    patterns: frozenset[TuplePattern]
    complete: bool

    def __contains__(self, t: TuplePattern) -> bool:
        return t in self.patterns


def infer_all(
    data: LearningData, cfg: InferConfig = InferConfig(), memo: dict | None = None
) -> InferenceResult:
    """Every normal-form pattern reachable by any reduction order,
    deduplicated up to renaming.  `complete` is False when the state limit
    was hit; the returned set is then a lower bound.

    A shared `memo` dict may be passed to amortize exploration across many
    matrices; it must always be used with the same config and kind of data.
    """
    explore = _Explore(_cells_of(data), cfg, {} if memo is None else memo)
    raw = _forms(explore, data.columns())
    patterns = frozenset(TuplePattern(els, explore.cells.mode) for els in (raw or frozenset()))
    return InferenceResult(patterns, complete=not explore.incomplete)


_MISSING = object()


@dataclass
class _Explore:
    """One `infer_all` call: what `_forms` reads, and whether it was cut."""

    cells: Cells
    cfg: InferConfig
    # columns -> frozenset of normal-form element tuples over the column
    # slots, or None while under construction / past the limit
    memo: dict
    incomplete: bool = False


def _forms(x: _Explore, columns: Columns):
    """The normal forms reachable from `columns`, or None once cut."""
    cached = x.memo.get(columns, _MISSING)
    if cached is not _MISSING:
        if cached is None:
            x.incomplete = True
        return cached
    if len(x.memo) >= x.cfg.exhaustive_limit:
        x.incomplete = True
        x.memo[columns] = None
        return None
    x.memo[columns] = None  # reserve the slot before recursing
    out = set()
    partial = False
    stuck = True
    for step, succ in data_steps(columns, x.cells, x.cfg):
        stuck = False
        sub = _forms(x, succ)
        if sub is None:
            partial = True
            continue
        for t in sub:
            out.add(compose(step, t, x.cells.patterns))
    if stuck:
        out.add(_trivial(len(columns)))
    if partial:
        x.incomplete = True
        x.memo[columns] = None
        return frozenset(out) if out else None
    result = frozenset(out)
    x.memo[columns] = result
    return result

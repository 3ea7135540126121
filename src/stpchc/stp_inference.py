"""Pattern inference from positive samples.

States pair a working pattern with a witness substitution; rewrite rules
strip shared column content (prefixes, postfixes, reversed columns, leading
constants, all-empty columns) until no rule applies.  The deterministic
strategy takes the first applicable step in the fixed rule order;
`infer_all` explores every reduction order and returns the full set of
normal forms.

The rules are those of `pattern_core.RULE_TABLE`; this module supplies the
cell algebra of sequence data columns (`COLUMNS`), and the rewrite loop and
normal-form explorer of every mode: `infer` and `infer_all` take learning
data or `collection_inference.CollectionData`, whose columns name their own
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .data import Cell, LearningData, Substitution
from .pattern_core import (
    ELEMENT,
    REVERSED,
    RULE_TABLE,
    STRINGS,
    Cells,
    PredStep,
    Rule,
    TuplePattern,
    compose,
    data_steps,
    strip,
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


@dataclass(frozen=True)
class RewriteState:
    """Working pattern (elements over variable ids), one variable id per
    data column, and the column contents.  `rows` is the sample count, kept
    explicitly because the last column removal would otherwise lose it.
    `cells` is the algebra of the columns."""

    elements: tuple
    var_ids: tuple[int, ...]
    columns: Columns
    next_id: int
    rows: int
    cells: Cells = COLUMNS

    @classmethod
    def initial(cls, data) -> "RewriteState":
        """The start state on `data`: learning data, or collection data."""
        if data.m == 0 or data.n == 0:
            raise ValueError("learning data must have at least one row and column")
        n = data.n
        return cls(
            elements=tuple((var_atom(j),) for j in range(n)),
            var_ids=tuple(range(n)),
            columns=data.columns(),
            next_id=n,
            rows=data.m,
            cells=_cells_of(data),
        )

    @property
    def pattern(self) -> TuplePattern:
        return TuplePattern(self.elements, self.cells.mode)

    @property
    def substitution(self) -> Substitution:
        rows = [
            tuple(col[r] for col in self.columns) for r in range(self.rows)
        ]
        return Substitution(self.var_ids, LearningData(rows))

    def data_size(self) -> int:
        return sum(1 + len(cell) for col in self.columns for cell in col)

    def reconstructed_rows(self) -> tuple[tuple[Cell, ...], ...]:
        """Apply the witness substitution to the working pattern row by row;
        this always reproduces the original input matrix."""
        m = self.rows
        out = []
        for r in range(m):
            env = {v: self.columns[k][r] for k, v in enumerate(self.var_ids)}
            row = []
            for el in self.elements:
                acc: list[int] = []
                for a in el:
                    if a < 0:
                        acc.append(-a - 1)
                    else:
                        acc.extend(env[a >> 1][::-1] if a & 1 else env[a >> 1])
                row.append(tuple(acc))
            out.append(tuple(row))
        return tuple(out)


def _cells_of(data) -> Cells:
    # collection data names the algebra of its columns
    return getattr(data, "cells", COLUMNS)


def _subst_var(elements, target: int, repl: tuple, alg: Cells):
    """Replace variable `target` by the atom string `repl` (reversed
    occurrences get the reversed string)."""
    rev = alg.reverse(repl)
    new_elements = []
    for el in elements:
        acc = []
        for a in el:
            if a >= 0 and a >> 1 == target:
                acc.extend(rev if a & 1 else repl)
            else:
                acc.append(a)
        new_elements.append(alg.rebuild(acc))
    return tuple(new_elements)


def _advance(state: RewriteState, step: PredStep, columns: Columns) -> RewriteState:
    """The state after `step`, whose columns are `columns`: the principal's
    variable is replaced by what the step stripped plus a fresh variable
    for the rest (nothing, for epsilon)."""
    j = step.j
    if step.rule is Rule.EPSILON:
        var_ids = state.var_ids[:j] + state.var_ids[j + 1 :]
        next_id = state.next_id
    else:
        var_ids = state.var_ids[:j] + (state.next_id,) + state.var_ids[j + 1 :]
        next_id = state.next_id + 1
    alg = state.cells.patterns
    repl = compose(step, tuple((var_atom(v),) for v in var_ids), alg)[j]
    return RewriteState(
        _subst_var(state.elements, state.var_ids[j], repl, alg),
        var_ids,
        columns,
        next_id,
        state.rows,
        state.cells,
    )


def applicable_rewrites(state: RewriteState, cfg: InferConfig) -> list[PredStep]:
    """Every applicable step, in the order inference takes them."""
    return [step for step, _ in data_steps(state.columns, state.cells, cfg)]


def rewrite_step(state: RewriteState, step: PredStep) -> RewriteState:
    """Apply `step`; ValueError unless it applies to the state's columns
    under some rule set (an auxiliary column must differ from the principal
    and not be all empty)."""
    columns = state.columns
    n = len(columns)
    i = step.i
    _front, source = RULE_TABLE.get(step.rule, (None, None))
    applies = 0 <= step.j < n and (
        source not in (ELEMENT, REVERSED)
        or i is not None and 0 <= i < n and i != step.j and not state.cells.is_empty(columns[i])
    )
    new = strip(columns, step, state.cells) if applies else None
    if new is None:
        raise ValueError(f"step {step} is not applicable")
    return _advance(state, step, new)


def final_state(data: LearningData, cfg: InferConfig = InferConfig()) -> RewriteState:
    """Deterministic inference: repeatedly apply the first applicable rewrite
    until none applies; returns the normal-form state (pattern plus witness
    substitution)."""
    state = RewriteState.initial(data)
    while True:
        first = next(data_steps(state.columns, state.cells, cfg), None)
        if first is None:
            return state
        state = _advance(state, *first)


def infer(data: LearningData, cfg: InferConfig = InferConfig()) -> TuplePattern:
    """The pattern of the deterministic normal form on learning data or
    collection data, in the data's mode; it fits every row."""
    return final_state(data, cfg).pattern


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
    if data.m == 0 or data.n == 0:
        raise ValueError("learning data must have at least one row and column")
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
        out.add(tuple((var_atom(s),) for s in range(len(columns))))
    if partial:
        x.incomplete = True
        x.memo[columns] = None
        return frozenset(out) if out else None
    result = frozenset(out)
    x.memo[columns] = result
    return result


def reachable_patterns(
    data: LearningData, cfg: InferConfig = InferConfig()
) -> frozenset[TuplePattern]:
    """Every pattern of every reachable rewriting state, normal form or not
    (completeness promises reachability, not normality)."""
    return frozenset(TuplePattern(els) for els in _reach(data.columns(), cfg, {}))


def _reach(columns: Columns, cfg: InferConfig, memo: dict) -> frozenset:
    if columns in memo:
        return memo[columns]
    memo[columns] = frozenset()
    trivial = tuple((var_atom(k),) for k in range(len(columns)))
    out = {trivial}
    for step, succ in data_steps(columns, COLUMNS, cfg):
        for t in _reach(succ, cfg, memo):
            out.add(compose(step, t, STRINGS))
    result = frozenset(out)
    memo[columns] = result
    return result

"""Pattern inference over sets and multisets.

Concatenation is reinterpreted as disjoint union (sets) or multiset sum;
the rewrite rules strip componentwise sub-collections instead of prefixes.
Pattern elements are stored as sorted atom multisets and identified up to
permutation.

The rules are those of `pattern_core.RULE_TABLE`, restricted to the front
rules with element and letter auxiliaries (collections have no back side and
no reversal).  This module supplies the cell algebra of set and multiset
data columns; the pattern side uses `pattern_core.BAGS`, and inference runs
the rewrite loop and normal-form explorer of `stp_inference`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .pattern_core import (
    BAGS,
    DEFAULT_RULES,
    Cells,
    Mode,
    NotSolvableError,
    TuplePattern,
    bag_minus,
    find_path,
    replays,
)
from .stp_inference import InferConfig, InferenceResult, final_state, infer_all

# Collections are stored as sorted tuples of letters; set-mode cells simply
# never contain duplicates.
Coll = tuple[int, ...]


def as_set(values: Iterable[int]) -> Coll:
    return tuple(sorted(set(values)))


def as_multiset(values: Iterable[int]) -> Coll:
    return tuple(sorted(values))


class CollectionData:
    """Rows of collection cells, all in the same mode."""

    __slots__ = ("rows", "mode")

    def __init__(self, rows: Iterable[Sequence[Iterable[int]]], mode: Mode):
        if mode not in (Mode.SET, Mode.MULTISET):
            raise ValueError("collection data is set- or multiset-mode")
        packed = []
        for row in rows:
            cells = []
            for cell in row:
                cell = tuple(sorted(cell))
                if mode is Mode.SET and len(set(cell)) != len(cell):
                    raise ValueError("set-mode cell with duplicate elements")
                cells.append(cell)
            packed.append(tuple(cells))
        self.rows: tuple[tuple[Coll, ...], ...] = tuple(packed)
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged collection data")
        self.mode = mode

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[Coll, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[tuple[Coll, ...], ...]:
        return tuple(self.column(j) for j in range(self.n))

    @property
    def cells(self) -> Cells:
        """The cell algebra of the columns."""
        return _COLUMNS[self.mode]


class _CollectionColumns(Cells):
    """Set or multiset data columns: one sorted collection per sample row.
    A rule applies when it applies in every row; the letter of the constant
    rule is the smallest one every row holds."""

    ordered = False
    patterns = BAGS  # the algebra of the pattern elements inferred

    def __init__(self, mode: Mode):
        self.mode = mode

    def is_empty(self, col) -> bool:
        return not any(col)

    def strip(self, col, aux, front: bool):
        out = []
        for cj, ci in zip(col, aux):
            rest = bag_minus(cj, ci)
            if rest is None:
                return None
            out.append(rest)
        return tuple(out)

    def end_letter(self, col, front: bool) -> Optional[int]:
        if not all(col):
            return None
        shared = set(col[0])
        for cell in col[1:]:
            shared &= set(cell)
        return min(shared) if shared else None

    def letter(self, letter: int, like):
        return ((letter,),) * len(like)


_COLUMNS = {mode: _CollectionColumns(mode) for mode in (Mode.SET, Mode.MULTISET)}


# ---------------------------------------------------------------------------
# inference

def infer_collection(data: CollectionData, cfg: InferConfig = InferConfig()) -> TuplePattern:
    """Deterministic collection-mode inference: strip shared sub-collections
    (and shared elements, with constants enabled) until stuck."""
    if data.m == 0 or data.n == 0:
        raise ValueError("collection data must have at least one row and column")
    return final_state(data, cfg).pattern


def infer_all_collection(
    data: CollectionData, cfg: InferConfig = InferConfig()
) -> InferenceResult:
    """All normal forms over every reduction order (see `infer_all`)."""
    return infer_all(data, cfg)


# ---------------------------------------------------------------------------
# decision procedures (the residual method on atom bags)

def collection_solving_path(t: TuplePattern) -> Optional[list]:
    return find_path(t.elements, BAGS, DEFAULT_RULES, exhaustive=True)


def collection_solvable(t: TuplePattern) -> bool:
    return collection_solving_path(t) is not None


def collection_member(values: Sequence[Iterable[int]], t: TuplePattern) -> bool:
    """Tuple membership for set/multiset patterns: replay a solving reduction
    of the pattern on the values, as one-row data."""
    if t.mode not in (Mode.SET, Mode.MULTISET):
        raise ValueError("collection_member expects a set or multiset pattern")
    if len(values) != t.arity:
        raise ValueError("arity mismatch")
    path = collection_solving_path(t)
    if path is None:
        raise NotSolvableError("membership requires a solvable pattern")
    normalize = as_set if t.mode is Mode.SET else as_multiset
    vals = [normalize(v) for v in values]
    if t.mode is Mode.SET:
        for v, raw in zip(vals, values):
            if len(tuple(raw)) != len(v):
                return False
    return replays(tuple((v,) for v in vals), path, _COLUMNS[t.mode])

"""Pattern inference over sets and multisets.

Concatenation is reinterpreted as disjoint union (sets) or multiset sum;
the rewrite rules strip componentwise sub-collections instead of prefixes.
Pattern elements are stored as sorted atom multisets and identified up to
permutation.

The rules are those of `pattern_core.RULE_TABLE`, restricted to the front
rules with element and letter auxiliaries (collections have no back side and
no reversal).  This module supplies only the data: `CollectionData` and the
cell algebra of its columns.  Everything else is the one API of every mode:
`stp_inference.infer` and `infer_all` read the algebra from the data, and
`pattern_core.solving_path`, `is_solvable` and `member` read it from the
pattern's mode (`pattern_core.BAGS` for set and multiset elements).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .pattern_core import BAGS, Cells, Mode, bag_minus, member
from .stp_inference import infer

# Collections are stored as sorted tuples of letters; set-mode cells simply
# never contain duplicates.
Coll = tuple[int, ...]


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


# `perfbench/` looks these names up; they are the generic entry points, kept
# under their old names until the benchmark calls `infer` and `member`.
infer_collection = infer
collection_member = member

"""Learning data: the m-by-n matrix of positive samples, read from and
written to CSV.  Its mode says what a cell is: a sequence (sequence mode),
or a sorted tuple of letters (set and multiset mode; a set-mode cell holds
each letter at most once)."""

from __future__ import annotations

import csv
import io
from enum import Enum
from typing import Iterable, Sequence

from .alphabet import parse_cell, render_cell

Cell = tuple[int, ...]


class Mode(Enum):
    SEQUENCE = "sequence"
    SET = "set"
    MULTISET = "multiset"


class LearningData:
    """An m x n matrix of cells in one mode; one row per positive sample."""

    __slots__ = ("rows", "mode")

    def __init__(self, rows: Iterable[Sequence[Iterable[int]]], mode: Mode = Mode.SEQUENCE):
        if mode is Mode.SEQUENCE:
            normalized = tuple(tuple(map(tuple, row)) for row in rows)
        else:  # a collection is stored sorted
            normalized = tuple(tuple(tuple(sorted(c)) for c in row) for row in rows)
            if mode is Mode.SET and any(len(set(c)) != len(c) for row in normalized for c in row):
                raise ValueError("set-mode cell with duplicate elements")
        if len({len(row) for row in normalized}) > 1:
            raise ValueError("ragged learning data: rows differ in width")
        self.rows: tuple[tuple[Cell, ...], ...] = normalized
        self.mode = mode

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def column(self, j: int) -> tuple[Cell, ...]:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(self.column(j) for j in range(self.n))

    def size(self) -> int:
        """Sum over all cells of 1 + cell length."""
        return sum(1 + len(cell) for row in self.rows for cell in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LearningData)
            and self.mode is other.mode
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(render_cell(cell) or "eps" for cell in row) for row in self.rows
        )
        mode = "" if self.mode is Mode.SEQUENCE else f"({self.mode.value})"
        return f"LearningData{mode}[{body}]"

    @classmethod
    def from_csv(cls, text: str, mode: Mode = Mode.SEQUENCE) -> "LearningData":
        reader = csv.reader(io.StringIO(text))
        rows = [[parse_cell(c) for c in row] for row in reader if row]
        return cls(rows, mode)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in self.rows:
            writer.writerow([render_cell(cell) for cell in row])
        return out.getvalue()

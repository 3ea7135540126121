"""Learning data: the m-by-n matrix of positive samples, and witness
substitutions (named columns assigning one sequence per row to each
variable)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .alphabet import parse_cell, render_cell

Cell = tuple[int, ...]


class LearningData:
    """An m x n matrix of sequences; one row per positive sample."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[Cell]]):
        normalized = tuple(tuple(tuple(cell) for cell in row) for row in rows)
        if normalized:
            width = len(normalized[0])
            for row in normalized:
                if len(row) != width:
                    raise ValueError("ragged learning data: rows differ in width")
        self.rows: tuple[tuple[Cell, ...], ...] = normalized

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
        return isinstance(other, LearningData) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(render_cell(cell) or "eps" for cell in row) for row in self.rows
        )
        return f"LearningData[{body}]"

    @classmethod
    def from_csv(cls, text: str) -> "LearningData":
        reader = csv.reader(io.StringIO(text))
        rows = [[parse_cell(c) for c in row] for row in reader if row]
        return cls(rows)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        for row in self.rows:
            writer.writerow([render_cell(cell) for cell in row])
        return out.getvalue()


@dataclass(frozen=True)
class Substitution:
    """Per-row assignment of sequences to variables: one column per variable
    in `header`, rows aligned with the learning data it witnesses."""

    header: tuple[int, ...]
    data: LearningData

    def __post_init__(self):
        if len(set(self.header)) != len(self.header):
            raise ValueError("substitution header variables must be distinct")
        if self.data.m and len(self.header) != self.data.n:
            raise ValueError("substitution header/column count mismatch")

    def row(self, i: int) -> dict[int, Cell]:
        return {v: self.data.rows[i][j] for j, v in enumerate(self.header)}

    def is_strict(self) -> bool:
        """No variable is mapped to the empty sequence in every row."""
        return all(
            any(cell for cell in self.data.column(j)) for j in range(len(self.header))
        )

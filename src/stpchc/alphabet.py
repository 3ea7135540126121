"""Letters and their text form.

Letters are plain non-negative integers. The first 62 have a one-character
rendering (digits, then lowercase, then uppercase); anything larger only has
the dotted integer-token form used in CSV cells.
"""

from __future__ import annotations

_DIGITS = "0123456789"
_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_CHARS = _DIGITS + _LOWER + _UPPER

# The two codeword letters used when building identifying learning data.
LETTER_A = _CHARS.index("a")
LETTER_B = _CHARS.index("b")


def letter_to_char(letter: int) -> str:
    if 0 <= letter < len(_CHARS):
        return _CHARS[letter]
    raise ValueError(f"letter {letter} has no single-character rendering")


def char_to_letter(ch: str) -> int:
    idx = _CHARS.find(ch)
    if idx < 0:
        raise ValueError(f"{ch!r} is not an alphabet character")
    return idx


def parse_cell(text: str) -> tuple[int, ...]:
    """One CSV cell. Dotted cells ("1.2.0") are tokens of the digits 0-9
    (ValueError naming the cell otherwise), anything else is one letter per
    character; the empty cell is the empty sequence."""
    text = text.strip()
    if not text:
        return ()
    if "." in text:
        tokens = text.split(".")
        if not all(tok.isascii() and tok.isdigit() for tok in tokens):
            raise ValueError(f"cell {text!r}: dotted tokens are non-negative integers")
        return tuple(int(tok) for tok in tokens)
    return tuple(char_to_letter(c) for c in text)


def render_cell(cell: tuple[int, ...]) -> str:
    if not cell:
        return ""
    if all(0 <= v < len(_CHARS) for v in cell):
        return "".join(_CHARS[v] for v in cell)
    return ".".join(str(v) for v in cell)

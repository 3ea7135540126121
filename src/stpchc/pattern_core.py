"""Tuple patterns and their decision procedures.

A tuple pattern is a tuple of pattern strings over constants, variables and
reversed variables; it denotes the set of tuples of sequences obtained by
substituting sequences for the variables (component-wise disjoint union or
multiset sum in the collection modes).

This module provides the data model, the rule table of the reduction
relation with its extensions (constants, postfix, reverse), and the
polynomial decision procedures built on it: solvability, membership,
inclusion, equivalence, and the construction of two-row identifying
learning data.

The rule table
--------------
`RULE_TABLE` is the one statement of the rules.  The same table drives
inference on learning data (`stp_inference`, `collection_inference`), the
decision procedures on patterns (here) and the membership formulas of the
solver.  It runs on any kind of cell that supplies the few operations of
`Cells`; this module supplies the two pattern kinds, `STRINGS` (sequence
pattern elements) and `BAGS` (set/multiset pattern elements, atoms sorted).
`pattern_steps` and `data_steps` enumerate the applicable steps, `strip`
applies one (a residual is a strip on another tuple) and `compose` undoes
one on a normal form.

Atom encoding
-------------
An `Atom` is an int, which keeps the reduction loops allocation-light:
constants are negative (`-(letter+1)`), variables are even non-negatives
(`index << 1`), reversed variables odd (`index << 1 | 1`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .alphabet import LETTER_A, LETTER_B, char_to_letter, letter_to_char
from .data import Cell, LearningData

Atom = int
Element = tuple


class NotSolvableError(ValueError):
    """Raised when a decision procedure requires a solvable pattern."""


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


# ---------------------------------------------------------------------------
# atoms

def const_atom(letter: int) -> int:
    if letter < 0:
        raise ValueError("letters are non-negative")
    return -(letter + 1)


def var_atom(index: int, reverse: bool = False) -> int:
    return index << 1 | (1 if reverse else 0)


def atom_is_const(a: Atom) -> bool:
    return a < 0


def atom_is_var(a: Atom) -> bool:
    return a >= 0


def atom_letter(a: int) -> int:
    return -a - 1


def atom_index(a: int) -> int:
    return a >> 1


def atom_is_reversed(a: Atom) -> bool:
    return a >= 0 and (a & 1) == 1


def reverse_element(el: Element) -> Element:
    """Reverse of a pattern string: atoms reversed, each variable flipped."""
    return tuple(a if a < 0 else a ^ 1 for a in reversed(el))


def _rename_atom(a: Atom, ren: Mapping[int, int]) -> Atom:
    return a if a < 0 else var_atom(ren[atom_index(a)], atom_is_reversed(a))


def _atom_key(a: Atom):
    # canonical in-element order for collection modes: constants by letter,
    # then variables
    return (0, atom_letter(a)) if a < 0 else (1, a)


# ---------------------------------------------------------------------------
# tuple patterns

class Mode(Enum):
    SEQUENCE = "sequence"
    SET = "set"
    MULTISET = "multiset"


def _variables(elements) -> list[int]:
    seen: list[int] = []
    for el in elements:
        for a in el:
            if a >= 0 and a >> 1 not in seen:
                seen.append(a >> 1)
    return seen


def _canonical_sequence(elements):
    order = _variables(elements)
    ren = {v: i for i, v in enumerate(order)}
    return tuple(tuple(_rename_atom(a, ren) for a in el) for el in elements)


def _canonical_collection(elements):
    # Elements are atom multisets; variable numbering is whatever renaming
    # makes the sorted form lexicographically least.  Falls back to
    # first-occurrence order beyond 7 variables.  Reversal means nothing on
    # a bag, so reversed variables become plain ones.
    elements = tuple(tuple(a if a < 0 else a & ~1 for a in el) for el in elements)
    vars_ = _variables(elements)
    k = len(vars_)

    def form(ren):
        return tuple(
            tuple(sorted((_rename_atom(a, ren) for a in el), key=_atom_key))
            for el in elements
        )

    base = form({v: i for i, v in enumerate(vars_)})
    if k <= 1:
        return base
    if k > 7:
        return base
    best = None
    for perm in itertools.permutations(range(k)):
        cand = form({v: perm[i] for i, v in enumerate(vars_)})
        key = tuple(tuple(_atom_key(a) for a in el) for el in cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


@dataclass(frozen=True)
class TuplePattern:
    """A tuple of pattern strings, identified up to variable renaming
    (and up to in-element permutation in the collection modes)."""

    elements: tuple
    mode: Mode = Mode.SEQUENCE

    def __post_init__(self):
        els = tuple(tuple(el) for el in self.elements)
        if self.mode is Mode.SEQUENCE:
            els = _canonical_sequence(els)
        else:
            els = _canonical_collection(els)
        object.__setattr__(self, "elements", els)

    @property
    def arity(self) -> int:
        return len(self.elements)

    def variables(self) -> list[int]:
        return _variables(self.elements)

    def has_reverse(self) -> bool:
        return any(atom_is_reversed(a) for el in self.elements for a in el)

    def has_constants(self) -> bool:
        return any(atom_is_const(a) for el in self.elements for a in el)

    def __str__(self) -> str:
        return render_pattern(self)


def measure(t: TuplePattern | Sequence[Element]) -> int:
    """Total atom count plus arity."""
    elements = t.elements if isinstance(t, TuplePattern) else t
    return sum(len(el) for el in elements) + len(elements)


# ---------------------------------------------------------------------------
# text form

_CONST_SINGLES = set("abcdefgh")


def parse_pattern(
    text: str, mode: Mode = Mode.SEQUENCE, allow_reverse: bool = True
) -> TuplePattern:
    """Parse "(p1, ..., pn)".  Tokens: digits / a..h / uppercase / quoted
    letters are constants, i..z with an optional digit suffix are variables,
    `ident^R` reverses, `eps` is the empty element."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def fail(msg: str):
        raise PatternSyntaxError(msg, pos)

    skip_ws()
    if pos >= n or text[pos] != "(":
        fail("expected '('")
    pos += 1

    var_ids: dict[str, int] = {}
    elements: list[Element] = []
    current: list[Atom] = []
    saw_eps = False

    def end_element():
        nonlocal current, saw_eps
        if not current and not saw_eps:
            fail("empty element (use eps)")
        elements.append(tuple(current))
        current = []
        saw_eps = False

    while True:
        skip_ws()
        if pos >= n:
            fail("unterminated pattern")
        ch = text[pos]
        if ch == ")":
            pos += 1
            if current or saw_eps or elements:
                end_element()
            break
        if ch == ",":
            pos += 1
            end_element()
            continue
        if text.startswith("eps", pos) and (
            pos + 3 >= n or not text[pos + 3].isalnum()
        ):
            if current:
                fail("eps must stand alone in an element")
            saw_eps = True
            pos += 3
            continue
        if ch == "'":
            pos += 1
            if pos >= n or not text[pos].isalnum():
                fail("expected a letter after quote")
            current.append(const_atom(char_to_letter(text[pos])))
            pos += 1
            continue
        if ch.isdigit() or ch.isupper() or ch in _CONST_SINGLES:
            current.append(const_atom(char_to_letter(ch)))
            pos += 1
            continue
        if ch.isalpha():
            start = pos
            pos += 1
            while pos < n and text[pos].isdigit():
                pos += 1
            name = text[start:pos]
            reverse = False
            if text.startswith("^R", pos):
                reverse = True
                pos += 2
                if not allow_reverse:
                    fail("reversed variables are disabled")
            idx = var_ids.setdefault(name, len(var_ids))
            current.append(var_atom(idx, reverse))
            continue
        fail(f"unexpected character {ch!r}")

    skip_ws()
    if pos != n:
        fail("trailing input after pattern")
    return TuplePattern(tuple(elements), mode)


def _render_atom(a: Atom) -> str:
    if atom_is_const(a):
        ch = letter_to_char(atom_letter(a))
        return ch if ch.isdigit() or ch.isupper() or ch in _CONST_SINGLES else "'" + ch
    return f"x{atom_index(a)}" + ("^R" if atom_is_reversed(a) else "")


def render_pattern(t: TuplePattern) -> str:
    parts = []
    for el in t.elements:
        parts.append(" ".join(_render_atom(a) for a in el) if el else "eps")
    return "(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# substitution

def apply_substitution(
    theta: Mapping[int, tuple], t: TuplePattern
) -> tuple[tuple, ...]:
    """Instantiate every variable of `t` from `theta` (keyed by variable
    index).  Sequence mode concatenates; set mode takes disjoint unions and
    rejects overlapping parts; multiset mode takes multiset sums."""
    out = []
    for el in t.elements:
        if t.mode is Mode.SEQUENCE:
            acc: list[int] = []
            for a in el:
                if atom_is_const(a):
                    acc.append(atom_letter(a))
                else:
                    try:
                        val = theta[atom_index(a)]
                    except KeyError:
                        raise KeyError(f"unbound variable x{atom_index(a)}") from None
                    acc.extend(reversed(val) if atom_is_reversed(a) else val)
            out.append(tuple(acc))
        else:
            parts: list[int] = []
            for a in el:
                if atom_is_const(a):
                    piece: Iterable[int] = (atom_letter(a),)
                else:
                    try:
                        piece = theta[atom_index(a)]
                    except KeyError:
                        raise KeyError(f"unbound variable x{atom_index(a)}") from None
                if t.mode is Mode.SET and set(piece) & set(parts):
                    raise ValueError("set-mode substitution parts must be disjoint")
                parts.extend(piece)
            if t.mode is Mode.SET:
                if len(parts) != len(set(parts)):
                    raise ValueError("set-mode substitution parts must be disjoint")
                out.append(frozenset(parts))
            else:
                out.append(tuple(sorted(parts)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the rule table

class Rule(Enum):
    EPSILON = "epsilon"
    PREFIX = "prefix"
    CPREFIX = "cprefix"
    POSTFIX = "postfix"
    CPOSTFIX = "cpostfix"
    RPREFIX = "rprefix"
    RPOSTFIX = "rpostfix"


@dataclass(frozen=True)
class RuleSet:
    constants: bool = True
    postfix: bool = True
    reverse: bool = True


DEFAULT_RULES = RuleSet()
BASE_RULES = RuleSet(constants=True, postfix=False, reverse=False)


@dataclass(frozen=True)
class PredStep:
    """One reduction step: `rule` rewrites the principal element `j`, using
    auxiliary element `i` (prefix/postfix families) or `letter` (constant
    rules).  Indices are 0-based element positions."""

    rule: Rule
    j: int
    i: Optional[int] = None
    letter: Optional[int] = None


FRONT, BACK = True, False
# where the auxiliary of a rule comes from
ELEMENT, REVERSED, LETTER = "element", "reversed", "letter"

# Every rule but epsilon (which drops an empty principal) strips its
# auxiliary from one side of the principal: rule -> (side, auxiliary).
# The order of the entries is the enumeration order of the rules.
RULE_TABLE = {
    Rule.PREFIX: (FRONT, ELEMENT),
    Rule.CPREFIX: (FRONT, LETTER),
    Rule.POSTFIX: (BACK, ELEMENT),
    Rule.CPOSTFIX: (BACK, LETTER),
    Rule.RPREFIX: (FRONT, REVERSED),
    Rule.RPOSTFIX: (BACK, REVERSED),
}


class Cells:
    """One kind of cell the rule table runs on: a pattern element, a data
    column (one value per sample row) or a solver term.  Unordered kinds
    (sets, multisets) have no back side and no reversal, so only the front
    rules with element and letter auxiliaries apply to them."""

    mode = Mode.SEQUENCE
    ordered = True

    def is_empty(self, cell) -> bool:
        raise NotImplementedError

    def strip(self, cell, aux, front: bool):
        """`cell` without `aux` on the given side, or None if it lacks it."""
        raise NotImplementedError

    def reverse(self, cell):
        """The cell read backwards; unordered kinds are their own reverse."""
        return cell

    def end_letter(self, cell, front: bool) -> Optional[int]:
        """The letter the cell surely has on the given side, or None."""
        raise NotImplementedError

    def letter(self, letter: int, like):
        """The auxiliary of a constant rule, shaped like the cell `like`."""
        raise NotImplementedError

    def rebuild(self, atoms):
        """A pattern element from an atom sequence."""
        return tuple(atoms)

    def join(self, aux, rest, front: bool):
        """Inverse of `strip`."""
        return self.rebuild(aux + rest if front else rest + aux)


class _Strings(Cells):
    """Sequence pattern elements: tuples of atoms."""

    def is_empty(self, el) -> bool:
        return not el

    def strip(self, el, aux, front: bool):
        k = len(el) - len(aux)
        if front:
            return el[len(aux) :] if el[: len(aux)] == aux else None
        return el[:k] if k >= 0 and el[k:] == aux else None

    def reverse(self, el):
        return reverse_element(el)

    def end_letter(self, el, front: bool) -> Optional[int]:
        a = el[0] if front else el[-1]
        return atom_letter(a) if a < 0 else None

    def letter(self, letter: int, like):
        return (const_atom(letter),)


def bag_minus(big: tuple, small: tuple) -> Optional[tuple]:
    """Multiset difference of two tuples sorted the same way, or None
    unless `small` is contained in `big`."""
    out = []
    k, n = 0, len(small)
    for a in big:
        if k < n and a == small[k]:
            k += 1
        else:
            out.append(a)
    return tuple(out) if k == n else None


class _Bags(Cells):
    """Set/multiset pattern elements: atom tuples sorted by `_atom_key`, so
    the constants come first, smallest letter first."""

    ordered = False

    def is_empty(self, el) -> bool:
        return not el

    def strip(self, el, aux, front: bool):
        return bag_minus(el, aux)

    def end_letter(self, el, front: bool) -> Optional[int]:
        return atom_letter(el[0]) if el[0] < 0 else None

    def letter(self, letter: int, like):
        return (const_atom(letter),)

    def rebuild(self, atoms):
        return tuple(sorted(atoms, key=_atom_key))


STRINGS = _Strings()
BAGS = _Bags()


@functools.lru_cache(maxsize=None)
def _groups(rules, ordered: bool):
    """The rules that `rules` enables on cells that are `ordered` or not, as
    (auxiliary, ((rule, side), ...)) groups: rules next to each other in the
    table with the same auxiliary share a group, and on the pattern side one
    loop over the auxiliary element."""
    out = []
    for source, entries in itertools.groupby(RULE_TABLE.items(), key=lambda e: e[1][1]):
        sides = tuple(
            (rule, front)
            for rule, (front, _) in entries
            if (front or rules.postfix and ordered)
            and (source != LETTER or rules.constants)
            and (source != REVERSED or rules.reverse and ordered)
        )
        if sides:
            out.append((source, sides))
    return tuple(out)


def _rule_steps(cells, j: int, source, sides, alg: Cells):
    """The applicable steps of the rules `sides` (rule, side pairs sharing
    the auxiliary `source`) with principal j, with the new principal."""
    cell = cells[j]
    if alg.is_empty(cell):
        return
    if source is LETTER:
        for rule, front in sides:
            letter = alg.end_letter(cell, front)
            if letter is not None:
                yield PredStep(rule, j, letter=letter), alg.strip(
                    cell, alg.letter(letter, cell), front
                )
        return
    for i, aux in enumerate(cells):
        if i == j or alg.is_empty(aux):
            continue
        if source is REVERSED:
            aux = alg.reverse(aux)
        for rule, front in sides:
            new = alg.strip(cell, aux, front)
            if new is not None:
                yield PredStep(rule, j, i), new


def _drop(cells, j: int):
    return cells[:j] + cells[j + 1 :]


def _replace(cells, j: int, cell):
    return cells[:j] + (cell,) + cells[j + 1 :]


def pattern_steps(cells: tuple, alg: Cells, rules) -> Iterator[tuple[PredStep, tuple]]:
    """Applicable steps with their successors, principal-major: for each
    principal, epsilon alone if it is empty, otherwise the rules in table
    order, rules with the same auxiliary interleaved per auxiliary."""
    groups = _groups(rules, alg.ordered)
    for j, cell in enumerate(cells):
        if alg.is_empty(cell):
            yield PredStep(Rule.EPSILON, j), _drop(cells, j)
            continue
        for source, sides in groups:
            for step, new in _rule_steps(cells, j, source, sides, alg):
                yield step, _replace(cells, j, new)


def data_steps(cells: tuple, alg: Cells, rules) -> Iterator[tuple[PredStep, tuple]]:
    """Applicable steps with their successors, rule-major: epsilon, then
    each rule in table order; within a rule, principal then auxiliary
    ascending."""
    for j, cell in enumerate(cells):
        if alg.is_empty(cell):
            yield PredStep(Rule.EPSILON, j), _drop(cells, j)
    for source, sides in _groups(rules, alg.ordered):
        for side in sides:
            for j in range(len(cells)):
                for step, new in _rule_steps(cells, j, source, (side,), alg):
                    yield step, _replace(cells, j, new)


def _aux(cells, step: PredStep, source, alg: Cells):
    if source is LETTER:
        return alg.letter(step.letter, cells[step.j])
    aux = cells[step.i]
    return alg.reverse(aux) if source is REVERSED else aux


def strip(cells: tuple, step: PredStep, alg: Cells) -> Optional[tuple]:
    """`cells` after `step`, or None when the principal lacks the shape.
    Applied to a tuple other than the one the step was found on, this is the
    residual of the step."""
    j = step.j
    if step.rule is Rule.EPSILON:
        return _drop(cells, j) if alg.is_empty(cells[j]) else None
    front, source = RULE_TABLE[step.rule]
    new = alg.strip(cells[j], _aux(cells, step, source, alg), front)
    return None if new is None else _replace(cells, j, new)


def compose(step: PredStep, rest: tuple, alg: Cells) -> tuple:
    """Inverse of `strip` on pattern elements: from the elements after the
    step, rebuild those before it (element j regains what was stripped)."""
    j = step.j
    if step.rule is Rule.EPSILON:
        return rest[:j] + ((),) + rest[j:]
    front, source = RULE_TABLE[step.rule]
    return _replace(rest, j, alg.join(_aux(rest, step, source, alg), rest[j], front))


def replays(cells: tuple, path, alg: Cells) -> bool:
    """Whether every step of `path` strips in turn from `cells`."""
    for step, _succ in path:
        cells = strip(cells, step, alg)
        if cells is None:
            return False
    return True


# ---------------------------------------------------------------------------
# solving paths

def pred_steps(
    t: TuplePattern | Sequence[Element], rules: RuleSet = DEFAULT_RULES
) -> list[tuple[PredStep, TuplePattern]]:
    """All applicable single reduction steps with their successor patterns,
    principal index ascending."""
    elements = t.elements if isinstance(t, TuplePattern) else tuple(t)
    return [
        (step, TuplePattern(succ)) for step, succ in pattern_steps(elements, STRINGS, rules)
    ]


def is_trivial(cells) -> bool:
    """A tuple of distinct plain variables: the end of a solving path."""
    seen = set()
    for el in cells:
        if len(el) != 1 or el[0] < 0 or el[0] & 1:
            return False
        seen.add(el[0])
    return len(seen) == len(cells)


def find_path(cells: tuple, alg: Cells, rules, exhaustive: bool) -> Optional[list]:
    """A reduction sequence from `cells` to a trivial tuple, as (step,
    successor) pairs, or None.  Depth-first in step order; without
    `exhaustive` only the first step of each state is tried (greedy
    reduction)."""
    if is_trivial(cells):
        return []
    path: list = []
    pending = [pattern_steps(cells, alg, rules)]
    failed = set()
    while pending:
        taken = next(pending[-1], None)
        if taken is None:
            if not exhaustive:
                return None
            pending.pop()
            if path:
                failed.add(path.pop()[1])
            continue
        succ = taken[1]
        if succ in failed:
            continue
        path.append(taken)
        if is_trivial(succ):
            return path
        pending.append(pattern_steps(succ, alg, rules))
    return None


def solving_path(
    t: TuplePattern | Sequence[Element], rules: RuleSet = DEFAULT_RULES
) -> Optional[list[tuple[PredStep, tuple]]]:
    """A reduction sequence from `t` to a tuple of distinct variables, or
    None if there is none.  Greedy reduction suffices without reverse atoms;
    with them the search is exhaustive, because reverse atoms break weak
    confluence, so a stuck greedy reduction proves nothing."""
    elements = t.elements if isinstance(t, TuplePattern) else tuple(t)
    has_rev = any(atom_is_reversed(a) for el in elements for a in el)
    return find_path(elements, STRINGS, rules, exhaustive=rules.reverse and has_rev)


def is_solvable(
    t: TuplePattern | Sequence[Element], rules: RuleSet = DEFAULT_RULES
) -> bool:
    return solving_path(t, rules) is not None


# ---------------------------------------------------------------------------
# residuals and the inclusion procedure

def residual(
    t0: TuplePattern, t1: TuplePattern, step: PredStep
) -> Optional[TuplePattern]:
    """Track how `t0` must reduce to simulate the step `t1 -> _`; absent when
    t0's principal element lacks the required shape."""
    if t0.arity != t1.arity:
        raise ValueError("residual requires equal arities")
    res = strip(t0.elements, step, STRINGS)
    return None if res is None else TuplePattern(res)


def _includes_elements(t1, t2, rules: RuleSet) -> bool:
    if len(t1) != len(t2):
        return False
    path = solving_path(t2, rules)
    if path is None:
        raise NotSolvableError("inclusion requires a solvable right-hand pattern")
    return replays(t1, path, STRINGS)


def includes(
    t1: TuplePattern, t2: TuplePattern, rules: RuleSet = DEFAULT_RULES
) -> bool:
    """Language inclusion of solvable patterns."""
    if not is_solvable(t1, rules):
        raise NotSolvableError("inclusion requires solvable patterns")
    return _includes_elements(t1.elements, t2.elements, rules)


def constant_pattern(values: Sequence[Cell]) -> TuplePattern:
    return TuplePattern(
        tuple(tuple(const_atom(v) for v in cell) for cell in values)
    )


def member(
    values: Sequence[Cell], t: TuplePattern, rules: RuleSet = DEFAULT_RULES
) -> bool:
    """Tuple membership, decided through the inclusion procedure on the
    constant pattern of `values`."""
    if t.mode is not Mode.SEQUENCE:
        raise ValueError("use collection_member for set/multiset patterns")
    if len(values) != t.arity:
        raise ValueError("arity mismatch")
    consts = tuple(tuple(const_atom(v) for v in cell) for cell in values)
    return _includes_elements(consts, t.elements, rules)


def equivalent(
    t1: TuplePattern, t2: TuplePattern, rules: RuleSet = DEFAULT_RULES
) -> bool:
    return includes(t1, t2, rules) and includes(t2, t1, rules)


# ---------------------------------------------------------------------------
# brute-force membership (test oracle)

def brute_force_member(values: Sequence[Cell], t: TuplePattern, max_len: int) -> bool:
    """Search for a witness substitution binding each variable to a string of
    length <= max_len.  Backtracking match, left to right."""
    if len(values) != t.arity:
        return False
    elements = t.elements
    binding: dict[int, tuple[int, ...]] = {}

    def match_atoms(k: int, ai: int, pos: int) -> bool:
        target = values[k]
        if ai == len(elements[k]):
            if pos != len(target):
                return False
            return k + 1 == len(elements) or match_atoms(k + 1, 0, 0)
        a = elements[k][ai]
        if atom_is_const(a):
            if pos < len(target) and target[pos] == atom_letter(a):
                return match_atoms(k, ai + 1, pos + 1)
            return False
        v = atom_index(a)
        rev = atom_is_reversed(a)
        if v in binding:
            val = binding[v][::-1] if rev else binding[v]
            if target[pos : pos + len(val)] == val:
                return match_atoms(k, ai + 1, pos + len(val))
            return False
        limit = min(max_len, len(target) - pos)
        for ln in range(limit + 1):
            piece = target[pos : pos + ln]
            binding[v] = piece[::-1] if rev else piece
            if match_atoms(k, ai + 1, pos + ln):
                return True
            del binding[v]
        return False

    if not elements:
        return len(values) == 0
    return match_atoms(0, 0, 0)


# ---------------------------------------------------------------------------
# identifying learning data

def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - b)) & 1 for b in range(width))


# Cross-reverse-bifix-free codeword set for three variables: no codeword (or
# reversed codeword) is a prefix or suffix of any other, and none is a
# palindrome.  No such set exists at width 3, and uniform width 4 would blow
# the advertised data-size bound, so the lengths are mixed.
_REV_SAFE_3 = [(0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1)]


def _codewords(k: int, reverse_safe: bool) -> list[tuple[int, ...]]:
    """k bit codewords, prefix-free by construction.  The reverse-safe family
    additionally guarantees that no (possibly reversed) codeword is a prefix
    or suffix of another and that none is a palindrome: a palindromic
    codeword makes a plain column indistinguishable from its reverse, letting
    inference diverge into inequivalent normal forms."""
    if k == 0:
        return []
    if not reverse_safe:
        width = k.bit_length()  # = ceil(log2(k+1))
        return [_bits(i, width) for i in range(k)]
    if k == 3:
        return list(_REV_SAFE_3)
    width = max(1, (k - 1).bit_length() + 1)
    while True:
        family = []
        for x in range(1 << width):
            b = _bits(x, width)
            if b < b[::-1]:
                family.append(b)
            if len(family) == k:
                return family
        width += 1


def canonical_data(
    t: TuplePattern, rules: RuleSet | None = None
) -> LearningData:
    """Two-row learning data that identifies `t` among inference results:
    row one substitutes per-variable prefix codewords over letters a/b, row
    two the same codewords with a and b swapped."""
    if rules is None:
        rules = RuleSet(constants=True, postfix=True, reverse=t.has_reverse())
    if not is_solvable(t, rules):
        raise NotSolvableError("identifying data exists only for solvable patterns")
    if t.mode is not Mode.SEQUENCE:
        raise ValueError("identifying data is defined for sequence patterns")
    variables = t.variables()
    reverse_safe = rules.reverse and t.has_reverse()
    codes = _codewords(len(variables), reverse_safe=reverse_safe)
    if reverse_safe and len({len(c) for c in codes}) > 1:
        # mixed lengths: give the shortest codewords to the most frequent
        # variables so the data stays within the advertised size
        counts = {v: 0 for v in variables}
        for el in t.elements:
            for a in el:
                if a >= 0:
                    counts[a >> 1] += 1
        variables = sorted(variables, key=lambda v: (-counts[v], variables.index(v)))
        codes = sorted(codes, key=len)
    alpha = {
        v: tuple(LETTER_A if b == 0 else LETTER_B for b in code)
        for v, code in zip(variables, codes)
    }
    beta = {
        v: tuple(LETTER_B if b == 0 else LETTER_A for b in code)
        for v, code in zip(variables, codes)
    }
    return LearningData(
        [apply_substitution(alpha, t), apply_substitution(beta, t)]
    )

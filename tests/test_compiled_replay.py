"""The compiled replay of `member`, `includes` and `equivalent` against the
per-step replay of a fresh solving path (`helpers.replay_member`,
`helpers.replay_includes`): same answers, same errors."""

import itertools
import random

import pytest

from stpchc.alphabet import char_to_letter
from stpchc.pattern_core import (
    Mode,
    NotSolvableError,
    RuleSet,
    TuplePattern,
    apply_substitution,
    equivalent,
    includes,
    member,
    parse_pattern,
    solving_path,
    solving_steps,
    var_atom,
)

from helpers import (
    A,
    B,
    enumerate_patterns,
    random_solvable,
    random_tuple,
    replay_includes,
    replay_member,
)

ALL_RULES = [RuleSet(*flags) for flags in itertools.product((False, True), repeat=3)]
# variable letters apart from the constants a and b, so set-mode rows can
# give every variable its own letters
FREE = tuple(char_to_letter(c) for c in "cdefgh")


def outcome(fn, *args):
    """The answer of `fn`, or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:  # NotSolvableError too
        return type(exc), str(exc)


# one pattern whose solving path takes each rule, and two that mix them
EVERY_RULE = [
    "(eps, x)", "(x, x y)", "(x, y x)", "(a x)", "(x b)", "(x, x^R y)", "(x, y x^R)",
    "(x, a x^R b, y x b)", "(x, eps, y, b y x^R a y)",
]


def patterns(seed: int, count: int) -> list[TuplePattern]:
    """Seeded sequence patterns, solvable under some rule set, the
    `EVERY_RULE` patterns, and a few raw enumerated ones that are not
    solvable under any (last)."""
    rng = random.Random(seed)
    out = [
        random_solvable(rng, max_arity=4, max_measure=10, rules=rules)
        for rules in ALL_RULES
        for _ in range(count)
    ]
    out += [parse_pattern(text) for text in EVERY_RULE]
    raw = [els for els in enumerate_patterns(2, 3) if solving_path(els, RuleSet()) is None]
    return out + [TuplePattern(els) for els in rng.sample(raw, 3)]


def members(rng: random.Random, t: TuplePattern) -> list:
    """Tuples in `t`'s language: words substituted into its sequence
    reading, and for a set pattern, disjoint sets of the free letters."""
    seq = TuplePattern(t.elements)
    out = []
    for _ in range(3):
        theta = {v: random_tuple(rng, 1, max_len=3)[0] for v in t.variables()}
        out.append(apply_substitution(theta, seq))
    if t.mode is not Mode.SEQUENCE:
        letters = list(FREE)
        rng.shuffle(letters)
        theta = {v: (letters[k],) if k % 2 else () for k, v in enumerate(t.variables())}
        try:
            out.append(tuple(tuple(sorted(cell)) for cell in apply_substitution(theta, t)))
        except ValueError:  # a variable twice in one set-mode element
            pass
    return out


def perturbed(rng: random.Random, row: tuple) -> list:
    """`row` with a letter appended to a cell, a letter dropped from one, a
    cell reversed, a cell repeated in place of another, and with a cell
    dropped or added (arity mismatches)."""
    cells = [tuple(cell) for cell in row]
    out = [row[:-1], row + ((A,),)]
    if not cells:
        return out
    k = rng.randrange(len(cells))
    for cell in (cells[k] + (rng.choice((A, B)),), cells[k][1:], cells[k][:-1], cells[k][::-1]):
        out.append(tuple(cells[:k] + [cell] + cells[k + 1:]))
    out.append(tuple(cells[:k] + [cells[-1]] + cells[k + 1:]))
    return out


class TestMember:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_agrees_with_replay_oracle(self, mode):
        rng = random.Random(30 + list(Mode).index(mode))
        checked = 0
        for seq in patterns(7, 5):
            t = TuplePattern(seq.elements, mode)
            for row in members(rng, t):
                queries = [row] + perturbed(rng, row)
                for rules in ALL_RULES:
                    for values in queries:
                        expect = outcome(replay_member, values, t, rules)
                        assert outcome(member, values, t, rules) == expect, (values, t, rules)
                        checked += 1
        assert checked > 1000

    def test_members_and_non_members_both_occur(self):
        rng = random.Random(5)
        answers = set()
        for t in patterns(11, 3)[:-3]:
            for row in members(rng, t):
                for values in perturbed(rng, row)[2:]:
                    answers.add(member(values, t))
        assert answers == {True, False}

    def test_set_cells_with_a_repeated_element(self):
        for text_mode in (Mode.SET, Mode.MULTISET):
            t = TuplePattern(((var_atom(0),), (var_atom(0), var_atom(1))), text_mode)
            for values in [((A, A), (A, A, B)), ((A,), (A, B, B)), ((B, A), (B, A, A))]:
                got = member(values, t)
                assert got == replay_member(values, t, RuleSet())
                if text_mode is Mode.SET:
                    assert got is False

    def test_cells_in_any_order_and_type(self):
        t = TuplePattern(((var_atom(0),), (var_atom(0), var_atom(1))), Mode.MULTISET)
        for values in [([B, A], (A, B, B)), ((A, B), [B, B, A]), (frozenset((A, B)), (B, A, B))]:
            assert member(values, t)
        seq = TuplePattern(((var_atom(0),), (var_atom(0), var_atom(1))))
        assert member(([A, B], [A, B, B]), seq)
        assert not member(([A, B], [B, A, B]), seq)

    def test_errors(self):
        t = TuplePattern(((var_atom(0),), (var_atom(0),)))
        with pytest.raises(ValueError, match="arity mismatch"):
            member(((A,),), t)
        square = TuplePattern(((var_atom(0), var_atom(0)),))
        for mode in Mode:
            with pytest.raises(NotSolvableError):
                member(((A, A),), TuplePattern(square.elements, mode))

    def test_moves_round_trip_to_the_solving_path(self):
        for seq in patterns(3, 4):
            for mode in Mode:
                t = TuplePattern(seq.elements, mode)
                for rules in ALL_RULES:
                    path = solving_path(t, rules)
                    moves = solving_steps(t, rules)
                    if path is None:
                        assert moves is None
                    else:
                        assert [m.step for m in moves] == [step for step, _ in path]


class TestIncludes:
    def pairs(self, rng: random.Random) -> list:
        """Pattern pairs: equal arity (from the same enumeration, some with
        reversed variables), a pattern and its most general form, and
        unequal arity."""
        raw = enumerate_patterns(2, 4)
        out = []
        for _ in range(150):
            a, b = rng.sample(raw, 2)
            flip = rng.random() < 0.3
            b = tuple(tuple(x ^ 1 if flip and x >= 0 and x & 2 == 0 else x for x in el) for el in b)
            out.append((TuplePattern(a), TuplePattern(b)))
        for t in patterns(9, 3):
            general = TuplePattern(tuple((var_atom(k),) for k in range(t.arity)))
            out += [(t, general), (general, t), (t, t)]
            out.append((t, TuplePattern(t.elements + ((var_atom(99),),))))
        return out

    def test_agrees_with_replay_oracle(self):
        rng = random.Random(17)
        answers = set()
        for t1, t2 in self.pairs(rng):
            for rules in ALL_RULES:
                expect = outcome(replay_includes, t1, t2, rules)
                assert outcome(includes, t1, t2, rules) == expect, (t1, t2, rules)
                answers.add(expect if isinstance(expect, bool) else expect[0])
                back = outcome(replay_includes, t2, t1, rules)
                both = expect if not isinstance(expect, bool) or not expect else back
                assert outcome(equivalent, t1, t2, rules) == both, (t1, t2, rules)
        assert answers == {True, False, NotSolvableError}

    def test_collection_patterns_rejected(self):
        t = TuplePattern(((var_atom(0),),), Mode.SET)
        with pytest.raises(ValueError, match="inclusion is defined for sequence patterns"):
            includes(t, t)

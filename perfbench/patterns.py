"""Seeded solvable sequence patterns and the learning data built from them.

A pattern is grown by applying reduction steps backwards, starting from a
tuple of distinct variables: every step is the inverse of a rule the solving
procedure can apply forwards, so the result is solvable by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from stpchc.alphabet import LETTER_A, LETTER_B, char_to_letter
from stpchc.pattern_core import (
    RuleSet,
    TuplePattern,
    apply_substitution,
    const_atom,
    is_solvable,
    reverse_element,
    var_atom,
)

MAX_ARITY = 4
MAX_ATOMS = 18
# The row count the solver's sampler hands to inference (SolverConfig.sample_cap).
INSTANCE_ROWS = 32
INSTANCE_LETTERS = tuple(char_to_letter(c) for c in "abcd")
INSTANCE_MAX_LEN = 3
# Cases per pass of the infer workload; each case is four inferred patterns.
CASES = 600


@dataclass(frozen=True)
class PatternCase:
    pattern: TuplePattern
    rules: RuleSet
    rows: tuple  # INSTANCE_ROWS tuples of sequences, all members of `pattern`


def _atoms(elements) -> int:
    return sum(len(el) for el in elements)


def solvable_pattern(
    rng: random.Random, arity: int, target_atoms: int, rules: RuleSet
) -> TuplePattern:
    """A solvable pattern of the given arity with about `target_atoms`
    atoms, using only the rule families `rules` enables."""
    kinds = ["prefix", "prefix"]
    if rules.postfix:
        kinds.append("postfix")
    if rules.reverse:
        kinds += ["rprefix", "rpostfix"]
    if rules.constants:
        kinds.append("const")
    elements = [(var_atom(i),) for i in range(rng.randint(1, arity))]
    while len(elements) < arity:  # inverse of the epsilon rule
        elements.insert(rng.randrange(len(elements) + 1), ())
    for _ in range(8 * target_atoms):
        if _atoms(elements) >= target_atoms:
            break
        kind = rng.choice(kinds)
        j = rng.randrange(len(elements))
        if kind == "const":
            a = const_atom(rng.choice((LETTER_A, LETTER_B)))
            if rules.postfix and rng.random() < 0.5:
                elements[j] = elements[j] + (a,)
            else:
                elements[j] = (a,) + elements[j]
            continue
        i = rng.randrange(len(elements))
        if i == j or not elements[i]:
            continue
        if _atoms(elements) + len(elements[i]) > target_atoms + 2:
            continue
        aux = elements[i]
        if kind == "prefix":
            elements[j] = aux + elements[j]
        elif kind == "postfix":
            elements[j] = elements[j] + aux
        elif kind == "rprefix":
            elements[j] = reverse_element(aux) + elements[j]
        else:
            elements[j] = elements[j] + reverse_element(aux)
    t = TuplePattern(tuple(elements))
    if not is_solvable(t, rules):
        raise AssertionError(f"generator produced an unsolvable pattern: {t}")
    return t


def instance_rows(rng: random.Random, t: TuplePattern) -> tuple:
    """INSTANCE_ROWS random members of `t`: each row substitutes a fresh
    random word for every variable."""
    rows = []
    for _ in range(INSTANCE_ROWS):
        theta = {
            v: tuple(
                rng.choice(INSTANCE_LETTERS)
                for _ in range(rng.randint(0, INSTANCE_MAX_LEN))
            )
            for v in t.variables()
        }
        rows.append(apply_substitution(theta, t))
    return tuple(rows)


def make_cases(seed: int, count: int) -> list[PatternCase]:
    """`count` cases from `seed`.  Arity and rule family cycle so that every
    seed gets the same mix: arity 1-4, with and without reversal, with and
    without constants; the atom count is drawn up to MAX_ATOMS."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        arity = 1 + k % MAX_ARITY
        family = (k // MAX_ARITY) % 4
        rules = RuleSet(constants=bool(family & 1), postfix=True, reverse=bool(family & 2))
        target = rng.randint(arity, MAX_ATOMS)
        t = solvable_pattern(rng, arity, target, rules)
        cases.append(PatternCase(t, rules, instance_rows(rng, t)))
    return cases

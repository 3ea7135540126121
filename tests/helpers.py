"""Shared test utilities: string shorthands, random solvable-pattern
generation by inverse reduction, and small brute-force oracles."""

from __future__ import annotations

import itertools
import random

from stpchc.alphabet import char_to_letter
from stpchc.chc_core import AtomTable, match_goal, match_term, plan_join
from stpchc.data import LearningData
from stpchc.pattern_core import (
    RuleSet,
    TuplePattern,
    atom_index,
    atom_is_const,
    atom_is_reversed,
    atom_letter,
    const_atom,
    is_solvable,
    member,
    reverse_element,
    var_atom,
)

A = char_to_letter("a")
B = char_to_letter("b")


def s(text: str) -> tuple[int, ...]:
    """A letter string from characters ("ab" -> (10, 11))."""
    return tuple(char_to_letter(c) for c in text)


def rows(*row_strings) -> list[list[tuple[int, ...]]]:
    return [[s(cell) for cell in row] for row in row_strings]


def all_strings(alphabet, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def bounded_language(t: TuplePattern, alphabet, max_component_len):
    """All tuples in the language whose components all fit the bound,
    found by enumerating witness substitutions with pruning."""
    variables = t.variables()
    results = set()

    def ok(assign):
        try:
            from stpchc.pattern_core import apply_substitution

            val = apply_substitution(assign, t)
        except ValueError:
            return None
        if all(len(c) <= max_component_len for c in val):
            return val
        return None

    strings = all_strings(alphabet, max_component_len)

    def rec(idx, assign):
        if idx == len(variables):
            val = ok(assign)
            if val is not None:
                results.add(val)
            return
        for w in strings:
            assign[variables[idx]] = w
            # prune: any component already over budget can only grow
            total_ok = True
            for el in t.elements:
                ln = 0
                complete = True
                for a in el:
                    if a < 0:
                        ln += 1
                    else:
                        v = a >> 1
                        if v in assign:
                            ln += len(assign[v])
                        else:
                            complete = False
                if ln > max_component_len:
                    total_ok = False
                    break
            if total_ok:
                rec(idx + 1, assign)
        del assign[variables[idx]]

    rec(0, {})
    return results


def random_solvable(
    rng: random.Random,
    max_arity=3,
    max_measure=10,
    rules: RuleSet = RuleSet(constants=True, postfix=True, reverse=True),
    letters=(A, B),
) -> TuplePattern:
    """Build a solvable pattern by applying reduction steps backwards from a
    tuple of distinct variables."""
    while True:
        k = rng.randint(1, max_arity)
        elements = [(var_atom(i),) for i in range(k)]
        fresh = k
        for _ in range(rng.randint(0, 6)):
            if measure_of(elements) >= max_measure:
                break
            kind = rng.choice(
                ["prefix", "prefix", "eps"]
                + (["const"] if rules.constants else [])
                + (["postfix"] if rules.postfix else [])
                + (["rprefix"] if rules.reverse else [])
                + (["rpostfix"] if rules.reverse and rules.postfix else [])
            )
            n = len(elements)
            if kind == "eps":
                if n >= max_arity:
                    continue
                j = rng.randrange(n + 1)
                elements.insert(j, ())
                continue
            j = rng.randrange(n)
            if kind == "const":
                a = const_atom(rng.choice(letters))
                if rules.postfix and rng.random() < 0.5:
                    elements[j] = elements[j] + (a,)
                else:
                    elements[j] = (a,) + elements[j]
                continue
            i = rng.randrange(n)
            if i == j or not elements[i]:
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
        if t.arity <= max_arity and measure_of(t.elements) <= max_measure:
            assert is_solvable(t, rules)
            return t


def measure_of(elements) -> int:
    return sum(len(el) for el in elements) + len(elements)


def brute_force_member(values, t: TuplePattern, max_len: int) -> bool:
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


def validate(data: LearningData, t: TuplePattern) -> bool:
    """True iff every row of the data belongs to the pattern's language."""
    return all(member(row, t) for row in data.rows)


def random_tuple(rng: random.Random, arity, letters=(A, B), max_len=4):
    return tuple(
        tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        for _ in range(arity)
    )


def exhaustive_solvable(elements, rules: RuleSet) -> bool:
    """Oracle: solvability by trying every reduction order."""
    from stpchc.pattern_core import STRINGS, is_trivial, pattern_steps

    memo = {}

    def rec(els):
        if is_trivial(els):
            return True
        if els in memo:
            return memo[els]
        memo[els] = False
        for _step, succ in pattern_steps(els, STRINGS, rules):
            if rec(succ):
                memo[els] = True
                return True
        return memo[els]

    return rec(tuple(elements))


def enumerate_patterns(arity, max_atoms, letters=(A, B), max_vars=None):
    """Every pattern tuple (up to nothing: raw forms) with the given arity and
    total atom count bound, variables named canonically by first occurrence."""
    if max_vars is None:
        max_vars = max_atoms
    results = []

    def extend(elements, remaining, used_vars):
        if len(elements) == arity:
            results.append(tuple(elements))
            return
        # enumerate one element of each length up to remaining budget
        slots_left = arity - len(elements) - 1
        for ln in range(0, remaining + 1 - 0):
            if ln > remaining:
                break
            for el, used2 in element_options(ln, used_vars):
                extend(elements + [el], remaining - ln, used2)

    def element_options(ln, used_vars):
        if ln == 0:
            yield (), used_vars
            return
        for rest, used2 in element_options(ln - 1, used_vars):
            for a in letters:
                yield rest + (const_atom(a),), used2
            for v in range(min(used2 + 1, max_vars)):
                yield rest + (var_atom(v),), max(used2, v + 1)

    extend([], max_atoms, 0)
    return results


def naive_join(atoms, pools, cap=None):
    """Reference for `chc_core.join`: the first `cap` combinations of the
    product of the pools (all of them without a cap), kept when every
    argument matches in order, as (row numbers, binding)."""
    combos = itertools.product(*(range(len(pool)) for pool in pools))
    for rows in itertools.islice(combos, cap):
        binding: dict = {}
        if all(
            all(match_term(arg, val, binding) for arg, val in zip(atom.args, pool[r]))
            for atom, pool, r in zip(atoms, pools, rows)
        ):
            yield rows, binding


def goal_hit(samples, system):
    """The first goal whose body the samples make concretely true, as (goal
    index, values of the matched samples, binding), or None."""
    tables = {p: AtomTable() for p in system.predicates}
    for sample in samples:
        if sample.values not in tables[sample.predicate]:
            tables[sample.predicate].add(sample.values, sample)
    for gi, goal in enumerate(system.goals):
        found = match_goal(plan_join(goal), tables)
        if found is not None:
            matched, binding = found
            return gi, tuple(sample.values for sample in matched), binding
    return None

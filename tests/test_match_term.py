"""The contract of `chc_core.match_term`, the one solver of `term = value`
behind the ground joins, `derivable` and the bounded checker: True (the term
matches, with every variable it solved bound), False (no values of the
unbound variables match) or None (the shape cannot tell).  The terms are
the bounded checker's random terms."""

import itertools
import random

from stpchc.chc_core import match_term
from stpchc.formulas import Sort, Undefined, eval_term, term_vars
from test_bounded_differential import BOUNDS, random_int_term, random_seq_term

LISTS = [
    tuple(word)
    for n in range(BOUNDS.max_list_len + 1)
    for word in itertools.product(range(BOUNDS.max_elem + 1), repeat=n)
]
INTS = list(range(BOUNDS.int_lo, BOUNDS.int_hi + 1))


def domain(sort):
    return LISTS if sort is Sort.LIST else INTS


def random_term(rng):
    """A list term or an integer term, and the values of its sort."""
    if rng.random() < 0.7:
        return random_seq_term(rng), LISTS
    return random_int_term(rng), INTS


def variables_of(t):
    out = {}
    term_vars(t, out)
    return out


def value_of(t, env):
    try:
        return eval_term(t, env)
    except Undefined:
        return Undefined


def test_a_witness_value_is_never_refuted():
    rng = random.Random(11)
    matched = 0
    for _ in range(3000):
        t, _values = random_term(rng)
        sorts = variables_of(t)
        if not sorts:
            continue
        env = {n: rng.choice(domain(s)) for n, s in sorts.items()}
        value = value_of(t, env)
        if value is Undefined:
            continue
        dropped = rng.sample(sorted(sorts), rng.randint(1, len(sorts)))
        binding = {n: v for n, v in env.items() if n not in dropped}
        result = match_term(t, value, binding)
        assert result is not False, (t, env, dropped)
        assert eval_term(t, {**env, **binding}) == value, (t, env, binding)
        matched += result is True
    assert matched > 1000


def completions(binding, names, sorts):
    for combo in itertools.product(*(domain(sorts[n]) for n in names)):
        yield {**binding, **dict(zip(names, combo))}


def test_matches_and_refutations_hold_under_enumeration():
    # a match leaves unbound only variables the value does not depend on;
    # a refutation leaves no assignment that evaluates to the value
    rng = random.Random(12)
    outcomes = {True: 0, False: 0, None: 0}
    for _ in range(3000):
        t, values = random_term(rng)
        value = rng.choice(values)
        sorts = variables_of(t)
        binding = {n: rng.choice(domain(s)) for n, s in sorts.items() if rng.random() < 0.5}
        bound = dict(binding)
        result = match_term(t, value, bound)
        outcomes[result] += 1
        if result:
            left = [n for n in sorts if n not in bound]
            for env in completions(bound, left, sorts):
                assert value_of(t, env) == value, (t, value, env)
        if result is False:
            free = [n for n in sorts if n not in binding]
            for env in completions(binding, free, sorts):
                assert value_of(t, env) != value, (t, value, env)
    assert all(outcomes.values()), outcomes

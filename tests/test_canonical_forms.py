"""Identification up to renaming (and element-internal permutation in the
collection modes) must be insensitive to how the input names its variables."""

import itertools
import random

from stpchc.pattern_core import Mode, TuplePattern, const_atom, var_atom

from helpers import random_solvable


def rename_atoms(elements, perm):
    out = []
    for el in elements:
        atoms = []
        for a in el:
            if a < 0:
                atoms.append(a)
            else:
                atoms.append(perm[a >> 1] << 1 | (a & 1))
        out.append(tuple(atoms))
    return tuple(out)


def test_sequence_patterns_identified_up_to_renaming():
    rng = random.Random(1234)
    for _ in range(300):
        t = random_solvable(rng, max_arity=4, max_measure=12)
        k = len(t.variables())
        if k < 2:
            continue
        perm = list(range(k))
        rng.shuffle(perm)
        renamed = rename_atoms(t.elements, perm)
        assert TuplePattern(renamed) == t


def test_collection_patterns_identified_up_to_renaming_and_permutation():
    rng = random.Random(99)
    for mode in (Mode.SET, Mode.MULTISET):
        for _ in range(300):
            arity = rng.randint(1, 3)
            nvars = rng.randint(1, 4)
            elements = []
            for _ in range(arity):
                size = rng.randint(0, 3)
                el = []
                for _ in range(size):
                    if rng.random() < 0.3:
                        el.append(const_atom(rng.randint(0, 2)))
                    else:
                        el.append(var_atom(rng.randrange(nvars)))
                if mode is Mode.SET:
                    el = list(dict.fromkeys(el))
                elements.append(tuple(el))
            t = TuplePattern(tuple(elements), mode)
            used = sorted({a >> 1 for el in t.elements for a in el if a >= 0})
            if len(used) < 2:
                continue
            perm_map = {v: v for v in range(max(used) + 1)}
            shuffled = used[:]
            rng.shuffle(shuffled)
            for v, w in zip(used, shuffled):
                perm_map[v] = w
            renamed = []
            for el in t.elements:
                atoms = [
                    a if a < 0 else var_atom(perm_map[a >> 1]) for a in el
                ]
                rng.shuffle(atoms)
                renamed.append(tuple(atoms))
            assert TuplePattern(tuple(renamed), mode) == t, (t.elements, renamed)


def least_collection_form(elements):
    """Oracle: of every renaming of the variables to 0..k-1, with reversal
    dropped and each element sorted constants first (by letter), then
    variables, the form whose atoms read least."""

    def key(a):
        return (0, -a - 1) if a < 0 else (1, a)

    variables = list(dict.fromkeys(a >> 1 for el in elements for a in el if a >= 0))
    forms = []
    for perm in itertools.permutations(range(len(variables))):
        ren = dict(zip(variables, perm))
        forms.append(tuple(
            tuple(sorted((a if a < 0 else ren[a >> 1] << 1 for a in el), key=key))
            for el in elements
        ))
    return min(forms, key=lambda form: tuple(tuple(map(key, el)) for el in form))


def test_collection_form_is_the_least_over_all_renamings():
    rng = random.Random(7)
    for mode in (Mode.SET, Mode.MULTISET):
        for _ in range(300):
            nvars = rng.randint(0, 5)
            elements = tuple(
                tuple(
                    const_atom(rng.randint(0, 2)) if nvars == 0 or rng.random() < 0.3
                    else var_atom(rng.randrange(nvars), reverse=rng.random() < 0.2)
                    for _ in range(rng.randint(0, 4))
                )
                for _ in range(rng.randint(1, 4))
            )
            assert TuplePattern(elements, mode).elements == least_collection_form(elements), elements

import itertools
import random

import pytest

from stpchc.collection_inference import CollectionData
from stpchc.pattern_core import Mode, TuplePattern, is_solvable, member, var_atom
from stpchc.stp_inference import InferConfig, infer

from helpers import s


def setdata(*rows):
    return CollectionData(rows, Mode.SET)


def msdata(*rows):
    return CollectionData(rows, Mode.MULTISET)


def cpat(elements, mode):
    return TuplePattern(elements, mode)


X, Y, Z = var_atom(0), var_atom(1), var_atom(2)


class TestInferCollection:
    def test_shared_intersection_example(self):
        data = setdata(
            [s("a"), s("b"), s("ab")],
            [s("b"), s("bc"), s("bc")],
        )
        got = infer(data)
        want = cpat(((X, Z), (Y, Z), (X, Y, Z)), Mode.SET)
        assert got == want

    def test_all_empty(self):
        assert infer(setdata([(), ()])) == cpat(((), ()), Mode.SET)

    def test_multiset_equal_columns(self):
        data = msdata([(1, 2), (2, 1)], [(3, 4, 5), (4, 3, 5)])
        assert infer(data) == cpat(((X,), (X,)), Mode.MULTISET)

    def test_duplicate_in_set_cell_rejected(self):
        with pytest.raises(ValueError):
            CollectionData([[(1, 1)]], Mode.SET)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            infer(CollectionData([], Mode.SET))

    def test_union_invariant_along_rewriting(self):
        # soundness: every input row is a member of the result
        rng = random.Random(21)
        for mode in (Mode.SET, Mode.MULTISET):
            for _ in range(60):
                ncols = rng.randint(1, 3)
                rows = []
                for _r in range(rng.randint(1, 3)):
                    row = []
                    for _c in range(ncols):
                        size = rng.randint(0, 3)
                        vals = [rng.randint(0, 4) for _ in range(size)]
                        row.append(set(vals) if mode is Mode.SET else vals)
                    rows.append(row)
                data = CollectionData(rows, mode)
                t = infer(data, InferConfig(constants=True))
                assert is_solvable(t)
                for row in data.rows:
                    assert member(row, t), (t, row)

    def test_mode_agreement_on_distinct_singletons(self):
        rng = random.Random(5)
        for _ in range(40):
            ncols = rng.randint(1, 3)
            rows = []
            for _r in range(rng.randint(1, 3)):
                letters = rng.sample(range(10), ncols)
                rows.append([{v} for v in letters])
            t_set = infer(CollectionData(rows, Mode.SET))
            t_ms = infer(CollectionData(rows, Mode.MULTISET))
            assert t_set.elements == t_ms.elements


class TestCollectionMember:
    def test_disjoint_union_examples(self):
        t = cpat(((X,), (Y,), (X, Y)), Mode.SET)
        assert member((s("a"), s("b"), s("ab")), t)
        assert not member((s("a"), s("a"), s("a")), t)

    def test_multiset_sum_example(self):
        t = cpat(((X,), (Y,), (X, Y)), Mode.MULTISET)
        assert member(((1, 1), (1,), (1, 1, 1)), t)
        assert not member(((1, 1), (1,), (1, 1)), t)
        # cells in any order
        assert member(((2, 1), (1,), (1, 1, 2)), t)

    def test_set_cell_with_repeated_element_is_no_member(self):
        t = cpat(((X,), (Y,), (X, Y)), Mode.SET)
        assert not member(((1, 1), (), (1, 1)), t)
        assert member(((1,), (), (1,)), t)

    def test_arity_mismatch(self):
        t = cpat(((X,), (X,)), Mode.MULTISET)
        with pytest.raises(ValueError):
            member(((1,),), t)

    def test_against_brute_force(self):
        rng = random.Random(31)
        for mode in (Mode.SET, Mode.MULTISET):
            for _ in range(50):
                ncols = rng.randint(1, 3)
                rows = []
                for _r in range(2):
                    row = []
                    for _c in range(ncols):
                        vals = [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
                        row.append(set(vals) if mode is Mode.SET else vals)
                    rows.append(row)
                t = infer(CollectionData(rows, mode))
                for _trial in range(10):
                    v = [
                        [rng.randint(0, 3) for _ in range(rng.randint(0, 3))]
                        for _ in range(ncols)
                    ]
                    if mode is Mode.SET:
                        v = [set(c) for c in v]
                    assert member(v, t) == brute_force_collection_member(
                        v, t
                    ), (t, v)


def brute_force_collection_member(values, t: TuplePattern) -> bool:
    """Enumerate sub-collection assignments for every variable."""
    vals = [tuple(sorted(set(v) if t.mode is Mode.SET else v)) for v in values]
    universe = sorted({x for v in vals for x in v})
    variables = sorted({a >> 1 for el in t.elements for a in el if a >= 0})

    def candidates():
        if t.mode is Mode.SET:
            subs = []
            for r in range(len(universe) + 1):
                subs.extend(itertools.combinations(universe, r))
            return subs
        cap = max((len(v) for v in vals), default=0)
        subs = {()}
        for _ in range(cap):
            subs |= {tuple(sorted(sub + (x,))) for sub in subs for x in universe}
        return sorted(subs)

    from collections import Counter

    def element_value(el, assign):
        total = Counter()
        for a in el:
            if a < 0:
                total[-a - 1] += 1
            else:
                total.update(assign[a >> 1])
        if t.mode is Mode.SET and any(c > 1 for c in total.values()):
            return None
        return tuple(sorted(total.elements()))

    options = candidates()

    def rec(idx, assign):
        if idx == len(variables):
            return all(
                element_value(el, assign) == v for el, v in zip(t.elements, vals)
            )
        for sub in options:
            assign[variables[idx]] = sub
            if rec(idx + 1, assign):
                return True
        del assign[variables[idx]]
        return False

    return rec(0, {})

import itertools
import random

import pytest

from stpchc.data import LearningData
from stpchc.pattern_core import (
    Mode,
    PredStep,
    Rule,
    apply_substitution,
    is_solvable,
    parse_pattern,
)
from stpchc.stp_inference import InferConfig, infer, infer_all

from helpers import (
    RewriteState,
    applicable_rewrites,
    final_state,
    random_solvable,
    reachable_patterns,
    rewrite_step,
    rows,
    s,
    validate,
)

CONSTS = InferConfig(constants=True)
FULL = InferConfig(constants=True, postfix=True, reverse=True)


def M(*row_strings):
    return LearningData(rows(*row_strings))


def P(text):
    return parse_pattern(text)


class TestApplicableRewrites:
    def test_prefix_descriptor_present(self):
        state = RewriteState.initial(M(["a", "b", "ab"], ["aa", "", "aa"]))
        descs = applicable_rewrites(state, CONSTS)
        assert any(d.rule is Rule.PREFIX and d.j == 2 and d.i == 0 for d in descs)

    def test_all_epsilon_column(self):
        state = RewriteState.initial(M(["", ""]))
        descs = applicable_rewrites(state, CONSTS)
        assert {d.rule for d in descs} == {Rule.EPSILON}
        assert {d.j for d in descs} == {0, 1}

    def test_stuck_single_column(self):
        state = RewriteState.initial(M(["a"], ["b"]))
        assert applicable_rewrites(state, InferConfig()) == []


class TestRewriteStep:
    def test_worked_trace_prefix_constants(self):
        # ((x1,x2,x3), M) -> prefix -> prefix -> epsilon -> cprefix, ending
        # at (a x, y, a x y) with columns (eps,a) and (b,eps)
        state = RewriteState.initial(M(["a", "b", "ab"], ["aa", "", "aa"]))
        trace = []
        while True:
            descs = applicable_rewrites(state, CONSTS)
            if not descs:
                break
            trace.append(descs[0].rule)
            state = rewrite_step(state, descs[0])
        assert trace == [Rule.PREFIX, Rule.PREFIX, Rule.EPSILON, Rule.CPREFIX]
        assert state.pattern == P("(a x, y, a x y)")
        assert state.substitution.data.rows == ((s(""), s("b")), (s("a"), s("")))

    def test_reverse_trace(self):
        state = RewriteState.initial(M(["ab", "cd", "bacd"], ["bc", "da", "cbda"]))
        cfg = InferConfig(reverse=True)
        descs = applicable_rewrites(state, cfg)
        d = descs[0]
        assert d.rule is Rule.RPREFIX and d.j == 2 and d.i == 0
        state = rewrite_step(state, d)
        assert state.columns[2] == (s("cd"), s("da"))
        assert state.pattern == P("(x, y, x^R z)")

    def test_postfix_trace(self):
        state = RewriteState.initial(M(["a", "baa"], ["bc", "abcbc"]))
        cfg = InferConfig(postfix=True)
        state = rewrite_step(state, applicable_rewrites(state, cfg)[0])
        state = rewrite_step(state, applicable_rewrites(state, cfg)[0])
        assert state.pattern == P("(x, y x x)")

    def test_invariant_rows_reproduced(self):
        # every intermediate state's substitution applied to its pattern
        # gives back the original matrix
        data = M(["a", "b", "ab"], ["aa", "", "aa"])
        state = RewriteState.initial(data)
        while True:
            assert state.reconstructed_rows() == data.rows
            descs = applicable_rewrites(state, CONSTS)
            if not descs:
                break
            state = rewrite_step(state, descs[0])

    def test_inapplicable_descriptor_rejected(self):
        state = RewriteState.initial(M(["a", "b"]))
        with pytest.raises(ValueError):
            rewrite_step(state, PredStep(Rule.EPSILON, 0))
        # stripping a column from itself would succeed, but the auxiliary
        # must be another column
        with pytest.raises(ValueError):
            rewrite_step(state, PredStep(Rule.PREFIX, 0, 0))
        # stripping an all-empty column would succeed, but it is no auxiliary
        state = RewriteState.initial(M(["a", ""], ["b", ""]))
        with pytest.raises(ValueError):
            rewrite_step(state, PredStep(Rule.PREFIX, 0, 1))


class TestInfer:
    def test_constants_example(self):
        assert infer(M(["a", "b", "ab"], ["aa", "", "aa"]), CONSTS) == P("(a x, y, a x y)")

    def test_reverse_example(self):
        got = infer(M(["ab", "cd", "bacd"], ["bc", "da", "cbda"]), InferConfig(reverse=True))
        assert got == P("(x, y, x^R y)")

    def test_postfix_example(self):
        got = infer(M(["a", "baa"], ["bc", "abcbc"]), InferConfig(postfix=True))
        assert got == P("(x, y x x)")

    def test_reverse_without_postfix_strips_no_suffix(self):
        # rpostfix strips a suffix, so it needs the postfix extension too:
        # the pattern then stays solvable under the rules that inferred it
        data = M(["ab", "cba"], ["b", "ab"])
        assert infer(data, InferConfig(reverse=True)) == P("(x, y)")
        assert infer(data, InferConfig(postfix=True, reverse=True)) == P("(x, y x^R)")

    def test_model_example(self):
        assert infer(M(["a", "aa"], ["b", "bb"])) == P("(x, x x)")

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            infer(LearningData([]))
        with pytest.raises(ValueError):
            infer(LearningData([[], []]))

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            LearningData(rows(["a", "b"], ["a"]))

    def test_step_count_bounded_by_size(self):
        rng = random.Random(2)
        for _ in range(60):
            ncols = rng.randint(1, 3)
            data = LearningData(
                [
                    [
                        tuple(rng.choice((10, 11)) for _ in range(rng.randint(0, 3)))
                        for _ in range(ncols)
                    ]
                    for _ in range(rng.randint(1, 3))
                ]
            )
            state = RewriteState.initial(data)
            steps = 0
            sizes = [state.data_size()]
            while True:
                descs = applicable_rewrites(state, FULL)
                if not descs:
                    break
                state = rewrite_step(state, descs[0])
                steps += 1
                sizes.append(state.data_size())
            assert steps <= data.size()
            assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_soundness_and_solvability(self):
        rng = random.Random(4)
        for _ in range(60):
            ncols = rng.randint(1, 3)
            data = LearningData(
                [
                    [
                        tuple(rng.choice((10, 11)) for _ in range(rng.randint(0, 3)))
                        for _ in range(ncols)
                    ]
                    for _ in range(rng.randint(1, 3))
                ]
            )
            t = infer(data, FULL)
            assert is_solvable(t)
            assert validate(data, t)


class TestInferMatchesOracle:
    # `infer` keeps only the path of steps and composes it backwards; the
    # oracle's states substitute forwards as they go.  Both must give the
    # same normal-form pattern in every mode and under every rule set.

    @staticmethod
    def instances(seed, count=40):
        rng = random.Random(seed)
        for _ in range(count):
            t = random_solvable(rng, max_arity=3, max_measure=10)
            rows_ = []
            for _r in range(rng.randint(1, 4)):
                theta = {
                    v: tuple(rng.choice((10, 11, 12)) for _ in range(rng.randint(0, 2)))
                    for v in t.variables()
                }
                rows_.append(apply_substitution(theta, t))
            yield rows_

    @pytest.mark.parametrize(
        "constants,postfix,reverse", list(itertools.product((False, True), repeat=3))
    )
    def test_every_mode_and_rule_set(self, constants, postfix, reverse):
        cfg = InferConfig(constants=constants, postfix=postfix, reverse=reverse)
        for rows_ in self.instances(seed=21):
            for data in (
                LearningData(rows_),
                LearningData([[set(cell) for cell in row] for row in rows_], Mode.SET),
                LearningData(rows_, Mode.MULTISET),
            ):
                got = infer(data, cfg)
                want = final_state(data, cfg).pattern
                assert got == want, (rows_, data)
                assert str(got) == str(want), (rows_, data)


class TestInferAll:
    def test_nondeterminism_example(self):
        result = infer_all(M(["aa", "a", "aac"], ["b", "bb", "bbd"]))
        assert P("(x, y, x z)") in result.patterns
        assert P("(x, y, y z)") in result.patterns
        assert result.complete

    def test_all_epsilon(self):
        result = infer_all(M(["", ""]))
        assert result.patterns == frozenset({P("(eps, eps)")})

    def test_single_stuck(self):
        result = infer_all(M(["a"]))
        assert result.patterns == frozenset({P("(x)")})

    def test_limit_flags_partial(self):
        result = infer_all(
            M(["aabb", "abab", "aab", "abb"]),
            InferConfig(constants=True, exhaustive_limit=2),
        )
        assert not result.complete

    def test_completeness_small_scale(self):
        # any solvable pattern strictly fitted by the data is among the
        # reachable normal forms
        rng = random.Random(9)
        from stpchc.pattern_core import RuleSet, apply_substitution

        rules = RuleSet(constants=True, postfix=False, reverse=False)
        cfg = InferConfig(constants=True)
        found = 0
        for _ in range(60):
            t = random_solvable(rng, max_arity=3, max_measure=9, rules=rules)
            if not t.variables():
                continue
            m = rng.randint(2, 4)
            rows_ = []
            cols = {v: [] for v in t.variables()}
            for _r in range(m):
                theta = {
                    v: tuple(rng.choice((10, 11)) for _ in range(rng.randint(0, 2)))
                    for v in t.variables()
                }
                for v, val in theta.items():
                    cols[v].append(val)
                rows_.append(apply_substitution(theta, t))
            if not all(any(cell for cell in col) for col in cols.values()):
                continue  # not strict
            found += 1
            reach = reachable_patterns(LearningData(rows_), cfg)
            assert t in reach, (t, rows_)
        assert found >= 30


SORT_ROWS = [
    [(1, 2), (2, 1), (2,)],
    [(3, 4, 5), (4, 3, 5), (4,)],
]


def sorted_form_instance(x, y):
    """The instance of the sorted form (sort(x y), x y, x): what a rule
    stripping the sorted letters of one column from another would infer."""
    return (tuple(sorted(x + y)), x + y, x)


class TestSortRuleRegression:
    # A sorting rule is not part of the rule set.  These tests keep the
    # facts showing why adding one would break minimality.

    def test_divergent_normal_forms(self):
        data = LearningData(SORT_ROWS)
        # a sorting rule would apply to the start state: in every row,
        # column 0 starts with the sorted letters of column 1
        assert all(r[0][: len(r[1])] == tuple(sorted(r[1])) for r in data.rows)
        # and the plain normal form is reachable as well
        assert P("(z, xy, x)") in infer_all(data, InferConfig()).patterns

    def test_sort_rule_off_by_default(self):
        data = LearningData(
            [
                [(1, 2), (2, 1), (2,)],
                [(3, 4, 5), (4, 3, 5), (4,)],
            ]
        )
        result = infer_all(data, InferConfig())
        assert result.patterns == frozenset({P("(z, xy, x)")})

    def test_minimality_failure_is_demonstrated(self):
        # the sorted normal form denotes a strict subset of the plain one:
        # exactly the situation the production rule set never produces
        from itertools import product

        from stpchc.pattern_core import member

        plain_form = P("(z, xy, x)")
        strings = [(), (1,), (2,), (1, 2), (2, 1)]
        for x_val, y_val in product(strings, repeat=2):
            assert member(sorted_form_instance(x_val, y_val), plain_form)
        # ((2,1), (2,1), (2,)) fits the plain form but not the sorted one
        witness = ((2, 1), (2, 1), (2,))
        assert member(witness, plain_form)
        assert not any(
            sorted_form_instance(x_val, y_val) == witness
            for x_val, y_val in product(strings, repeat=2)
        )


class TestFinalState:
    def test_witness_substitution_strict(self):
        st = final_state(M(["a", "b", "ab"], ["aa", "", "aa"]), CONSTS)
        assert st.substitution.is_strict()


class TestValidate:
    def test_worked_example(self):
        assert validate(M(["a", "b", "ab"], ["aa", "", "aa"]), P("(a x, y, a x y)"))

    def test_unequal_components(self):
        assert not validate(M(["a", "b"]), P("(x, x)"))

    def test_distinct_variables_fit_everything(self):
        assert validate(M(["a", "b"], ["ab", ""]), P("(x, y)"))


class TestCsvRoundTrip:
    def test_letters_and_tokens(self):
        data = LearningData.from_csv("ab,cd\n,1.2.0\n")
        assert data.rows == ((  (10, 11), (12, 13)), ((), (1, 2, 0)))
        again = LearningData.from_csv(data.to_csv())
        assert again == data


class TestLearningDataModes:
    def test_mode_is_part_of_equality(self):
        cells = [[(1, 2), (2,)], [(3,), ()]]
        assert LearningData(cells) != LearningData(cells, Mode.MULTISET)
        assert LearningData(cells, Mode.SET) == LearningData(cells, Mode.SET)

    def test_collection_cells_sorted(self):
        data = LearningData.from_csv("2.1.2,3\n", Mode.MULTISET)
        assert data.rows == (((1, 2, 2), (3,)),)
        assert LearningData.from_csv(data.to_csv(), Mode.MULTISET) == data

    def test_set_csv_rejects_duplicate_element(self):
        with pytest.raises(ValueError, match="duplicate elements"):
            LearningData.from_csv("1.1,2\n", Mode.SET)


class TestDegenerateMatrices:
    def test_fully_erased_state_keeps_row_count(self):
        data = M([""], [""])
        state = RewriteState.initial(data)
        while True:
            assert state.reconstructed_rows() == data.rows
            descs = applicable_rewrites(state, InferConfig())
            if not descs:
                break
            state = rewrite_step(state, descs[0])
        assert state.pattern == P("(eps)")
        assert state.columns == ()
        assert state.reconstructed_rows() == (((),), ((),))

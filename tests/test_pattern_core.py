import itertools
import pickle
import random

import pytest

from stpchc import pattern_core
from stpchc.pattern_core import (
    BAGS,
    STRINGS,
    Mode,
    NotSolvableError,
    PatternSyntaxError,
    Rule,
    RuleSet,
    TuplePattern,
    apply_substitution,
    const_atom,
    equivalent,
    includes,
    is_solvable,
    measure,
    member,
    parse_pattern,
    pred_steps,
    render_pattern,
    residual,
    solving_path,
    var_atom,
)

from helpers import (
    A,
    B,
    bounded_language,
    brute_force_member,
    exhaustive_solvable,
    random_solvable,
    random_tuple,
    replays,
    s,
)

BASE = RuleSet(constants=True, postfix=False, reverse=False)


def P(text, **kw):
    return parse_pattern(text, **kw)


class TestParseRender:
    def test_reverse_pattern(self):
        t = P("(x, y, x^R y)")
        assert t.elements == (
            (var_atom(0),),
            (var_atom(1),),
            (var_atom(0, reverse=True), var_atom(1)),
        )

    def test_constant_pattern(self):
        t = P("(a x, y, a x y)")
        a = const_atom(A)
        assert t.elements == (
            (a, var_atom(0)),
            (var_atom(1),),
            (a, var_atom(0), var_atom(1)),
        )

    def test_syntax_error_offset(self):
        with pytest.raises(PatternSyntaxError) as exc:
            P("(x,")
        assert exc.value.position == 3

    def test_juxtaposed_variables(self):
        t = P("(x1x2, x2x1, x1)")
        assert t.elements == (
            (var_atom(0), var_atom(1)),
            (var_atom(1), var_atom(0)),
            (var_atom(0),),
        )

    def test_eps_and_quoted(self):
        t = P("(eps, 'z b)")
        assert t.elements[0] == ()
        assert t.elements[1][0] == const_atom(s("z")[0])

    def test_round_trip(self):
        for text in ["(x, y, x^R y)", "(a x, y, a x y)", "(eps, x0)", "('z 1 B)"]:
            t = P(text)
            assert P(render_pattern(t)) == t

    def test_identified_up_to_renaming(self):
        assert P("(u, uv)") == P("(x, xy)")
        assert P("(xy, x)") != P("(xy, y)")


class TestSubstitution:
    def test_plain(self):
        t = P("(x, y, x y)")
        assert apply_substitution({0: s("a"), 1: s("b")}, t) == (
            s("a"),
            s("b"),
            s("ab"),
        )

    def test_reverse(self):
        t = P("(x, y, x^R y)")
        assert apply_substitution({0: s("ab"), 1: s("cd")}, t) == (
            s("ab"),
            s("cd"),
            s("bacd"),
        )

    def test_empty_string(self):
        t = P("(x x)")
        assert apply_substitution({0: ()}, t) == ((),)

    def test_unbound(self):
        with pytest.raises(KeyError):
            apply_substitution({}, P("(x)"))

    def test_set_mode_disjointness(self):
        t = TuplePattern(((var_atom(0), var_atom(1)),), Mode.SET)
        assert apply_substitution({0: (1,), 1: (2,)}, t) == (frozenset({1, 2}),)
        with pytest.raises(ValueError):
            apply_substitution({0: (1,), 1: (1,)}, t)

    def test_multiset_mode_sum(self):
        t = TuplePattern(((var_atom(0), var_atom(1)),), Mode.MULTISET)
        assert apply_substitution({0: (1,), 1: (1, 2)}, t) == ((1, 1, 2),)


class TestMeasure:
    def test_examples(self):
        assert measure(P("(x, xx)")) == 5
        assert measure(P("(x1x2, x2x1, x1)")) == 8
        assert measure(TuplePattern(())) == 0


class TestPredSteps:
    def test_prefix_step_on_worked_pattern(self):
        t = P("(x1x2, x2x1, x1)")
        succs = {succ for _st, succ in pred_steps(t, BASE)}
        assert P("(x2, x2x1, x1)") in succs

    def test_stuck_pair(self):
        assert pred_steps(P("(x1x2, x2x1)"), BASE) == []

    def test_epsilon(self):
        steps = pred_steps(P("(eps, y)"), BASE)
        assert any(
            st.rule is Rule.EPSILON and succ == P("(y)") for st, succ in steps
        )

    def test_measure_decreases(self):
        rng = random.Random(7)
        for _ in range(80):
            t = random_solvable(rng)
            for _st, succ in pred_steps(t):
                assert measure(succ) < measure(t)


class TestSolvability:
    def test_table(self):
        assert is_solvable(P("(x1x2, x2x1, x1)"))
        assert is_solvable(P("(x, xy)"))
        assert is_solvable(P("(y, xy)"))  # needs postfix
        assert is_solvable(P("(l1, l2, l1^R l2)"))  # needs reverse
        assert not is_solvable(P("(x1x2, x2x1)"))
        assert not is_solvable(P("(xx)"))

    def test_postfix_only_pattern_needs_postfix(self):
        assert not is_solvable(P("(y, xy)"), BASE)

    def test_reverse_pattern_beyond_greedy(self):
        # the greedy first step at (x, y, x^R) strips the wrong side; the
        # search must still find the successful order
        assert is_solvable(P("(x, y, x^R)"))
        assert is_solvable(P("(x^R, y, x y)"))

    def test_strategy_independence_without_reverse(self):
        rng = random.Random(3)
        rules = RuleSet(constants=True, postfix=True, reverse=False)
        for _ in range(150):
            t = random_solvable(rng, max_arity=3, max_measure=12, rules=rules)
            assert exhaustive_solvable(t.elements, rules)
        # and random not-necessarily-solvable shapes agree with the oracle
        from helpers import enumerate_patterns

        for elements in enumerate_patterns(2, 5):
            got = is_solvable(TuplePattern(elements), rules)
            want = exhaustive_solvable(elements, rules)
            assert got == want, elements


class TestResidual:
    def test_prefix_case(self):
        t1 = P("(x2x1, x2, x3)")
        steps = [st for st, succ in pred_steps(t1, BASE) if st.rule is Rule.PREFIX]
        step = next(st for st in steps if st.j == 0 and st.i == 1)
        t0 = P("(y2y1, y2, y3)")
        assert residual(t0, t1, step) == P("(y1, y2, y3)")

    def test_constant_tuple_strip(self):
        # the l1-prefix step on (l1l2, l2l3, l1l2l3) strips "ab" off "abcd"
        t1 = P("(l1l2, l2l3, l1l2l3)")
        steps = [st for st, _ in pred_steps(t1) if st.rule is Rule.PREFIX and st.j == 2 and st.i == 0]
        assert steps
        t0 = TuplePattern(
            tuple(tuple(const_atom(v) for v in cell) for cell in (s("ab"), s("d"), s("abcd")))
        )
        want = TuplePattern(
            tuple(tuple(const_atom(v) for v in cell) for cell in (s("ab"), s("d"), s("cd")))
        )
        assert residual(t0, t1, steps[0]) == want

    def test_epsilon_mismatch(self):
        t1 = P("(eps, x)")
        step = pred_steps(t1, BASE)[0][0]
        assert step.rule is Rule.EPSILON
        t0 = P("(a, b)")
        assert residual(t0, t1, step) is None

    def test_arity_mismatch(self):
        t1 = P("(eps, x)")
        step = pred_steps(t1, BASE)[0][0]
        with pytest.raises(ValueError):
            residual(P("(a)"), t1, step)


class TestInclusion:
    def test_frozen_examples(self):
        assert includes(P("(x, x)"), P("(x, y)"))
        # a tuple of distinct variables is the full language
        assert includes(P("(a x, x b, x)"), P("(u, v, w)"))
        assert not includes(P("(x, y)"), P("(x, x)"))
        assert not includes(P("(x, y, xz)"), P("(x, y, yz)"))
        assert not includes(P("(x, y, yz)"), P("(x, y, xz)"))
        assert includes(P("(a x, x b, x)"), P("(x, y, z)"))

    def test_rejects_unsolvable(self):
        with pytest.raises(NotSolvableError):
            includes(P("(xx)"), P("(x)"))
        with pytest.raises(NotSolvableError):
            includes(P("(x)"), P("(xx)"))

    def test_rejects_collection_patterns(self):
        seq = P("(x, x y)")
        for mode in (Mode.SET, Mode.MULTISET):
            bag = P("(x, x y)", mode=mode)
            for t1, t2 in ((bag, bag), (seq, bag), (bag, seq)):
                with pytest.raises(ValueError, match="inclusion is defined for sequence patterns"):
                    includes(t1, t2)

    def test_bounded_agreement(self):
        rng = random.Random(11)
        pats = [random_solvable(rng, max_arity=2, max_measure=8) for _ in range(40)]
        for t1 in pats[:20]:
            for t2 in pats[20:]:
                if t1.arity != t2.arity:
                    continue
                got = includes(t1, t2)
                lang1 = bounded_language(t1, (A, B), 3)
                if got:
                    assert all(member(v, t2) for v in lang1)
                else:
                    big = bounded_language(t1, (A, B), 4)
                    assert any(not member(v, t2) for v in big)

    def test_preorder(self):
        rng = random.Random(13)
        pats = [random_solvable(rng, max_arity=2, max_measure=8) for _ in range(12)]
        for t in pats:
            assert includes(t, t)
        for ta in pats:
            for tb in pats:
                for tc in pats:
                    if ta.arity == tb.arity == tc.arity:
                        if includes(ta, tb) and includes(tb, tc):
                            assert includes(ta, tc)


class TestMember:
    def test_overlap_examples(self):
        t = P("(l1l2, l2l3, l1l2l3)")
        assert member((s("ab"), s("bcd"), s("abcd")), t)
        assert not member((s("ab"), s("d"), s("abcd")), t)
        assert member(((), ()), P("(x, x)"))

    def test_brute_force_examples(self):
        assert brute_force_member((s("aa"),), P("(xx)"), 2)
        assert not brute_force_member((s("a"),), P("(xx)"), 1)
        assert brute_force_member(
            (s("ab"), s("bcd"), s("abcd")), P("(l1l2, l2l3, l1l2l3)"), 4
        )

    def test_member_matches_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            t = random_solvable(rng, max_arity=3, max_measure=10)
            for _ in range(8):
                v = random_tuple(rng, t.arity)
                assert member(v, t) == brute_force_member(v, t, 4), (v, t)


class TestEquivalent:
    def test_examples(self):
        assert equivalent(P("(x, xy)"), P("(u, uv)"))
        assert equivalent(P("(x, y)"), P("(y, x)"))
        assert not equivalent(P("(x, xy)"), P("(x, yx)"))

    def test_rejects_collection_patterns(self):
        for mode in (Mode.SET, Mode.MULTISET):
            with pytest.raises(ValueError, match="inclusion is defined for sequence patterns"):
                equivalent(P("(x, y)", mode=mode), P("(y, x)", mode=mode))
            with pytest.raises(ValueError, match="inclusion is defined for sequence patterns"):
                equivalent(P("(x, y)"), P("(y, x)", mode=mode))


ALL_RULES = [RuleSet(*flags) for flags in itertools.product((False, True), repeat=3)]


def collection_language(t: TuplePattern, max_len: int) -> set:
    """Oracle for set and multiset membership: the tuples of `t` with every
    variable bound to a multiset of at most max_len letters a and b, each
    cell as `member` sees it (a frozenset or a sorted tuple)."""
    bags = [bag for k in range(max_len + 1) for bag in itertools.combinations_with_replacement((A, B), k)]
    variables = t.variables()
    out = set()
    for values in itertools.product(bags, repeat=len(variables)):
        try:
            out.add(apply_substitution(dict(zip(variables, values)), t))
        except ValueError:  # overlapping set-mode parts
            pass
    return out


def collection_member(values, language: set, mode: Mode) -> bool:
    if mode is Mode.SET:
        if any(len(set(cell)) != len(cell) for cell in values):
            return False
        return tuple(frozenset(cell) for cell in values) in language
    return tuple(tuple(sorted(cell)) for cell in values) in language


class TestSolvedOnce:
    """Each pattern is solved once per rule set; later queries replay the
    steps kept on it."""

    def queries(self, rng, t):
        """Random tuples and random members of `t`'s sequence reading."""
        out = [random_tuple(rng, t.arity, max_len=3) for _ in range(4)]
        for _ in range(4):
            theta = {v: random_tuple(rng, 1, max_len=2)[0] for v in t.variables()}
            out.append(apply_substitution(theta, TuplePattern(t.elements)))
        return out

    def test_member_agrees_with_oracles_under_every_rule_set(self):
        rng = random.Random(24)
        generated = [
            random_solvable(rng, max_arity=3, max_measure=8, rules=rules)
            for rules in ALL_RULES
            for _ in range(6)
        ]
        for seq in generated:
            for mode in Mode:
                t = TuplePattern(seq.elements, mode)
                alg = STRINGS if mode is Mode.SEQUENCE else BAGS
                values = self.queries(rng, t)
                language = None if mode is Mode.SEQUENCE else collection_language(t, 3)
                for rules in ALL_RULES:
                    path = solving_path(t, rules)
                    for _repeat in range(3):
                        for v in values:
                            if path is None:
                                with pytest.raises(NotSolvableError):
                                    member(v, t, rules)
                                continue
                            got = member(v, t, rules)
                            if mode is Mode.SEQUENCE:
                                assert got == brute_force_member(v, t, 4), (v, t, rules)
                                consts = tuple(tuple(const_atom(x) for x in cell) for cell in v)
                                assert got == replays(consts, [st for st, _ in path], alg)
                            else:
                                assert got == collection_member(v, language, mode), (v, t, rules)
                        assert is_solvable(t, rules) == (path is not None)

    def test_rule_sets_get_their_own_answers(self):
        t = P("(x, x^R)")
        row = (s("ab"), s("ba"))
        without, with_ = RuleSet(reverse=False), RuleSet(reverse=True)
        for _ in range(2):
            with pytest.raises(NotSolvableError):
                member(row, t, without)
            assert member(row, t, with_)
            assert not member((s("ab"), s("ab")), t, with_)
            assert not is_solvable(t, without)
            assert is_solvable(t, with_)
            with pytest.raises(NotSolvableError):
                includes(t, t, without)
            assert includes(t, t, with_)

    def test_unsolvable_raises_on_every_call(self):
        t = P("(xx)")
        for _ in range(3):
            with pytest.raises(NotSolvableError):
                member((s("aa"),), t)
            with pytest.raises(NotSolvableError):
                includes(t, P("(x)"))
            with pytest.raises(NotSolvableError):
                includes(P("(x)"), t)
            assert not is_solvable(t)

    @pytest.fixture
    def searches(self, monkeypatch):
        """The cells of every solving-path search made."""
        found = []
        find_path = pattern_core.find_path

        def counting(cells, *args, **kwargs):
            found.append(cells)
            return find_path(cells, *args, **kwargs)

        monkeypatch.setattr(pattern_core, "find_path", counting)
        return found

    def test_one_search_per_pattern_and_rule_set(self, searches):
        t, u = P("(l1l2, l2l3, l1l2l3)"), P("(x, y, x y z)")
        for _ in range(5):
            member((s("ab"), s("bc"), s("abbc")), t)
            member((s("ab"), s("bc"), s("abbc")), t, RuleSet(reverse=False))
            equivalent(t, u)
        assert len(searches) == 3  # t under both rule sets, u once

    def test_is_solvable_reads_kept_steps_but_keeps_none(self, searches):
        t = P("(x, x^R)")
        assert is_solvable(t) and is_solvable(t)
        assert len(searches) == 2
        member((s("ab"), s("ba")), t)
        assert is_solvable(t) and not is_solvable(t, RuleSet(reverse=False))
        assert not is_solvable(t, RuleSet(reverse=False))
        assert len(searches) == 5  # two, member's one, two under reverse=False

    def test_kept_steps_are_invisible(self):
        texts = ["(l1l2, l2l3, l1l2l3)", "(x, x^R y)", "(a x, eps, x b)", "(xx)"]
        for text in texts:
            for mode in Mode:
                queried, fresh = P(text, mode=mode), P(text, mode=mode)
                try:
                    member(tuple(s("ab") for _ in range(queried.arity)), queried)
                except NotSolvableError:
                    pass
                if mode is Mode.SEQUENCE and is_solvable(queried):
                    assert includes(queried, queried)
                assert queried == fresh and fresh == queried
                assert hash(queried) == hash(fresh)
                assert str(queried) == str(fresh) and repr(queried) == repr(fresh)
                assert pickle.dumps(queried) == pickle.dumps(fresh)
                clone = pickle.loads(pickle.dumps(queried))
                assert clone == queried and hash(clone) == hash(queried)
                assert is_solvable(clone) == is_solvable(fresh)

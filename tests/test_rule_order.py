"""The enumeration orders of the rewrite rules, pinned step by step.

Inference takes the first applicable step and the path searches try steps in
order, so these orders decide which normal form, which solving path and
which printed model comes out.  Data-side steps are rule-major (every
principal for one rule, then the next rule); pattern-side steps are
principal-major."""

from stpchc.collection_inference import CollectionData
from stpchc.data import LearningData
from stpchc.pattern_core import (
    BAGS,
    DEFAULT_RULES,
    Mode,
    TuplePattern,
    const_atom,
    parse_pattern,
    pattern_steps,
    pred_steps,
    render_pattern,
    var_atom,
)
from stpchc.stp_inference import InferConfig, RewriteState, applicable_rewrites

from helpers import A, B, rows

FULL = InferConfig(constants=True, postfix=True, reverse=True)


def fields(step):
    return (step.rule.value, step.j, step.i, step.letter)


def collection_pattern_steps(t):
    return [
        (*fields(step), render_pattern(TuplePattern(succ, t.mode)))
        for step, succ in pattern_steps(t.elements, BAGS, DEFAULT_RULES)
    ]


def collection_data_steps(data, cfg):
    state = RewriteState.initial(data)
    return [fields(step) for step in applicable_rewrites(state, cfg)]


def test_pattern_steps_principal_major():
    # element 1 and 2 admit every sequence rule, element 2 both reverse
    # rules for the same auxiliary
    t = parse_pattern("(a, a y a, a y^R a x a y^R a, eps)")
    got = [(*fields(step), render_pattern(succ)) for step, succ in pred_steps(t)]
    assert got == [
        ("cprefix", 0, None, A, "(eps, a x0 a, a x0^R a x1 a x0^R a, eps)"),
        ("cpostfix", 0, None, A, "(eps, a x0 a, a x0^R a x1 a x0^R a, eps)"),
        ("prefix", 1, 0, None, "(a, x0 a, a x0^R a x1 a x0^R a, eps)"),
        ("cprefix", 1, None, A, "(a, x0 a, a x0^R a x1 a x0^R a, eps)"),
        ("postfix", 1, 0, None, "(a, a x0, a x0^R a x1 a x0^R a, eps)"),
        ("cpostfix", 1, None, A, "(a, a x0, a x0^R a x1 a x0^R a, eps)"),
        ("rprefix", 1, 0, None, "(a, x0 a, a x0^R a x1 a x0^R a, eps)"),
        ("rpostfix", 1, 0, None, "(a, a x0, a x0^R a x1 a x0^R a, eps)"),
        ("prefix", 2, 0, None, "(a, a x0 a, x0^R a x1 a x0^R a, eps)"),
        ("cprefix", 2, None, A, "(a, a x0 a, x0^R a x1 a x0^R a, eps)"),
        ("postfix", 2, 0, None, "(a, a x0 a, a x0^R a x1 a x0^R, eps)"),
        ("cpostfix", 2, None, A, "(a, a x0 a, a x0^R a x1 a x0^R, eps)"),
        ("rprefix", 2, 0, None, "(a, a x0 a, x0^R a x1 a x0^R a, eps)"),
        ("rpostfix", 2, 0, None, "(a, a x0 a, a x0^R a x1 a x0^R, eps)"),
        ("rprefix", 2, 1, None, "(a, a x0 a, x1 a x0^R a, eps)"),
        ("rpostfix", 2, 1, None, "(a, a x0 a, a x0^R a x1, eps)"),
        ("epsilon", 3, None, None, "(a, a x0 a, a x0^R a x1 a x0^R a)"),
    ]


def test_data_steps_rule_major():
    # two members of the pattern above: y = bc, x = d and y = b, x = eps
    data = LearningData(rows(["a", "abca", "acbadacba", ""], ["a", "aba", "abaaba", ""]))
    state = RewriteState.initial(data)
    assert [fields(d) for d in applicable_rewrites(state, FULL)] == [
        ("epsilon", 3, None, None),
        ("prefix", 1, 0, None),
        ("prefix", 2, 0, None),
        ("cprefix", 0, None, A),
        ("cprefix", 1, None, A),
        ("cprefix", 2, None, A),
        ("postfix", 1, 0, None),
        ("postfix", 2, 0, None),
        ("cpostfix", 0, None, A),
        ("cpostfix", 1, None, A),
        ("cpostfix", 2, None, A),
        ("rprefix", 1, 0, None),
        ("rprefix", 2, 0, None),
        ("rprefix", 2, 1, None),
        ("rpostfix", 1, 0, None),
        ("rpostfix", 2, 0, None),
        ("rpostfix", 2, 1, None),
    ]


X, Y = var_atom(0), var_atom(1)
CA, CB = const_atom(A), const_atom(B)


def test_set_pattern_steps():
    t = TuplePattern(((X, Y, CA), (X,), (), (CA, CB, Y)), Mode.SET)
    assert render_pattern(t) == "(a x0 x1, x0, eps, a b x1)"
    assert collection_pattern_steps(t) == [
        ("prefix", 0, 1, None, "(a x0, x1, eps, a b x0)"),
        ("cprefix", 0, None, A, "(x0 x1, x0, eps, a b x1)"),
        ("epsilon", 2, None, None, "(a x0 x1, x0, a b x1)"),
        ("cprefix", 3, None, A, "(a x0 x1, x0, eps, b x1)"),
    ]


def test_multiset_pattern_steps():
    t = TuplePattern(((X, X, Y, CA), (X,), (X, Y), (CA, CA, CB)), Mode.MULTISET)
    assert render_pattern(t) == "(a x0 x0 x1, x0, x0 x1, a a b)"
    assert collection_pattern_steps(t) == [
        ("prefix", 0, 1, None, "(a x0 x1, x0, x0 x1, a a b)"),
        ("prefix", 0, 2, None, "(a x0, x0, x0 x1, a a b)"),
        ("cprefix", 0, None, A, "(x0 x0 x1, x0, x0 x1, a a b)"),
        ("prefix", 2, 1, None, "(a x0 x0 x1, x0, x1, a a b)"),
        ("cprefix", 3, None, A, "(a x0 x0 x1, x0, x0 x1, a b)"),
    ]


def test_collection_data_steps_rule_major():
    # the smallest shared letter is the one constant step per column
    data = CollectionData(
        [[(), (1, 2), (1, 2, 3), (2, 3)], [(), (1, 2, 4), (1, 2, 3, 4), (2, 3)]],
        Mode.MULTISET,
    )
    assert collection_data_steps(data, FULL) == [
        ("epsilon", 0, None, None),
        ("prefix", 2, 1, None),
        ("prefix", 2, 3, None),
        ("cprefix", 1, None, 1),
        ("cprefix", 2, None, 1),
        ("cprefix", 3, None, 2),
    ]

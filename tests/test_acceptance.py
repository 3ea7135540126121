"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete."""

import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from stpchc.data import LearningData
from stpchc.collection_inference import CollectionData
from stpchc.chc_core import SampleBudget, parse_smtlib
from stpchc.formulas import FImp, Sort, TConcat, TRev, TVar, FEq
from stpchc.pattern_core import (
    Mode,
    RuleSet,
    TuplePattern,
    brute_force_member,
    canonical_data,
    const_atom,
    equivalent,
    includes,
    is_solvable,
    measure,
    member,
    parse_pattern,
    var_atom,
    STRINGS,
    find_path,
    strip,
)
from stpchc.smt_backend import BoundedChecker, Bounds
from stpchc.solver import (
    RefuteBudget,
    SolverConfig,
    VerdictKind,
    check_goal,
    refute,
    replay_derivation,
    solve,
    solve_list_mode,
)
from stpchc.stp_inference import InferConfig, infer, infer_all

from helpers import A, B, bounded_language, random_solvable, random_tuple, rows, s

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@contextmanager
def criterion(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name} ({time.monotonic() - started:.1f}s)")
        raise
    print(f"[PASS] {name} ({time.monotonic() - started:.1f}s)")


def P(text):
    return parse_pattern(text)


def test_worked_example_inference():
    with criterion("worked-example inference"):
        started = time.monotonic()
        got = infer(
            LearningData(rows(["a", "b", "ab"], ["aa", "", "aa"])),
            InferConfig(constants=True),
        )
        assert got == P("(a x, y, a x y)")
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        got = infer(
            LearningData(rows(["a", "baa"], ["bc", "abcbc"])),
            InferConfig(postfix=True),
        )
        assert got == P("(x, y x x)")
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        got = infer(
            LearningData(rows(["ab", "cd", "bacd"], ["bc", "da", "cbda"])),
            InferConfig(reverse=True),
        )
        assert got == P("(x, y, x^R y)")
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        got = infer(
            CollectionData(
                [
                    [s("a"), s("b"), s("ab")],
                    [s("b"), s("bc"), s("bc")],
                ],
                Mode.SET,
            )
        )
        X, Y, Z = var_atom(0), var_atom(1), var_atom(2)
        assert got == TuplePattern(((X, Z), (Y, Z), (X, Y, Z)), Mode.SET)
        assert time.monotonic() - started < 1.0

        started = time.monotonic()
        result = infer_all(LearningData(rows(["aa", "a", "aac"], ["b", "bb", "bbd"])))
        assert P("(x, y, x z)") in result.patterns
        assert P("(x, y, y z)") in result.patterns
        assert time.monotonic() - started < 1.0


def test_solvability_table():
    with criterion("solvability table"):
        assert is_solvable(P("(x1x2, x2x1, x1)"))
        assert is_solvable(P("(x, xy)"))
        assert is_solvable(P("(y, xy)"))
        assert is_solvable(P("(l1, l2, l1^R l2)"))
        assert not is_solvable(P("(x1x2, x2x1)"))
        assert not is_solvable(P("(xx)"))


def test_decision_procedure_oracle_equivalence():
    with criterion("decision-procedure oracle equivalence"):
        started = time.monotonic()
        rng = random.Random(2026)
        patterns = [
            random_solvable(rng, max_arity=3, max_measure=10) for _ in range(500)
        ]
        discrepancies = 0
        for t in patterns:
            for _ in range(20):
                v = random_tuple(rng, t.arity, max_len=4)
                if member(v, t) != brute_force_member(v, t, 4):
                    discrepancies += 1
        assert discrepancies == 0

        # inclusion versus bounded language comparison, one-sided at the bound
        pairs = []
        for i in range(0, 400, 2):
            t1, t2 = patterns[i], patterns[i + 1]
            if t1.arity == t2.arity:
                pairs.append((t1, t2))
        assert len(pairs) >= 60
        for t1, t2 in pairs:
            inc = includes(t1, t2)
            if inc:
                for v in bounded_language(t1, (A, B), 4):
                    assert brute_force_member(v, t2, 4), (t1, t2, v)
            else:
                limit = measure(t1) + measure(t2)
                witness = None
                for max_len in (4, 6, min(limit, 8), limit):
                    for v in sorted(bounded_language(t1, (A, B), max_len),
                                    key=lambda v: sum(map(len, v))):
                        if not member(v, t2):
                            witness = v
                            break
                    if witness is not None:
                        break
                assert witness is not None, (t1, t2)
                assert max(map(len, witness), default=0) <= limit
        assert time.monotonic() - started < 60.0


def test_canonical_data_identification():
    with criterion("canonical-data identification"):
        started = time.monotonic()
        rng = random.Random(7)
        for _ in range(200):
            t = random_solvable(rng, max_arity=3, max_measure=10)
            data = canonical_data(t)
            assert data.m == 2
            n = t.arity
            atoms = measure(t) - n
            width = math.ceil(math.log2(n + 1)) + 1
            assert data.size() <= 2 * (atoms + n) * width, (t, data.size())
            cfg = InferConfig(constants=True, postfix=True, reverse=t.has_reverse())
            result = infer_all(data, cfg)
            assert result.complete
            assert result.patterns
            for got in result.patterns:
                assert equivalent(got, t), (t, got)
        assert time.monotonic() - started < 30.0


def test_minimality_small_scale_exhaustive():
    with criterion("minimality at small scale (exhaustive)"):
        started = time.monotonic()
        RULES = RuleSet(constants=True, postfix=False, reverse=False)
        CFG = InferConfig(constants=True, exhaustive_limit=10_000_000)
        CELLS = [(), (A,), (B,), (A, A), (A, B), (B, A), (B, B)]

        def enum_patterns(arity, max_atoms):
            out = []

            def element_options(ln, used):
                if ln == 0:
                    yield (), used
                    return
                for rest, u in element_options(ln - 1, used):
                    for c in (A, B):
                        yield rest + (const_atom(c),), u
                    for v in range(min(u + 1, max_atoms)):
                        yield rest + (var_atom(v),), max(u, v + 1)

            def extend(els, remaining, used):
                if len(els) == arity:
                    out.append(tuple(els))
                    return
                for ln in range(remaining + 1):
                    for el, u in element_options(ln, used):
                        extend(els + [el], remaining - ln, u)

            extend([], max_atoms, 0)
            return out

        solvable_pats = {
            arity: [
                els
                for els in enum_patterns(arity, 7 - arity)
                if find_path(els, STRINGS, RULES, exhaustive=False) is not None
            ]
            for arity in (2, 3)
        }

        def rows_of(els):
            vars_ = sorted({a >> 1 for el in els for a in el if a >= 0})
            results = set()

            def rec(i, assign):
                for el in els:
                    ln = 0
                    for a in el:
                        if a < 0:
                            ln += 1
                        elif (a >> 1) in assign:
                            ln += len(assign[a >> 1])
                    if ln > 2:
                        return
                if i == len(vars_):
                    row = []
                    for el in els:
                        cell = []
                        for a in el:
                            if a < 0:
                                cell.append(-a - 1)
                            else:
                                cell.extend(assign[a >> 1])
                        if len(cell) > 2:
                            return
                        row.append(tuple(cell))
                    results.add(tuple(row))
                    return
                for w in CELLS:
                    assign[vars_[i]] = w
                    rec(i + 1, assign)
                del assign[vars_[i]]

            rec(0, {})
            return results

        row_index = {2: {}, 3: {}}
        for arity in (2, 3):
            for pid, els in enumerate(solvable_pats[arity]):
                for row in rows_of(els):
                    row_index[arity][row] = row_index[arity].get(row, 0) | (1 << pid)

        path_cache, inc_cache = {}, {}

        def includes_cached(t0, t1):
            key = (t0, t1)
            hit = inc_cache.get(key)
            if hit is None:
                cur = t0
                path = path_cache.get(t1)
                if path is None:
                    path = find_path(t1, STRINGS, RULES, exhaustive=False)
                    path_cache[t1] = path
                hit = True
                for step, _succ in path:
                    cur = strip(cur, step, STRINGS)
                    if cur is None:
                        hit = False
                        break
                inc_cache[key] = hit
            return hit

        memo = {}
        matrices = checks = 0
        for arity in (2, 3):
            pats = solvable_pats[arity]
            idx = row_index[arity]
            for r1 in itertools.product(CELLS, repeat=arity):
                bits1 = idx.get(r1, 0)
                for r2 in itertools.product(CELLS, repeat=arity):
                    matrices += 1
                    candidates = bits1 & idx.get(r2, 0)
                    result = infer_all(LearningData([r1, r2]), CFG, memo=memo)
                    assert result.complete
                    for t1p in result.patterns:
                        t1e = t1p.elements
                        b = candidates
                        while b:
                            low = b & -b
                            pid = low.bit_length() - 1
                            b ^= low
                            t0e = pats[pid]
                            if includes_cached(t0e, t1e):
                                checks += 1
                                assert includes_cached(t1e, t0e), (
                                    t0e,
                                    t1e,
                                    (r1, r2),
                                )
        assert matrices == 7**4 + 7**6
        assert checks > 0
        assert time.monotonic() - started < 300.0


@pytest.fixture(scope="module")
def bench():
    return {
        "reva": parse_smtlib((BENCH / "reva.smt2").read_text()),
        "take_drop": parse_smtlib((BENCH / "take_drop.smt2").read_text()),
        "sort": parse_smtlib((BENCH / "sort.smt2").read_text()),
    }


def test_chc_end_to_end(bench):
    with criterion("CHC end-to-end (reva / take-drop / sort)"):
        started = time.monotonic()
        verdict = solve_list_mode(bench["reva"], SolverConfig(seed=0))
        assert verdict.kind is VerdictKind.SAT
        assert time.monotonic() - started < 10.0
        checker = BoundedChecker(Bounds(max_list_len=4, max_elem=2))
        args = [TVar(f"l{i}", Sort.LIST) for i in range(3)]
        got = verdict.model.models["reva"].formula(args)
        want = FEq(args[2], TConcat(TRev(args[0]), args[1]))
        assert checker.counterexamples(FImp(got, want)) == []
        assert checker.counterexamples(FImp(want, got)) == []

        verdict = solve(bench["take_drop"], SolverConfig(seed=0), mode="list-len")
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "list-len"
        assert check_goal(verdict.model, bench["take_drop"], checker).status == "valid"

        verdict = solve(bench["sort"], SolverConfig(seed=0), mode="multiset")
        assert verdict.kind is VerdictKind.SAT
        assert verdict.mode == "multiset"


def test_refutation(bench):
    with criterion("refutation suite"):
        unsat_files = sorted((BENCH / "unsat").glob("*.smt2"))
        assert len(unsat_files) == 5
        for path in unsat_files:
            system = parse_smtlib(path.read_text())
            started = time.monotonic()
            witness = refute(system)
            elapsed = time.monotonic() - started
            assert witness is not None, path.name
            assert witness.depth <= 4
            assert replay_derivation(system, witness), path.name
            assert elapsed < 5.0, (path.name, elapsed)
        for name in ("reva", "take_drop"):
            for depth in range(1, 7):
                assert refute(bench[name], RefuteBudget(depth=depth)) is None, (
                    name,
                    depth,
                )


def test_counterexample_hygiene(bench):
    with criterion("counterexample hygiene regression"):
        from stpchc.chc_core import Sample, derivable

        spurious = Sample("reva", ((0, 1, 2), (), (1, 2, 0)), ("counterexample",))
        assert not derivable(bench["reva"], "reva", spurious.values, 10)
        # with depth-0 sampling the checker's counterexamples include
        # underivable head instances; the gate rejects them
        cfg = SolverConfig(seed=0, sampling=SampleBudget(depth=0, count=4))
        verdict = solve_list_mode(bench["reva"], cfg)
        assert verdict.kind is VerdictKind.SAT
        assert verdict.stats["rejected_cex"] >= 1
        checker = BoundedChecker(Bounds(max_list_len=4, max_elem=2))
        args = [TVar(f"l{i}", Sort.LIST) for i in range(3)]
        got = verdict.model.models["reva"].formula(args)
        want = FEq(args[2], TConcat(TRev(args[0]), args[1]))
        assert checker.counterexamples(FImp(got, want)) == []
        assert checker.counterexamples(FImp(want, got)) == []


def test_sort_rule_non_example():
    with criterion("sorting-rule minimality failure regression"):
        data = LearningData(
            [
                [(1, 2), (2, 1), (2,)],
                [(3, 4, 5), (4, 3, 5), (4,)],
            ]
        )
        # a rule stripping the sorted letters of column 1 from the front of
        # column 0 would apply, leading to the sorted form (sort(x y), x y, x)
        assert all(r[0][: len(r[1])] == tuple(sorted(r[1])) for r in data.rows)
        plain_form = P("(z, xy, x)")
        # the sorted form holds only tuples whose first component sorts the
        # second; this member of the plain form is not one
        witness = ((2, 1), (2, 1), (2,))
        assert member(witness, plain_form)
        assert witness[0] != tuple(sorted(witness[1]))
        # the production surface never exposes the rule
        from stpchc.cli import build_parser

        parser = build_parser()
        for action_group in parser._subparsers._group_actions:
            for sub in action_group.choices.values():
                for action in sub._actions:
                    for opt in action.option_strings:
                        assert "sort" not in opt
        assert "_sort_rule" not in InferConfig.__init__.__doc__ if InferConfig.__init__.__doc__ else True
        result_plain = infer_all(data, InferConfig())
        assert plain_form in result_plain.patterns
        # no production normal form is the smaller sorted one
        assert all(member(witness, t) for t in result_plain.patterns)

"""Clause checking: one protocol, two checkers.

A checker answers `counterexamples(f, limit)`: at most `limit` assignments
that falsify `f`, each re-evaluated by the interpreter `formulas.eval_formula`,
so `[]` means `f` holds.  A checker that cannot decide raises `Unknown` with
its reason.  Its `bounds` say where the answer holds: the bounded checker's
`Bounds`, or None for an answer that holds for every value.

The bounded checker enumerates assignments over small lists and integers.
Each query is planned once: the antecedent of an implication is split into
conjuncts, and for each the plan holds its sorted variables and, for an
equation, the bare-variable sides that can define a variable and the sides
that can be matched against the other side's value.  One recursive search
then walks the assignments.  At each node it decides every conjunct whose
variables are all assigned, so a partial assignment that already falsifies
the antecedent is refuted before its remaining variables are enumerated;
assigns the variable an equation forces, solved by `chc_core.match_term`,
the same matcher the ground joins use; and otherwise enumerates the next
variable, one buried inside a term before the bare side of an equation.
Variables only the consequent mentions are swept at the leaves.

A branch skips the values under which a top-level antecedent atom is sure
to be False (forward checking: Haralick & Elliott, AI 1980).  An atom over
an undefined side is False, and `ldiff(p, w)` in a side, outside any `ite`,
is defined only where `p` is a prefix of `w`, `rdiff(w, s)` only where `s`
is a suffix; a `p` or `s` that is a `cons` chain bounds its tail too.  Once
the other variables of such a condition are assigned, a branch on a bare
part tries only the prefixes (suffixes) of the whole's value, a branch on a
bare whole only the lists of the domain that start (end) with the part's,
from an index the checker builds once, and any other branch checks each
value.  No counterexample lies below a skipped value, so the results and
their order stay the same.

The search walks no term tree.  Each query compiles its conjuncts and its
consequent once, to closures over the environment (Feeley & Lapalme, "Using
closures for code generation", 1987).  Every atom side with a variable below
its root keeps its own cache, keyed by the values of its variables, undefined
results included; equal sides of one query share one cache.

The search breaks the symmetry of element values (the least-number heuristic
of SEM: Zhang & Zhang, IJCAI 1995).  Once per query, a union-find over its
Int-valued terms, joined by equations and `ite` branches, puts every list
element, `cons` head, `count` element and integer of a collection view in
one element class.  The precondition is that no arithmetic (`+`, `-`, `*`,
`len`, the result of `count`) and no order atom meets that class.  Then any
permutation of element values that keeps each block (`0..max_elem` within
the integer range, the integer range only, the elements only) and fixes the
values of the query's constants maps counterexamples to counterexamples.  So
where a branch assigns a list or an Int of the element class, it tries only
the values whose new elements are each the least value of their block that
the assignment so far does not use.  Every value it skips comes after the
canonical value that stands for it, and the same counterexamples lie below
both, so the reduced search decides validity, and finds the same first
counterexample, as the full one.  A query asking for more than one
counterexample that does have one is searched again without reduction, so
its ordered list is exactly the full search's.

The external checker drives an SMT process over the sequence theory, through
`ask`, the one helper that runs an external solver; collection atoms have no
encoding there.  Its counter-models are never trusted without re-evaluation.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import signal
import subprocess
from dataclasses import dataclass, field
from typing import Callable, Optional

from .chc_core import match_term, numeral, read_sexps, symbol
from .formulas import (
    _ATOMS,
    _TERM_CHILDREN,
    FAnd,
    FEq,
    FFalse,
    FImp,
    FNot,
    FOr,
    FSubset,
    FTrue,
    Formula,
    Sort,
    TAdd,
    TCollDiff,
    TCollOf,
    TConcat,
    TCons,
    TCount,
    TInt,
    TIte,
    TLdiff,
    TLen,
    TMul,
    TRdiff,
    TRev,
    TSeq,
    TSub,
    TVar,
    Term,
    Undefined,
    eval_formula,
    eval_term,  # not called here; kept as the name perfbench/tracing.py counts
    formula_vars,
    render_formula,
    term_vars,
)
from .pattern_core import bag_minus


@dataclass(frozen=True)
class Bounds:
    max_list_len: int = 4
    max_elem: int = 2
    int_lo: int = 0
    int_hi: int = 5


class Unknown(Exception):
    """A checker cannot decide; the message is the reason."""


def _all_lists(max_len: int, max_elem: int) -> tuple[tuple[int, ...], ...]:
    out = [()]
    frontier = [()]
    elems = range(max_elem + 1)
    for _ in range(max_len):
        frontier = [w + (v,) for w in frontier for v in elems]
        out.extend(frontier)
    return tuple(out)


def _flatten_and(f: Formula) -> list[Formula]:
    if isinstance(f, FAnd):
        out = []
        for p in f.parts:
            out.extend(_flatten_and(p))
        return out
    if isinstance(f, FTrue):
        return []
    return [f]


# The value of an undefined atom side: the compiled sides return it where
# `eval_term` raises `Undefined`, and the side caches store it.
_UNDEF = object()


def _term(t: Term) -> Callable:
    """`t` compiled to a closure that maps an environment binding every
    variable of `t` to `eval_term(t, env)`, raising `Undefined` where it
    does."""
    tt = type(t)
    if tt is TVar:
        return operator.itemgetter(t.name)
    if tt is TInt or tt is TSeq:
        value = t.value if tt is TInt else t.values
        return lambda env: value
    if tt is TCons:
        head, tail = _term(t.head), _term(t.tail)
        return lambda env: (head(env),) + tail(env)
    if tt is TAdd or tt is TConcat:
        a, b = _term(t.a), _term(t.b)
        return lambda env: a(env) + b(env)
    if tt is TSub:
        a, b = _term(t.a), _term(t.b)
        return lambda env: a(env) - b(env)
    if tt is TMul:
        factor, x = t.factor, _term(t.t)
        return lambda env: factor * x(env)
    if tt is TIte:
        cond = _formula(t.cond, _guarded)
        then, other = _term(t.then), _term(t.other)
        return lambda env: then(env) if cond(env) else other(env)
    if tt is TLen:
        x = _term(t.t)
        return lambda env: len(x(env))
    if tt is TRev:
        x = _term(t.t)
        return lambda env: x(env)[::-1]
    if tt is TLdiff:
        prefix, whole = _term(t.prefix), _term(t.t)

        def ldiff(env):
            p = prefix(env)
            w = whole(env)
            if w[: len(p)] != p:
                raise Undefined("ldiff on a non-prefix")
            return w[len(p):]
        return ldiff
    if tt is TRdiff:
        whole, suffix = _term(t.t), _term(t.suffix)

        def rdiff(env):
            s = suffix(env)
            w = whole(env)
            if len(s) > len(w) or (len(s) and w[-len(s):] != s):
                raise Undefined("rdiff on a non-suffix")
            return w[: len(w) - len(s)]
        return rdiff
    if tt is TCollOf:
        x = _term(t.t)
        view = frozenset if t.mode == "set" else lambda v: tuple(sorted(v))

        def coll_of(env):
            v = x(env)
            return view((v,) if isinstance(v, int) else v)
        return coll_of
    if tt is TCollDiff:
        a, b = _term(t.a), _term(t.b)

        def difference(env):
            x, y = a(env), b(env)
            if isinstance(x, frozenset):
                if not y <= x:
                    raise Undefined("set difference without containment")
                return x - y
            rest = bag_minus(x, y)
            if rest is None:
                raise Undefined("multiset difference without containment")
            return rest
        return difference
    if tt is TCount:
        x, l = _term(t.x), _term(t.l)

        def count(env):
            v = x(env)
            return sum(1 for w in l(env) if w == v)
        return count
    raise TypeError(f"not a term: {t!r}")


def _guarded(t: Term) -> Callable:
    """`t` compiled as an atom side that is not cached: its value, or
    `_UNDEF` where it is undefined."""
    compute = _term(t)
    if type(t) in (TVar, TInt, TSeq):
        return compute  # a leaf is never undefined

    def side(env):
        try:
            return compute(env)
        except Undefined:
            return _UNDEF
    return side


def _side(t: Term, sides: dict) -> Callable:
    """`t` compiled as an atom side of one query: its value, or `_UNDEF`.
    A side with a variable below its root keeps a cache keyed by the values
    of its variables, undefined results included.  `sides` holds the sides
    the query has compiled, so equal sides share one closure and cache."""
    side = sides.get(t)
    if side is not None:
        return side
    names = sorted(_vars(t))
    if type(t) is TVar or not names:  # nothing to cache
        side = _guarded(t)
    else:
        side = _memoised(_term(t), operator.itemgetter(*names))
    sides[t] = side
    return side


def _memoised(compute: Callable, key_of: Callable) -> Callable:
    cache: dict = {}

    def side(env):
        key = key_of(env)
        value = cache.get(key, cache)  # the cache itself: not there yet
        if value is cache:
            try:
                value = compute(env)
            except Undefined:
                value = _UNDEF
            cache[key] = value
        return value
    return side


def _formula(f: Formula, side: Callable) -> Callable:
    """`f` compiled to a closure that maps an environment binding every
    variable of `f` to `eval_formula(f, env)`; `side` compiles each atom
    side, and an atom over an undefined side is False."""
    ft = type(f)
    if ft is FTrue:
        return lambda env: True
    if ft is FFalse:
        return lambda env: False
    if ft is FAnd or ft is FOr:
        parts = tuple(_formula(p, side) for p in f.parts)
        if ft is FAnd:
            def conj(env):
                for p in parts:
                    if not p(env):
                        return False
                return True
            return conj

        def disj(env):
            for p in parts:
                if p(env):
                    return True
            return False
        return disj
    if ft is FNot:
        x = _formula(f.f, side)
        return lambda env: not x(env)
    if ft is FImp:
        a, b = _formula(f.a, side), _formula(f.b, side)
        return lambda env: (not a(env)) or b(env)
    holds = _ATOMS.get(ft)
    if holds is None:
        raise TypeError(f"not a formula: {f!r}")
    a, b = side(f.a), side(f.b)

    def atom(env):
        x = a(env)
        if x is _UNDEF:
            return False
        y = b(env)
        if y is _UNDEF:
            return False
        return holds(x, y)
    return atom


def _vars(t: Term) -> dict:
    out: dict = {}
    term_vars(t, out)
    return out


# ---------------------------------------------------------------------------
# symmetry: which element values a query cannot tell apart

# The union-find node every list element belongs to.
_ELEM = "element"


@dataclass
class _Facts:
    """What one walk over a query learns of its Int-valued terms.  A node is
    an Int-valued term, `_ELEM`, or `(i,)` for the i-th integer constant, so
    that two occurrences of one constant stay apart."""

    joins: list = field(default_factory=list)  # pairs of nodes of one class
    arithmetic: list = field(default_factory=list)  # nodes whose class is not permuted
    constants: list = field(default_factory=list)  # (node, value)
    fixed: set = field(default_factory=set)  # element values of list constants


def _classify_term(t: Term, facts: _Facts):
    """Walk `t` into `facts`: its node when `t` is Int-valued, else None."""
    tt = type(t)
    if tt is TVar:
        return t if t.sort is Sort.INT else None
    if tt is TInt:
        node = (len(facts.constants),)
        facts.constants.append((node, t.value))
        return node
    if tt is TSeq:
        facts.fixed.update(t.values)
        return None
    if tt is TCons:
        facts.joins.append((_classify_term(t.head, facts), _ELEM))
        _classify_term(t.tail, facts)
        return None
    if tt is TAdd or tt is TSub:
        facts.arithmetic += [_classify_term(t.a, facts), _classify_term(t.b, facts), t]
        return t
    if tt is TMul:
        facts.arithmetic += [_classify_term(t.t, facts), t]
        return t
    if tt is TLen:
        _classify_term(t.t, facts)
        facts.arithmetic.append(t)
        return t
    if tt is TCount:
        facts.joins.append((_classify_term(t.x, facts), _ELEM))
        _classify_term(t.l, facts)
        facts.arithmetic.append(t)
        return t
    if tt is TIte:
        _classify_formula(t.cond, facts)
        then, other = _classify_term(t.then, facts), _classify_term(t.other, facts)
        if then is None:
            return None
        facts.joins += [(t, then), (t, other)]
        return t
    if tt is TCollOf:
        node = _classify_term(t.t, facts)
        if node is not None:
            facts.joins.append((node, _ELEM))
        return None
    for name in _TERM_CHILDREN[tt]:  # a list or collection operation
        _classify_term(getattr(t, name), facts)
    return None


def _classify_formula(f: Formula, facts: _Facts) -> None:
    ft = type(f)
    if ft is FAnd or ft is FOr:
        for p in f.parts:
            _classify_formula(p, facts)
    elif ft is FNot:
        _classify_formula(f.f, facts)
    elif ft is FImp:
        _classify_formula(f.a, facts)
        _classify_formula(f.b, facts)
    elif ft is not FTrue and ft is not FFalse:
        a, b = _classify_term(f.a, facts), _classify_term(f.b, facts)
        if ft is FEq:
            if a is not None and b is not None:
                facts.joins.append((a, b))
        elif ft is not FSubset:  # an order atom; on lists, it orders elements
            facts.arithmetic += [_ELEM if a is None else a, _ELEM if b is None else b]


def _find(parent: dict, node):
    while node in parent:
        node = parent[node]
    return node


@dataclass
class _Symmetry:
    """The element values of a query that no permutation may move, the
    variables whose values a permutation moves, and the canonical values of
    each domain, by used set, built as the search asks for them."""

    fixed: frozenset
    lists: frozenset  # every List variable
    ints: frozenset  # the Int variables of the element class
    block_of: dict  # each permutable value -> the sorted values of its block
    table: dict = field(default_factory=dict)  # (domain, used) -> values


def _symmetry(f: Formula, variables: dict, bounds: Bounds) -> Optional[_Symmetry]:
    """How the search may break the symmetry of `f`, or None when it may
    not: when an element value meets arithmetic or an order, or when no
    variable holds element values."""
    facts = _Facts()
    _classify_formula(f, facts)
    parent: dict = {}
    for a, b in facts.joins:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    elem = _find(parent, _ELEM)
    if any(_find(parent, node) == elem for node in facts.arithmetic):
        return None
    lists = frozenset(n for n, s in variables.items() if s is Sort.LIST)
    ints = frozenset(
        n for n, s in variables.items()
        if s is Sort.INT and _find(parent, TVar(n, s)) == elem
    )
    if not lists and not ints:
        return None
    facts.fixed.update(v for node, v in facts.constants if _find(parent, node) == elem)
    elems = set(range(bounds.max_elem + 1))
    ints_range = set(range(bounds.int_lo, bounds.int_hi + 1))
    block_of = {}
    for block in (elems & ints_range, ints_range - elems, elems - ints_range):
        ordered = tuple(sorted(block))
        block_of.update(dict.fromkeys(ordered, ordered))
    return _Symmetry(frozenset(facts.fixed), lists, ints, block_of)


def _is_canonical(value, used: frozenset, block_of: dict) -> bool:
    """Whether each element of `value` not in `used` is the least value of
    its block that is neither in `used` nor earlier in `value`."""
    seen = set(used)
    for e in value if type(value) is tuple else (value,):
        if e in seen:
            continue
        if e != next(x for x in block_of[e] if x not in seen):
            return False
        seen.add(e)
    return True


@dataclass(frozen=True)
class _Conjunct:
    """What the search needs to know of one antecedent conjunct, worked out
    once per query."""

    names: tuple[str, ...]  # sorted
    holds: Callable  # the compiled formula
    # FEq: for each of its variables v, (compiled side, other side) of the
    # first side, a-side first, that does not mention v and whose other side
    # is not a collection view, or None: once v is the only unknown, the
    # other side is matched against the side's value, which binds a bare v
    forces: dict = field(default_factory=dict)
    # FEq: the names of the bare-variable sides, a-side first
    bare: tuple[str, ...] = ()


# Collection views and counts.  `match_term` solves no variable below one,
# so the plan does not match an equation side that is one.
_COLLECTION_TERMS = (TCollDiff, TCollOf, TCount)


def _plan_conjunct(c: Formula, side: Callable) -> _Conjunct:
    """The plan of conjunct `c`; `side` compiles an atom side of the
    query."""
    names = tuple(sorted(formula_vars(c)))
    holds = _formula(c, side)
    if type(c) is FEq:
        sides = ((c.a, c.b), (c.b, c.a))
        candidates = [
            (_vars(s), _guarded(s), other) for s, other in sides
            if not isinstance(other, _COLLECTION_TERMS)
        ]
        return _Conjunct(
            names,
            holds,
            forces={
                v: next(((side, other) for vs, side, other in candidates if v not in vs), None)
                for v in names
            },
            bare=tuple(s.name for s, _ in sides if type(s) is TVar),
        )
    return _Conjunct(names, holds)


# ---------------------------------------------------------------------------
# definedness: the branch values under which an antecedent atom is False

@dataclass(frozen=True)
class _Defined:
    """A top-level antecedent atom over `ldiff(part, whole)` or
    `rdiff(whole, part)` is False unless the value of `part` lies in that of
    `whole` after its first `skip` elements (`prefix`), or at its end with
    at least `skip` elements before it.  A `part` of `skip` `cons` heads
    over a tail puts this condition on the tail too."""

    prefix: bool
    skip: int
    names: frozenset  # the variables of part and whole
    part: Callable  # compiled atom sides: a value or `_UNDEF`
    whole: Callable
    bare_part: Optional[str]  # part's name, when a variable whole lacks
    bare_whole: Optional[str]  # whole's, when a variable part lacks (not for
    # a prefix with skip > 0, which `BoundedChecker._ends` does not index)


def _definedness(conjuncts: list[Formula], side: Callable) -> dict[str, list[_Defined]]:
    """Per variable, the `_Defined` conditions on it of the conjuncts that
    are atoms, those it is bare in first.  Under `not`, `or` and `=>` an
    undefined side need not make the antecedent False, and an `ite`
    evaluates one branch only, so neither is looked into."""
    found: dict = {}
    stack = [s for c in conjuncts if type(c) in _ATOMS for s in (c.a, c.b)]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is TLdiff or tt is TRdiff:
            part, skip = (t.prefix if tt is TLdiff else t.suffix), 0
            found[tt is TLdiff, skip, part, t.t] = None
            while type(part) is TCons:
                part, skip = part.tail, skip + 1
                found[tt is TLdiff, skip, part, t.t] = None
        stack.extend(getattr(t, name) for name in _TERM_CHILDREN.get(tt, ()))  # not TIte
    out: dict = {}
    for prefix, skip, part, whole in found:
        pv, wv = _vars(part), _vars(whole)
        c = _Defined(
            prefix, skip, frozenset(pv).union(wv), side(part), side(whole),
            part.name if type(part) is TVar and part.name not in wv else None,
            whole.name if type(whole) is TVar and whole.name not in pv
            and not (prefix and skip) else None,
        )
        for name in c.names:
            out.setdefault(name, []).append(c)
    for name, conditions in out.items():
        conditions.sort(key=lambda c: name not in (c.bare_part, c.bare_whole))
    return out


def _prune(q: "_Query", v: str, env: dict, values: dict) -> dict:
    """The values of `values`, in order, that meet each `_Defined` condition
    on `v` whose other variables `env` assigns.  Values are dict keys in
    domain order (by length, then lexicographically), and so are the values
    a bare part or whole allows, so the smaller side is walked: such a
    condition costs O(|allowed|), not O(domain)."""
    for c in q.defined.get(v, ()):
        if any(u != v and u not in env for u in c.names):
            continue
        if c.bare_part == v:  # the parts the value of whole has room for
            w = c.whole(env)
            allowed = {} if w is _UNDEF else dict.fromkeys(
                w[c.skip:c.skip + i] if c.prefix else w[len(w) - i:]
                for i in range(len(w) - c.skip + 1)
            )
        elif c.bare_whole == v:  # the lists with room for the value of part
            p = c.part(env)
            allowed = q.checker._ends.get((c.prefix, p), {})  # `_UNDEF` is no key
            if c.skip:
                allowed = {w: None for w in allowed if len(w) >= c.skip + len(p)}
        else:
            allowed = {}
            for x in values:
                env[v] = x
                p, w = c.part(env), c.whole(env)
                if p is not _UNDEF and w is not _UNDEF and len(w) >= c.skip + len(p):
                    start = c.skip if c.prefix else len(w) - len(p)
                    if w[start:start + len(p)] == p:
                        allowed[x] = None
            env.pop(v, None)
            values = allowed
            continue
        small, large = (allowed, values) if len(allowed) < len(values) else (values, allowed)
        values = {x: None for x in small if x in large}
    return values


@dataclass
class _Query:
    """One `counterexamples` call: what every search node reads, and the
    results it gathers."""

    formula: Formula
    target: Callable  # the compiled consequent of an implication, else formula
    names: list[str]  # every variable, in order of first occurrence
    domains: dict[str, dict]  # each variable's values, as keys in order
    limit: int
    symmetry: Optional[_Symmetry]  # None: every branch tries its whole domain
    defined: dict  # variable -> its `_Defined` conditions
    checker: "BoundedChecker"
    results: list = field(default_factory=list)


def _values(q: _Query, v: str, env: dict) -> dict:
    """The values a branch on `v` tries under `env`, as dict keys: its
    domain, or where the query is symmetric and `v` holds element values,
    the values of its domain that are canonical for the element values `env`
    uses, in domain order."""
    sym = q.symmetry
    domain = q.domains[v]
    if sym is None or (v not in sym.lists and v not in sym.ints):
        return domain
    used = set(sym.fixed)
    for name, value in env.items():
        if name in sym.lists:
            used.update(value)
        elif name in sym.ints:
            used.add(value)
    key = (v in sym.lists, frozenset(used))
    values = sym.table.get(key)
    if values is None:
        values = {x: None for x in domain if _is_canonical(x, key[1], sym.block_of)}
        sym.table[key] = values
    return values


def _report(q: _Query, env: dict) -> bool:
    """Record `env` when the target fails there and the whole formula fails
    on re-evaluation by the interpreter; True once the query has its
    `limit`.  Neither evaluation raises `Undefined`: an atom over an
    undefined side is False."""
    if not q.target(env) and not eval_formula(q.formula, env):
        q.results.append(dict(env))
    return len(q.results) >= q.limit


def _sweep(q: _Query, env: dict, names: list[str]) -> bool:
    """Report every assignment of `names` (variables no live conjunct
    mentions) on top of `env`; True once the query has its `limit`."""
    for combo in itertools.product(*(q.domains[u] for u in names)):
        env.update(zip(names, combo))
        if _report(q, env):
            break
    for u in names:
        env.pop(u, None)
    return len(q.results) >= q.limit


def _force(c: _Conjunct, v: str, env: dict) -> Optional[bool]:
    """Assign `v`, the only unassigned variable of an equation, the value the
    equation forces: True when it did, False when no value can satisfy the
    equation, None when the equation does not force one."""
    entry = c.forces.get(v)
    if entry is None:
        return None
    known, other = entry
    value = known(env)
    if value is _UNDEF:
        return False
    matched = match_term(other, value, env)
    if matched and v in env:
        return True
    env.pop(v, None)
    return False if matched is False else None


def _propagate(q: _Query, env: dict, live: list, trail: list) -> Optional[list]:
    """Decide the conjuncts whose variables are all assigned and assign what
    the equations force, until nothing changes.  The conjuncts still
    undecided, or None when the antecedent cannot hold under `env`; every
    forced variable is appended to `trail`."""
    changed = True
    while changed:
        changed = False
        still = []
        for c in live:
            unknown = [v for v in c.names if v not in env]
            if not unknown:
                if not c.holds(env):
                    return None
                continue
            if len(unknown) == 1:
                forced = _force(c, unknown[0], env)
                if forced is False:
                    return None
                if forced:
                    trail.append(unknown[0])
                    changed = True
                    continue
            still.append(c)
        live = still
    return live


def _pick(c: _Conjunct, env: dict) -> str:
    """The variable of `c` to enumerate: a variable buried inside a term
    before the bare side of an equation, so that side gets forced instead."""
    unknown = [u for u in c.names if u not in env]
    if len(unknown) > 1:
        for name in c.bare:
            if name in unknown:
                return next(u for u in unknown if u != name)
    return unknown[0]


def _search(q: _Query, env: dict, pending: list) -> None:
    """One search node: propagate, then either sweep the leaves or branch on
    one variable and recurse.  Every assignment it makes is undone before
    it returns."""
    if len(q.results) >= q.limit:
        return
    trail: list[str] = []
    try:
        live = _propagate(q, env, pending, trail)
        if live is None:
            return
        in_live = {v for c in live for v in c.names}
        unassigned = [n for n in q.names if n not in env]
        enumerable = [u for u in unassigned if u in in_live]
        if len(enumerable) <= 1:
            # the last antecedent variable decides every live conjunct, and
            # the variables only the consequent mentions are swept under it
            cons_only = [u for u in unassigned if u not in in_live]
            if not enumerable:
                _sweep(q, env, cons_only)
                return
            v = enumerable[0]
            for val in _prune(q, v, env, _values(q, v, env)):
                env[v] = val
                if all(c.holds(env) for c in live) and _sweep(
                    q, env, cons_only
                ):
                    break
            env.pop(v, None)
            return
        v = _pick(live[0], env)
        for val in _prune(q, v, env, _values(q, v, env)):
            env[v] = val
            _search(q, env, live)
            del env[v]
            if len(q.results) >= q.limit:
                return
    finally:
        for v in trail:
            env.pop(v, None)


class BoundedChecker:
    """Exhaustive counterexample search within the bounds; sound for
    counterexamples, complete only inside the bounds (so a pass holds only
    within `bounds`).  It never raises `Unknown`."""

    def __init__(self, bounds: Bounds = Bounds()):
        self.bounds = bounds
        # the domains, as dict keys in order
        self._lists = dict.fromkeys(_all_lists(bounds.max_list_len, bounds.max_elem))
        self._ints = dict.fromkeys(range(bounds.int_lo, bounds.int_hi + 1))

    @functools.cached_property
    def _ends(self) -> dict:
        """For each `(True, p)` the lists of the domain that start with `p`,
        for each `(False, s)` those that end with `s`, as dict keys in domain
        order; built once a query asks."""
        out: dict = {}
        for w in self._lists:
            for i in range(len(w) + 1):
                out.setdefault((True, w[:i]), {})[w] = None
                out.setdefault((False, w[i:]), {})[w] = None
        return out

    def counterexamples(self, f: Formula, limit: int = 1) -> list[dict]:
        variables = formula_vars(f)
        conjuncts = _flatten_and(f.a) if isinstance(f, FImp) else []
        side = functools.partial(_side, sides={})
        symmetry = _symmetry(f, variables, self.bounds)
        q = _Query(
            formula=f,
            target=_formula(f.b if isinstance(f, FImp) else f, side),
            names=list(variables),
            domains={n: self._ints if s is Sort.INT else self._lists
                     for n, s in variables.items()},
            limit=limit if symmetry is None else 1,
            symmetry=symmetry,
            defined=_definedness(conjuncts, side),
            checker=self,
        )
        plan = [_plan_conjunct(c, side) for c in conjuncts]
        _search(q, {}, plan)
        if q.results and q.limit < limit:
            # the reduced search finds the first counterexample, not the
            # ordered list: search again without reduction
            q.symmetry, q.limit, q.results = None, limit, []
            _search(q, {}, plan)
        for cex in q.results:
            assert eval_formula(f, cex) is False
        return q.results


# ---------------------------------------------------------------------------
# external SMT process

def ask(cmd: list[str], script: str, timeout: float) -> tuple[str, str]:
    """Run `cmd` on `script`: the first line of its output, stripped, and the
    lines after it.  Any failure of the call raises `Unknown`: a command that
    cannot run, a timeout, output that is not text, or no output.  The
    command leads its own process group, which is killed however the call
    ends, so no process it started outlives the call."""
    try:
        with subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                out, _ = proc.communicate(script, timeout=timeout)
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # the group is empty
                    pass
    except (OSError, subprocess.SubprocessError, UnicodeDecodeError) as exc:
        raise Unknown(str(exc)) from None
    lines = out.strip().splitlines()
    if not lines:
        raise Unknown("no solver output")
    return lines[0].strip(), "\n".join(lines[1:])


_REV_DEF = """(define-fun-rec seq.rev ((s (Seq Int))) (Seq Int)
  (ite (= s (as seq.empty (Seq Int)))
       s
       (seq.++ (seq.rev (seq.extract s 1 (- (seq.len s) 1)))
               (seq.at s 0))))"""

_DIFF_DEFS = """(define-fun ldiff ((p (Seq Int)) (t (Seq Int))) (Seq Int)
  (seq.extract t (seq.len p) (- (seq.len t) (seq.len p))))
(define-fun rdiff ((t (Seq Int)) (s (Seq Int))) (Seq Int)
  (seq.extract t 0 (- (seq.len t) (seq.len s))))"""


class ExternalSmtChecker:
    """Child-process SMT checker speaking SMT-LIB 2 with the sequence
    theory: f holds when (not f) is unsatisfiable, for every value."""

    TIMEOUT = 10.0  # seconds per query
    bounds = None

    def __init__(self, cmd: list[str]):
        self.cmd = cmd

    def script(self, f: Formula) -> str:
        variables = formula_vars(f)
        lines = ["(set-logic ALL)", _REV_DEF, _DIFF_DEFS]
        for name, sort in variables.items():
            s = "Int" if sort is Sort.INT else "(Seq Int)"
            lines.append(f"(declare-const {name} {s})")
        lines.append(f"(assert (not {render_formula(f)}))")
        lines.append("(check-sat)")
        if variables:
            lines.append("(get-value (" + " ".join(variables) + "))")
        return "\n".join(lines) + "\n"

    def counterexamples(self, f: Formula, limit: int = 1) -> list[dict]:
        verdict, rest = ask(self.cmd, self.script(f), self.TIMEOUT)
        if verdict == "unsat":
            return []
        if verdict != "sat":
            raise Unknown(verdict)
        assignment = _parse_model(rest, formula_vars(f))
        if assignment is None:
            raise Unknown("counter-model not parseable")
        try:
            holds = eval_formula(f, assignment)
        except Exception:
            holds = True
        if holds:
            raise Unknown("counter-model failed re-evaluation")
        return [assignment]


def _parse_model(text: str, variables: dict) -> Optional[dict]:
    try:
        sexp = list(read_sexps(text))
    except ValueError:
        return None
    pairs = []
    for node in sexp:
        if isinstance(node, list):
            for item in node:
                if isinstance(item, list) and len(item) == 2:
                    pairs.append(item)
    out = {}
    for name_node, value_node in pairs:
        name = symbol(name_node)
        if name not in variables:
            continue
        try:
            value = _decode_value(value_node)
        except RecursionError:  # nested too deeply to read
            return None
        if value is None:
            return None
        out[name] = value
    if set(out) != set(variables):
        return None
    return out


def _decode_value(node):
    text = symbol(node)
    if text is not None:
        return numeral(text)
    if not node:
        return None
    head = symbol(node[0])
    if head == "-" and len(node) == 2 and symbol(node[1]) is not None:
        return numeral("-" + symbol(node[1]))
    if head == "as" and len(node) >= 2 and symbol(node[1]) == "seq.empty":
        return ()
    if head == "seq.unit":
        v = _decode_value(node[1]) if len(node) == 2 else None
        return (v,) if isinstance(v, int) else None
    if head == "seq.++":
        out = ()
        for part in node[1:]:
            v = _decode_value(part)
            if v is None or isinstance(v, int):
                return None
            out += v
        return out
    return None

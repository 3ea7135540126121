"""Validity checking with two providers.

The bounded provider enumerates assignments over small lists and integers.
Each query is planned once: the antecedent of an implication is split into
conjuncts, and for each the plan holds its sorted variables and, for an
equation, the bare-variable sides that can define a variable and the sides
that can be matched against the other side's value; for a prefix/suffix
atom, the variable on the container or contained side.  One recursive search
then walks the assignments.  At each node it decides every conjunct whose
variables are all assigned, so a partial assignment that already falsifies
the antecedent is refuted before its remaining variables are enumerated;
assigns the variable an equation forces, solved by `chc_core.match_term`,
the same matcher the ground joins use; narrows a prefix/suffix operand to
the candidates the other side allows; and otherwise enumerates the next
variable, one buried inside a term before the bare side of an equation.
Variables only the consequent mentions are swept at the leaves.

The search walks no term tree.  Each query compiles its conjuncts and its
consequent once, to closures over the environment (Feeley & Lapalme, "Using
closures for code generation", 1987).  Every atom side with a variable below
its root keeps its own cache, keyed by the values of its variables, undefined
results included; equal sides of one query share one cache.  The interpreter
`formulas.eval_formula` stays the oracle: a counterexample is reported only
after it re-evaluates the whole formula there.
The external provider drives an SMT process over the sequence theory; its
counter-models are never trusted without concrete re-evaluation.

A bounded search takes a stop event and raises `Cancelled` at the next search
node once the event is set; it never returns a partial list, which would read
as bounded validity.
"""

from __future__ import annotations

import functools
import itertools
import operator
import subprocess
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .chc_core import match_term, read_sexps, symbol
from .formulas import (
    _ATOMS,
    _TERM_CHILDREN,
    FAnd,
    FEq,
    FFalse,
    FImp,
    FNot,
    FOr,
    FPrefix,
    FSuffix,
    FSubset,
    FTrue,
    Formula,
    Sort,
    TAdd,
    TCollDiff,
    TCollOf,
    TCollUnion,
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


class Cancelled(Exception):
    """A search stopped because its stop event was set."""


class ValidityKind(Enum):
    VALID = "valid"
    VALID_BOUNDED = "valid (bounded)"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Bounds:
    max_list_len: int = 4
    max_elem: int = 2
    int_lo: int = 0
    int_hi: int = 5


@dataclass
class ValidityResult:
    kind: ValidityKind
    assignment: Optional[dict] = None
    reason: Optional[str] = None
    bounds: Optional[Bounds] = None

    @property
    def valid(self) -> bool:
        return self.kind in (ValidityKind.VALID, ValidityKind.VALID_BOUNDED)


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
    if tt is TCollUnion:
        a, b = _term(t.a), _term(t.b)

        def union(env):
            x, y = a(env), b(env)
            if isinstance(x, frozenset):
                if x & y:
                    raise Undefined("overlapping set union")
                return x | y
            return tuple(sorted(x + y))
        return union
    if tt is TCollDiff:
        a, b = _term(t.a), _term(t.b)

        def difference(env):
            x, y = a(env), b(env)
            if isinstance(x, frozenset):
                if not y <= x:
                    raise Undefined("set difference without containment")
                return x - y
            rest = _bag_minus(x, y)
            if rest is None:
                raise Undefined("multiset difference without containment")
            return tuple(sorted(rest))
        return difference
    if tt is TCount:
        x, l = _term(t.x), _term(t.l)

        def count(env):
            v = x(env)
            return sum(1 for w in l(env) if w == v)
        return count
    raise TypeError(f"not a term: {t!r}")


def _bag_minus(whole, part) -> Optional[list]:
    """What is left of multiset `whole` once each element of `part` is taken
    out once, or None when `part` is not a sub-multiset of `whole`."""
    rest = list(whole)
    for v in part:
        if v not in rest:
            return None
        rest.remove(v)
    return rest


def _is_subset(a, b) -> bool:
    if isinstance(a, frozenset):
        return a <= b
    return _bag_minus(b, a) is not None


# `formulas._ATOMS`, with a multiset inclusion that builds no `Counter`
_HOLDS = {**_ATOMS, FSubset: _is_subset}


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
    holds = _HOLDS.get(ft)
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


@dataclass(frozen=True)
class _Conjunct:
    """What the search needs to know of one antecedent conjunct, worked out
    once per query."""

    formula: Formula
    names: tuple[str, ...]  # sorted
    holds: Callable  # the compiled formula
    # FEq: (name, compiled other side) for each bare-variable side whose
    # variable the other side does not mention, a-side first
    defines: tuple = ()
    # FEq: (variables, compiled side, other side), a-side first, for each
    # side whose other side is not a collection view: once `side` is known,
    # `other side` is matched against its value
    inverts: tuple = ()
    # FEq: the names of the bare-variable sides, a-side first
    bare: tuple[str, ...] = ()
    # FPrefix/FSuffix: the variable that is the container side, and the one
    # that is the contained side (reversed when `reverse`); `a` and `b` are
    # the compiled sides
    container: Optional[str] = None
    contained: Optional[str] = None
    reverse: bool = False
    a: Optional[Callable] = None
    b: Optional[Callable] = None


# Collection views and counts.  `match_term` solves no variable below one,
# so the plan does not match an equation side that is one.
_COLLECTION_TERMS = (TCollDiff, TCollOf, TCollUnion, TCount)


def _plan_conjunct(c: Formula, side: Callable) -> _Conjunct:
    """The plan of conjunct `c`; `side` compiles an atom side of the
    query."""
    names = tuple(sorted(formula_vars(c)))
    holds = _formula(c, side)
    ct = type(c)
    if ct is FEq:
        sides = ((c.a, c.b), (c.b, c.a))
        return _Conjunct(
            c,
            names,
            holds,
            defines=tuple(
                (s.name, _guarded(other)) for s, other in sides
                if type(s) is TVar and s.name not in _vars(other)
            ),
            inverts=tuple(
                (tuple(_vars(s)), _guarded(s), other) for s, other in sides
                if not isinstance(other, _COLLECTION_TERMS)
            ),
            bare=tuple(s.name for s, _ in sides if type(s) is TVar),
        )
    if ct is FPrefix or ct is FSuffix:
        inner = c.a.t if type(c.a) is TRev else c.a
        return _Conjunct(
            c,
            names,
            holds,
            container=c.b.name if type(c.b) is TVar else None,
            contained=inner.name if type(inner) is TVar else None,
            reverse=type(c.a) is TRev,
            a=side(c.a),
            b=side(c.b),
        )
    return _Conjunct(c, names, holds)


@dataclass
class _Query:
    """One `counterexamples` call: what every search node reads, and the
    results it gathers."""

    formula: Formula
    target: Callable  # the compiled consequent of an implication, else formula
    names: list[str]  # every variable, in order of first occurrence
    domains: dict[str, tuple]
    bounds: Bounds
    lists_upto: tuple  # lists_upto[n]: every list of length at most n
    limit: int
    cancel: threading.Event
    results: list = field(default_factory=list)


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
    for name, other in c.defines:
        if name == v:
            value = other(env)
            if value is _UNDEF:
                return False
            env[v] = value
            return True
    for known_vars, known, other in c.inverts:
        if all(n in env for n in known_vars):
            value = known(env)
            if value is _UNDEF:
                return False
            matched = match_term(other, value, env)
            if matched and v in env:
                return True
            env.pop(v, None)
            return False if matched is False else None
    return None


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


def _narrowed(q: _Query, c: _Conjunct, v: str, env: dict) -> Optional[list]:
    """Candidate values for `v`, the only unassigned variable of a
    prefix/suffix conjunct, or None when the conjunct does not narrow it (a
    side that mentions `v` raises `KeyError`)."""
    prefix = type(c.formula) is FPrefix
    if c.container == v:
        try:
            part = c.a(env)
        except KeyError:
            return None
        if not isinstance(part, tuple):
            return None
        room = q.bounds.max_list_len - len(part)
        if room < 0:
            return []
        if prefix:
            return [part + u for u in q.lists_upto[room]]
        return [u + part for u in q.lists_upto[room]]
    if c.contained == v:
        try:
            whole = c.b(env)
        except KeyError:
            return None
        if not isinstance(whole, tuple):
            return None
        if prefix:
            parts = [whole[:k] for k in range(len(whole) + 1)]
        else:
            parts = [whole[len(whole) - k:] for k in range(len(whole) + 1)]
        return [p[::-1] for p in parts] if c.reverse else parts
    return None


def _narrowing(q: _Query, live: list, env: dict):
    """(variable, candidates) from the first live conjunct that narrows its
    only unassigned variable, else (None, None)."""
    for c in live:
        if c.container is None and c.contained is None:
            continue
        unknown = [v for v in c.names if v not in env]
        if len(unknown) == 1:
            dom = _narrowed(q, c, unknown[0], env)
            if dom is not None:
                return unknown[0], dom
    return None, None


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
    if q.cancel.is_set():
        raise Cancelled
    trail: list[str] = []
    try:
        live = _propagate(q, env, pending, trail)
        if live is None:
            return
        narrowed_var, narrowed_dom = _narrowing(q, live, env)
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
            for val in narrowed_dom if narrowed_var == v else q.domains[v]:
                env[v] = val
                if all(c.holds(env) for c in live) and _sweep(
                    q, env, cons_only
                ):
                    break
            env.pop(v, None)
            return
        if narrowed_var is not None:
            v, dom = narrowed_var, narrowed_dom
        else:
            v = _pick(live[0], env)
            dom = q.domains[v]
        for val in dom:
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
    counterexamples, complete only inside the bounds (so a pass is
    reported as bounded validity, never plain validity)."""

    def __init__(self, bounds: Bounds = Bounds()):
        self.bounds = bounds
        self._lists = _all_lists(bounds.max_list_len, bounds.max_elem)
        self._lists_upto = tuple(
            _all_lists(n, bounds.max_elem) for n in range(bounds.max_list_len + 1)
        )
        self._ints = tuple(range(bounds.int_lo, bounds.int_hi + 1))

    # -- public api ---------------------------------------------------------
    def check_validity(self, f: Formula) -> ValidityResult:
        cexs = self.counterexamples(f, limit=1)
        if cexs:
            return ValidityResult(ValidityKind.INVALID, assignment=cexs[0])
        return ValidityResult(ValidityKind.VALID_BOUNDED, bounds=self.bounds)

    def counterexamples(
        self, f: Formula, limit: int = 1, cancel: Optional[threading.Event] = None
    ) -> list[dict]:
        variables = formula_vars(f)
        conjuncts = _flatten_and(f.a) if isinstance(f, FImp) else []
        side = functools.partial(_side, sides={})
        q = _Query(
            formula=f,
            target=_formula(f.b if isinstance(f, FImp) else f, side),
            names=list(variables),
            domains={n: self._ints if s is Sort.INT else self._lists
                     for n, s in variables.items()},
            bounds=self.bounds,
            lists_upto=self._lists_upto,
            limit=limit,
            cancel=cancel or threading.Event(),
        )
        _search(q, {}, [_plan_conjunct(c, side) for c in conjuncts])
        for cex in q.results:
            assert eval_formula(f, cex) is False
        return q.results


# ---------------------------------------------------------------------------
# external SMT process

_HAS_COLLECTIONS = (FSubset,)


def _uses_collections(f: Formula) -> bool:
    if isinstance(f, _HAS_COLLECTIONS):
        return True
    if isinstance(f, (FAnd, FOr)):
        return any(_uses_collections(p) for p in f.parts)
    if isinstance(f, FNot):
        return _uses_collections(f.f)
    if isinstance(f, FImp):
        return _uses_collections(f.a) or _uses_collections(f.b)
    if hasattr(f, "a"):
        return _term_uses_collections(f.a) or _term_uses_collections(f.b)
    return False


def _term_uses_collections(t: Term) -> bool:
    if isinstance(t, _COLLECTION_TERMS):
        return True
    tt = type(t)
    if tt in (TVar, TInt, TSeq):
        return False
    if tt is TIte:
        return (_uses_collections(t.cond) or _term_uses_collections(t.then)
                or _term_uses_collections(t.other))
    return any(_term_uses_collections(getattr(t, fn)) for fn in _TERM_CHILDREN[tt])


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
    """Child-process SMT provider speaking SMT-LIB 2 with the sequence
    theory; validity of f is checked as unsatisfiability of (not f)."""

    def __init__(self, cmd, timeout: float = 10.0, native_reverse: bool = False):
        self.cmd = cmd if isinstance(cmd, list) else [cmd]
        self.timeout = timeout
        self.native_reverse = native_reverse

    def script(self, f: Formula) -> str:
        variables = formula_vars(f)
        lines = ["(set-logic ALL)"]
        if not self.native_reverse:
            lines.append(_REV_DEF)
        lines.append(_DIFF_DEFS)
        for name, sort in variables.items():
            s = "Int" if sort is Sort.INT else "(Seq Int)"
            lines.append(f"(declare-const {name} {s})")
        lines.append(f"(assert (not {render_formula(f)}))")
        lines.append("(check-sat)")
        if variables:
            lines.append("(get-value (" + " ".join(variables) + "))")
        return "\n".join(lines) + "\n"

    def check_validity(self, f: Formula) -> ValidityResult:
        if _uses_collections(f):
            return ValidityResult(
                ValidityKind.UNKNOWN, reason="collection atoms are not encoded"
            )
        try:
            proc = subprocess.run(
                self.cmd,
                input=self.script(f),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return ValidityResult(ValidityKind.UNKNOWN, reason=str(exc))
        out = proc.stdout.strip().splitlines()
        if not out:
            return ValidityResult(ValidityKind.UNKNOWN, reason="no solver output")
        verdict = out[0].strip()
        if verdict == "unsat":
            return ValidityResult(ValidityKind.VALID)
        if verdict != "sat":
            return ValidityResult(ValidityKind.UNKNOWN, reason=verdict)
        assignment = _parse_model("\n".join(out[1:]), formula_vars(f))
        if assignment is None:
            return ValidityResult(
                ValidityKind.UNKNOWN, reason="counter-model not parseable"
            )
        try:
            holds = eval_formula(f, assignment)
        except Exception:
            holds = True
        if holds:
            return ValidityResult(
                ValidityKind.UNKNOWN, reason="counter-model failed re-evaluation"
            )
        return ValidityResult(ValidityKind.INVALID, assignment=assignment)


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
        value = _decode_value(value_node)
        if value is None:
            return None
        out[name] = value
    if set(out) != set(variables):
        return None
    return out


def _decode_value(node):
    text = symbol(node)
    if text is not None:
        return int(text) if text.lstrip("-").isdigit() else None
    if not node:
        return None
    head = symbol(node[0])
    if head == "-" and len(node) == 2 and (symbol(node[1]) or "").isdigit():
        return -int(symbol(node[1]))
    if head == "as" and len(node) >= 2 and symbol(node[1]) == "seq.empty":
        return ()
    if head == "seq.unit":
        v = _decode_value(node[1])
        return None if v is None else (v,)
    if head == "seq.++":
        out = ()
        for part in node[1:]:
            v = _decode_value(part)
            if v is None or isinstance(v, int):
                return None
            out += v
        return out
    return None

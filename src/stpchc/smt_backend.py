"""Validity checking with two providers.

The bounded provider enumerates assignments over small lists and integers,
with equality propagation and prefix/suffix domain narrowing so that
clause-shaped implications stay tractable.  The external provider drives an
SMT process over the sequence theory; its counter-models are never trusted
without concrete re-evaluation.
"""

from __future__ import annotations

import itertools
import subprocess
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from collections import Counter

from .chc_core import read_sexps, symbol
from .formulas import (
    FAnd,
    FEq,
    FFalse,
    FImp,
    FLe,
    FLt,
    FNot,
    FOr,
    FPrefix,
    FSuffix,
    FSubset,
    FTrue,
    Formula,
    Sort,
    TInt,
    TSeq,
    Undefined,
    TAdd,
    TCons,
    TConcat,
    TLdiff,
    TMul,
    TRdiff,
    TRev,
    TSub,
    TVar,
    Term,
    eval_formula,
    eval_term,
    formula_vars,
    render_formula,
    term_vars,
)

_PRUNE = ("prune",)


def _invert(term: Term, value, env) -> Optional[tuple]:
    """Solve `term == value` for the single unassigned variable inside the
    term.  Returns ("ok", name, val), the prune sentinel when no value can
    work, or None when the shape is not invertible."""

    def known(t):
        try:
            return True, eval_term(t, env)
        except Exception:
            return False, None

    tt = type(term)
    if tt is TVar:
        if term.name in env:
            return _PRUNE if env[term.name] != value else None
        return ("ok", term.name, value)
    if tt is TRev:
        if not isinstance(value, tuple):
            return _PRUNE
        return _invert(term.t, value[::-1], env)
    if tt is TConcat:
        if not isinstance(value, tuple):
            return _PRUNE
        ok_a, va = known(term.a)
        if ok_a:
            if not isinstance(va, tuple) or value[: len(va)] != va:
                return _PRUNE
            return _invert(term.b, value[len(va):], env)
        ok_b, vb = known(term.b)
        if ok_b:
            if not isinstance(vb, tuple) or (
                len(vb) and value[-len(vb):] != vb
            ) or len(vb) > len(value):
                return _PRUNE
            return _invert(term.a, value[: len(value) - len(vb)], env)
        return None
    if tt is TCons:
        if not isinstance(value, tuple) or not value:
            return _PRUNE
        ok_h, vh = known(term.head)
        if ok_h:
            if vh != value[0]:
                return _PRUNE
            return _invert(term.tail, value[1:], env)
        ok_t, vt = known(term.tail)
        if ok_t:
            if vt != value[1:]:
                return _PRUNE
            return _invert(term.head, value[0], env)
        return None
    if tt is TLdiff:
        ok_p, vp = known(term.prefix)
        if ok_p and isinstance(vp, tuple) and isinstance(value, tuple):
            return _invert(term.t, vp + value, env)
        return None
    if tt is TRdiff:
        ok_s, vs = known(term.suffix)
        if ok_s and isinstance(vs, tuple) and isinstance(value, tuple):
            return _invert(term.t, value + vs, env)
        return None
    if tt is TAdd:
        for var_side, const_side in ((term.a, term.b), (term.b, term.a)):
            ok, c = known(const_side)
            if ok:
                return _invert(var_side, value - c, env)
        return None
    if tt is TSub:
        ok, c = known(term.b)
        if ok:
            return _invert(term.a, value + c, env)
        ok, c = known(term.a)
        if ok:
            return _invert(term.b, c - value, env)
        return None
    if tt is TMul:
        if term.factor == 0:
            return None if value == 0 else _PRUNE
        if value % term.factor:
            return _PRUNE
        return _invert(term.t, value // term.factor, env)
    return None


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


class _MemoEval:
    """Per-query evaluation cache: non-leaf terms are keyed by the values of
    their free variables, so shared subterms (difference chains, collection
    views, solved ldiff/rdiff nests) are computed once per support value
    across the whole enumeration tree."""

    _UNDEF = object()

    def __init__(self):
        self._support: dict[int, tuple[str, ...]] = {}
        self._cache: dict = {}

    def term(self, t, env):
        tt = type(t)
        if tt is TVar:
            return env[t.name]
        if tt is TInt:
            return t.value
        if tt is TSeq:
            return t.values
        support = self._support.get(id(t))
        if support is None:
            sup: dict = {}
            term_vars(t, sup)
            support = tuple(sorted(sup))
            self._support[id(t)] = support
        key = (id(t), tuple(env[v] for v in support))
        hit = self._cache.get(key, None)
        if hit is None:
            try:
                hit = eval_term(t, env)
            except Undefined:
                hit = self._UNDEF
            self._cache[key] = hit
        if hit is self._UNDEF:
            raise Undefined("memoized undefined term")
        return hit

    def eval(self, f: Formula, env: dict) -> bool:
        ft = type(f)
        if ft is FTrue:
            return True
        if ft is FFalse:
            return False
        if ft is FAnd:
            return all(self.eval(p, env) for p in f.parts)
        if ft is FOr:
            return any(self.eval(p, env) for p in f.parts)
        if ft is FNot:
            return not self.eval(f.f, env)
        if ft is FImp:
            return (not self.eval(f.a, env)) or self.eval(f.b, env)
        try:
            a = self.term(f.a, env)
            b = self.term(f.b, env)
        except Undefined:
            return False
        if ft is FEq:
            return a == b
        if ft is FLe:
            return a <= b
        if ft is FLt:
            return a < b
        if ft is FPrefix:
            return b[: len(a)] == a
        if ft is FSuffix:
            return len(a) <= len(b) and (not a or b[-len(a):] == a)
        if ft is FSubset:
            if isinstance(a, frozenset):
                return a <= b
            return not (Counter(a) - Counter(b))
        raise TypeError(f"not a formula: {f!r}")


class BoundedChecker:
    """Exhaustive counterexample search within the bounds; sound for
    counterexamples, complete only inside the bounds (so a pass is
    reported as bounded validity, never plain validity)."""

    def __init__(self, bounds: Bounds = Bounds()):
        self.bounds = bounds
        self._lists = _all_lists(bounds.max_list_len, bounds.max_elem)
        self._ints = tuple(range(bounds.int_lo, bounds.int_hi + 1))

    # -- public api ---------------------------------------------------------
    def check_validity(self, f: Formula) -> ValidityResult:
        cexs = self.counterexamples(f, limit=1)
        if cexs:
            return ValidityResult(ValidityKind.INVALID, assignment=cexs[0])
        return ValidityResult(ValidityKind.VALID_BOUNDED, bounds=self.bounds)

    def counterexamples(self, f: Formula, limit: int = 1) -> list[dict]:
        variables = formula_vars(f)
        names = list(variables)
        if isinstance(f, FImp):
            conjuncts = _flatten_and(f.a)
        else:
            conjuncts = []
        conj_vars = [sorted(formula_vars(c)) for c in conjuncts]
        results: list[dict] = []
        env: dict = {}
        memo = _MemoEval()

        def domain_of(name: str):
            return self._ints if variables[name] is Sort.INT else self._lists

        def narrowed(c: Formula, name: str):
            """Candidate values for `name` from a prefix/suffix conjunct in
            which it is the only unassigned variable."""
            bounds = self.bounds
            if isinstance(c, (FPrefix, FSuffix)):
                a, b = c.a, c.b
                # the unknown as the container side
                if isinstance(b, TVar) and b.name == name:
                    try:
                        part = eval_term(a, env)
                    except Exception:
                        return None
                    if not isinstance(part, tuple):
                        return None
                    room = bounds.max_list_len - len(part)
                    if room < 0:
                        return []
                    exts = _all_lists(room, bounds.max_elem)
                    if isinstance(c, FPrefix):
                        return [part + u for u in exts]
                    return [u + part for u in exts]
                # the unknown as the contained side, possibly reversed
                inner = a
                rev = False
                if isinstance(inner, TRev):
                    inner = inner.t
                    rev = True
                if isinstance(inner, TVar) and inner.name == name:
                    try:
                        whole = eval_term(b, env)
                    except Exception:
                        return None
                    if not isinstance(whole, tuple):
                        return None
                    if isinstance(c, FPrefix):
                        parts = [whole[:k] for k in range(len(whole) + 1)]
                    else:
                        parts = [whole[len(whole) - k :] for k in range(len(whole) + 1)]
                    return [p[::-1] if rev else p for p in parts]
            return None

        def search(pending: list[int]):
            if len(results) >= limit:
                return
            # propagate: resolve decided conjuncts, force single-var equalities
            trail: list[str] = []
            live = list(pending)
            try:
                changed = True
                while changed:
                    changed = False
                    still = []
                    for ci in live:
                        c = conjuncts[ci]
                        unknown = [v for v in conj_vars[ci] if v not in env]
                        if not unknown:
                            if not memo.eval(c, env):
                                return  # antecedent cannot hold here
                            changed = True
                            continue
                        forced = False
                        if len(unknown) == 1 and isinstance(c, FEq):
                            v = unknown[0]
                            for var_side, term_side in ((c.a, c.b), (c.b, c.a)):
                                if isinstance(var_side, TVar) and var_side.name == v:
                                    others: dict = {}
                                    term_vars(term_side, others)
                                    if v in others:
                                        continue
                                    try:
                                        env[v] = eval_term(term_side, env)
                                    except Exception:
                                        return
                                    trail.append(v)
                                    changed = True
                                    forced = True
                                    break
                            if not forced:
                                # structural inversion: known = term(v)
                                for known_side, term_side in ((c.a, c.b), (c.b, c.a)):
                                    kv: dict = {}
                                    term_vars(known_side, kv)
                                    if any(name not in env for name in kv):
                                        continue
                                    try:
                                        val = eval_term(known_side, env)
                                    except Exception:
                                        return
                                    got = _invert(term_side, val, env)
                                    if got is _PRUNE:
                                        return
                                    if got is not None and got[0] == "ok":
                                        env[got[1]] = got[2]
                                        trail.append(got[1])
                                        changed = True
                                        forced = True
                                    break
                        if not forced:
                            still.append(ci)
                    live = still
                unassigned = [n for n in names if n not in env]
                target = f.b if isinstance(f, FImp) else f
                if not unassigned:
                    # the antecedent held along this path; only the
                    # consequent decides, but re-verify before reporting
                    try:
                        if not memo.eval(target, env) and not eval_formula(f, env):
                            results.append(dict(env))
                    except Exception:
                        pass
                    return
                # choose what to enumerate: a narrowable conjunct first
                narrowed_dom = None
                narrowed_var = None
                for ci in live:
                    unknown = [v for v in conj_vars[ci] if v not in env]
                    if len(unknown) != 1:
                        continue
                    dom = narrowed(conjuncts[ci], unknown[0])
                    if dom is not None:
                        narrowed_var = unknown[0]
                        narrowed_dom = dom
                        break
                in_live: set = set()
                for ci in live:
                    in_live.update(conj_vars[ci])
                cons_only = [u for u in unassigned if u not in in_live]
                enumerable = [u for u in unassigned if u in in_live]
                if len(enumerable) <= 1:
                    # tight inner loops: the last antecedent variable decides
                    # every live conjunct, and variables appearing only in
                    # the consequent are swept in an inner product
                    ev = memo.eval
                    cons_domains = [domain_of(u) for u in cons_only]

                    def leaf_sweep() -> bool:
                        if not cons_only:
                            try:
                                if not ev(target, env) and not eval_formula(f, env):
                                    results.append(dict(env))
                            except Exception:
                                pass
                            return len(results) >= limit
                        for combo in itertools.product(*cons_domains):
                            for u, val in zip(cons_only, combo):
                                env[u] = val
                            try:
                                if not ev(target, env) and not eval_formula(f, env):
                                    results.append(dict(env))
                            except Exception:
                                pass
                            if len(results) >= limit:
                                break
                        for u in cons_only:
                            env.pop(u, None)
                        return len(results) >= limit

                    if not enumerable:
                        leaf_sweep()
                        return
                    v = enumerable[0]
                    dom = narrowed_dom if narrowed_var == v else domain_of(v)
                    for val in dom:
                        env[v] = val
                        ok = True
                        for ci in live:
                            if not ev(conjuncts[ci], env):
                                ok = False
                                break
                        if ok and leaf_sweep():
                            break
                    env.pop(v, None)
                    return
                if narrowed_var is not None:
                    for val in narrowed_dom:
                        env[narrowed_var] = val
                        search(live)
                        del env[narrowed_var]
                        if len(results) >= limit:
                            return
                    return
                v = None
                for ci in live:
                    unknown = [u for u in conj_vars[ci] if u not in env]
                    if not unknown:
                        continue
                    # enumerate a variable buried inside a term first, so the
                    # bare-variable side of an equality gets forced instead
                    pick = unknown
                    c = conjuncts[ci]
                    if isinstance(c, FEq) and len(unknown) > 1:
                        for side in (c.a, c.b):
                            if isinstance(side, TVar) and side.name in unknown:
                                rest = [u for u in unknown if u != side.name]
                                if rest:
                                    pick = rest
                                break
                    v = pick[0]
                    break
                if v is None:
                    v = unassigned[0]
                for val in domain_of(v):
                    env[v] = val
                    search(live)
                    del env[v]
                    if len(results) >= limit:
                        return
            finally:
                for v in trail:
                    env.pop(v, None)

        search(list(range(len(conjuncts))))
        for cex in results:
            assert eval_formula(f, cex) is False
        return results


# ---------------------------------------------------------------------------
# external SMT process

_HAS_COLLECTIONS = (FSubset,)


def _uses_collections(f: Formula) -> bool:
    from .formulas import (
        FAnd, FOr, FNot, FImp, TCollDiff, TCollOf, TCollUnion, TCount,
    )

    def term_has(t) -> bool:
        if isinstance(t, (TCollDiff, TCollOf, TCollUnion, TCount)):
            return True
        from .formulas import _TERM_CHILDREN, TIte, TVar, TInt, TSeq

        tt = type(t)
        if tt in (TVar, TInt, TSeq):
            return False
        if tt is TIte:
            return go(t.cond) or term_has(t.then) or term_has(t.other)
        return any(term_has(getattr(t, fn)) for fn in _TERM_CHILDREN[tt])

    def go(g) -> bool:
        if isinstance(g, _HAS_COLLECTIONS):
            return True
        if isinstance(g, (FAnd, FOr)):
            return any(go(p) for p in g.parts)
        if isinstance(g, FNot):
            return go(g.f)
        if isinstance(g, FImp):
            return go(g.a) or go(g.b)
        if hasattr(g, "a"):
            return term_has(g.a) or term_has(g.b)
        return False

    return go(f)


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

    def counterexamples(self, f: Formula, limit: int = 1) -> list[dict]:
        res = self.check_validity(f)
        return [res.assignment] if res.kind is ValidityKind.INVALID else []


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


def check_validity(f: Formula, provider=None, bounds: Bounds | None = None) -> ValidityResult:
    """Module-level convenience: default to the bounded provider."""
    if provider is None:
        provider = BoundedChecker(bounds or Bounds())
    return provider.check_validity(f)

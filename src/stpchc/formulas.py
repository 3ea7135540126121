"""Quantifier-free terms and formulas over integers, integer lists (treated
as sequences), and their set/multiset views.

Values during evaluation: int, bool, tuple[int] (a list/sequence), frozenset
(set view) or sorted tuple (multiset view).  The partial operations (ldiff,
rdiff, collection difference) raise Undefined; an atom over an undefined term
evaluates to False, which matches their guarded use."""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Union

from .pattern_core import bag_minus


class Sort(Enum):
    INT = "Int"
    LIST = "List"


class Undefined(Exception):
    pass


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class TVar:
    name: str
    sort: Sort


@dataclass(frozen=True)
class TInt:
    value: int


@dataclass(frozen=True)
class TSeq:
    values: tuple[int, ...]


NIL = TSeq(())


@dataclass(frozen=True)
class TCons:
    head: "Term"
    tail: "Term"


@dataclass(frozen=True)
class TAdd:
    a: "Term"
    b: "Term"


@dataclass(frozen=True)
class TSub:
    a: "Term"
    b: "Term"


@dataclass(frozen=True)
class TMul:
    factor: int
    t: "Term"


@dataclass(frozen=True)
class TIte:
    cond: "Formula"
    then: "Term"
    other: "Term"


@dataclass(frozen=True)
class TLen:
    t: "Term"


@dataclass(frozen=True)
class TConcat:
    a: "Term"
    b: "Term"


@dataclass(frozen=True)
class TRev:
    t: "Term"


@dataclass(frozen=True)
class TLdiff:
    """The s0 with prefix . s0 = t; defined only when prefix really is one."""

    prefix: "Term"
    t: "Term"


@dataclass(frozen=True)
class TRdiff:
    """The s0 with s0 . suffix = t; defined only when suffix really is one."""

    t: "Term"
    suffix: "Term"


@dataclass(frozen=True)
class TCollOf:
    """Set or multiset view of a list; an int becomes a singleton."""

    t: "Term"
    mode: str  # "set" | "multiset"


@dataclass(frozen=True)
class TCollDiff:
    a: "Term"
    b: "Term"


@dataclass(frozen=True)
class TCount:
    x: "Term"
    l: "Term"


Term = Union[
    TVar, TInt, TSeq, TCons, TAdd, TSub, TMul, TIte, TLen, TConcat, TRev,
    TLdiff, TRdiff, TCollOf, TCollDiff, TCount,
]


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


TRUE = FTrue()
FALSE = FFalse()


@dataclass(frozen=True)
class FAnd:
    parts: tuple


@dataclass(frozen=True)
class FOr:
    parts: tuple


@dataclass(frozen=True)
class FNot:
    f: "Formula"


@dataclass(frozen=True)
class FImp:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True)
class FEq:
    a: Term
    b: Term


@dataclass(frozen=True)
class FLe:
    a: Term
    b: Term


@dataclass(frozen=True)
class FLt:
    a: Term
    b: Term


@dataclass(frozen=True)
class FSubset:
    a: Term
    b: Term


Formula = Union[FTrue, FFalse, FAnd, FOr, FNot, FImp, FEq, FLe, FLt, FSubset]


def fand(parts: Iterable[Formula]) -> Formula:
    flat = []
    for p in parts:
        if isinstance(p, FTrue):
            continue
        if isinstance(p, FFalse):
            return FALSE
        if isinstance(p, FAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def for_(parts: Iterable[Formula]) -> Formula:
    flat = []
    for p in parts:
        if isinstance(p, FFalse):
            continue
        if isinstance(p, FTrue):
            return TRUE
        if isinstance(p, FOr):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


# ---------------------------------------------------------------------------
# evaluation

def eval_term(t: Term, env: Mapping[str, object]):
    tt = type(t)
    if tt is TVar:
        try:
            return env[t.name]
        except KeyError:
            raise Undefined(f"unbound {t.name}") from None
    if tt is TInt:
        return t.value
    if tt is TSeq:
        return t.values
    if tt is TCons:
        head = eval_term(t.head, env)
        tail = eval_term(t.tail, env)
        return (head,) + tail
    if tt is TAdd:
        return eval_term(t.a, env) + eval_term(t.b, env)
    if tt is TSub:
        return eval_term(t.a, env) - eval_term(t.b, env)
    if tt is TMul:
        return t.factor * eval_term(t.t, env)
    if tt is TIte:
        return eval_term(t.then if eval_formula(t.cond, env) else t.other, env)
    if tt is TLen:
        return len(eval_term(t.t, env))
    if tt is TConcat:
        return eval_term(t.a, env) + eval_term(t.b, env)
    if tt is TRev:
        return eval_term(t.t, env)[::-1]
    if tt is TLdiff:
        p = eval_term(t.prefix, env)
        w = eval_term(t.t, env)
        if w[: len(p)] != p:
            raise Undefined("ldiff on a non-prefix")
        return w[len(p):]
    if tt is TRdiff:
        s = eval_term(t.suffix, env)
        w = eval_term(t.t, env)
        if len(s) > len(w) or (len(s) and w[-len(s):] != s) :
            raise Undefined("rdiff on a non-suffix")
        return w[: len(w) - len(s)]
    if tt is TCollOf:
        v = eval_term(t.t, env)
        if isinstance(v, int):
            v = (v,)
        return frozenset(v) if t.mode == "set" else tuple(sorted(v))
    if tt is TCollDiff:
        a = eval_term(t.a, env)
        b = eval_term(t.b, env)
        if isinstance(a, frozenset):
            if not b <= a:
                raise Undefined("set difference without containment")
            return a - b
        rest = bag_minus(a, b)  # multisets are sorted tuples
        if rest is None:
            raise Undefined("multiset difference without containment")
        return rest
    if tt is TCount:
        x = eval_term(t.x, env)
        l = eval_term(t.l, env)
        return sum(1 for v in l if v == x)
    raise TypeError(f"not a term: {t!r}")


def _is_subset(a, b) -> bool:
    if isinstance(a, frozenset):
        return a <= b
    return bag_minus(b, a) is not None


# the meaning of each atom, given the values of its two terms
_ATOMS = {
    FEq: operator.eq,
    FLe: operator.le,
    FLt: operator.lt,
    FSubset: _is_subset,
}


def eval_formula(f: Formula, env: Mapping[str, object]) -> bool:
    """The truth of `f` under `env`."""
    ft = type(f)
    if ft is FTrue:
        return True
    if ft is FFalse:
        return False
    if ft is FAnd:
        return all(eval_formula(p, env) for p in f.parts)
    if ft is FOr:
        return any(eval_formula(p, env) for p in f.parts)
    if ft is FNot:
        return not eval_formula(f.f, env)
    if ft is FImp:
        return (not eval_formula(f.a, env)) or eval_formula(f.b, env)
    holds = _ATOMS.get(ft)
    if holds is None:
        raise TypeError(f"not a formula: {f!r}")
    try:
        a = eval_term(f.a, env)
        b = eval_term(f.b, env)
    except Undefined:
        return False
    return holds(a, b)


# ---------------------------------------------------------------------------
# traversal helpers

_TERM_CHILDREN = {
    TCons: ("head", "tail"),
    TAdd: ("a", "b"),
    TSub: ("a", "b"),
    TMul: ("t",),
    TLen: ("t",),
    TConcat: ("a", "b"),
    TRev: ("t",),
    TLdiff: ("prefix", "t"),
    TRdiff: ("t", "suffix"),
    TCollOf: ("t",),
    TCollDiff: ("a", "b"),
    TCount: ("x", "l"),
}


def term_vars(t: Term, out: dict):
    tt = type(t)
    if tt is TVar:
        out.setdefault(t.name, t.sort)
    elif tt in (TInt, TSeq):
        pass
    elif tt is TIte:
        formula_vars(t.cond, out)
        term_vars(t.then, out)
        term_vars(t.other, out)
    else:
        for fieldname in _TERM_CHILDREN[tt]:
            term_vars(getattr(t, fieldname), out)


def formula_vars(f: Formula, out: dict | None = None) -> dict:
    if out is None:
        out = {}
    ft = type(f)
    if ft in (FTrue, FFalse):
        return out
    if ft in (FAnd, FOr):
        for p in f.parts:
            formula_vars(p, out)
        return out
    if ft is FNot:
        return formula_vars(f.f, out)
    if ft is FImp:
        formula_vars(f.a, out)
        formula_vars(f.b, out)
        return out
    term_vars(f.a, out)
    term_vars(f.b, out)
    return out


def subst_term(t: Term, mapping: Mapping[str, Term]) -> Term:
    tt = type(t)
    if tt is TVar:
        return mapping.get(t.name, t)
    if tt in (TInt, TSeq):
        return t
    if tt is TIte:
        return TIte(
            subst_formula(t.cond, mapping),
            subst_term(t.then, mapping),
            subst_term(t.other, mapping),
        )
    if tt not in _TERM_CHILDREN:
        raise TypeError(f"not a term: {t!r}")
    return replace(t, **{fn: subst_term(getattr(t, fn), mapping) for fn in _TERM_CHILDREN[tt]})


def subst_formula(f: Formula, mapping: Mapping[str, Term]) -> Formula:
    ft = type(f)
    if ft in (FTrue, FFalse):
        return f
    if ft is FAnd:
        return fand(subst_formula(p, mapping) for p in f.parts)
    if ft is FOr:
        return for_(subst_formula(p, mapping) for p in f.parts)
    if ft is FNot:
        return FNot(subst_formula(f.f, mapping))
    if ft is FImp:
        return FImp(subst_formula(f.a, mapping), subst_formula(f.b, mapping))
    return ft(subst_term(f.a, mapping), subst_term(f.b, mapping))


# ---------------------------------------------------------------------------
# SMT-LIB syntax (Barrett, Fontaine & Tinelli, The SMT-LIB Standard 2.6)

# the sorts that no variable has: the set and multiset views, and an atom's
ViewSort = Enum("ViewSort", [("SET", "Set"), ("BAG", "Bag"), ("BOOL", "Bool")])
_ELEMS = (Sort.INT, Sort.LIST)
_VIEWS = (ViewSort.SET, ViewSort.BAG)

# Each operator written `(head arg ...)`, by its class (and a view's mode):
# the head, the sorts of its arguments in `_TERM_CHILDREN` order (an atom's
# `a` and `b`) and the sort of its result.  A tuple of sorts admits any one
# of them, the same one at each such place of an application, and a result
# given so is that one.  The renderer writes through this table and the
# parser (`chc_core._Parser`) reads through it.
SYNTAX = {
    TCons: ("cons", (Sort.INT, Sort.LIST), Sort.LIST),
    TAdd: ("+", (Sort.INT, Sort.INT), Sort.INT),
    TSub: ("-", (Sort.INT, Sort.INT), Sort.INT),
    TLen: ("seq.len", (Sort.LIST,), Sort.INT),
    TConcat: ("seq.++", (Sort.LIST, Sort.LIST), Sort.LIST),
    TRev: ("seq.rev", (Sort.LIST,), Sort.LIST),
    TLdiff: ("ldiff", (Sort.LIST, Sort.LIST), Sort.LIST),
    TRdiff: ("rdiff", (Sort.LIST, Sort.LIST), Sort.LIST),
    (TCollOf, "set"): ("set.of", (_ELEMS,), ViewSort.SET),
    (TCollOf, "multiset"): ("bag.of", (_ELEMS,), ViewSort.BAG),
    TCollDiff: ("difference", (_VIEWS, _VIEWS), _VIEWS),
    TCount: ("count", (Sort.INT, Sort.LIST), Sort.INT),
    FEq: ("=", (_ELEMS + _VIEWS,) * 2, ViewSort.BOOL),
    FLe: ("<=", (Sort.INT, Sort.INT), ViewSort.BOOL),
    FLt: ("<", (Sort.INT, Sort.INT), ViewSort.BOOL),
    FSubset: ("subset", (_VIEWS, _VIEWS), ViewSort.BOOL),
}


def sort_of(t: Term):
    """The sort of a well-sorted term."""
    tt = type(t)
    if tt is TVar:
        return t.sort
    if tt is TIte or tt is TCollDiff:  # the sort of its branches, of its operands
        return sort_of(t.then if tt is TIte else t.a)
    if tt is TSeq:
        return Sort.LIST
    if tt is TCollOf:
        return SYNTAX[tt, t.mode][2]
    return Sort.INT if tt is TInt or tt is TMul else SYNTAX[tt][2]


def render_term(t: Term, list_style: str = "seq") -> str:
    r = lambda x: render_term(x, list_style)
    tt = type(t)
    if tt is TVar:
        return t.name
    if tt is TInt:
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if tt is TSeq:
        if list_style == "adt":
            out = "nil"
            for v in reversed(t.values):
                out = f"(cons {r(TInt(v))} {out})"
            return out
        if not t.values:
            return "(as seq.empty (Seq Int))"
        inner = " ".join(f"(seq.unit {r(TInt(v))})" for v in t.values)
        return inner if len(t.values) == 1 else f"(seq.++ {inner})"
    if tt is TCons and list_style == "seq":
        return f"(seq.++ (seq.unit {r(t.head)}) {r(t.tail)})"
    if tt is TMul:
        return f"(* {t.factor} {r(t.t)})"
    if tt is TIte:
        return f"(ite {render_formula(t.cond, list_style)} {r(t.then)} {r(t.other)})"
    if tt not in _TERM_CHILDREN:
        raise TypeError(f"not a term: {t!r}")
    args = " ".join(r(getattr(t, fn)) for fn in _TERM_CHILDREN[tt])
    return f"({SYNTAX[(tt, t.mode) if tt is TCollOf else tt][0]} {args})"


def render_formula(f: Formula, list_style: str = "seq") -> str:
    ft = type(f)
    if ft is FTrue:
        return "true"
    if ft is FFalse:
        return "false"
    if ft is FAnd:
        return "(and " + " ".join(render_formula(p, list_style) for p in f.parts) + ")"
    if ft is FOr:
        return "(or " + " ".join(render_formula(p, list_style) for p in f.parts) + ")"
    if ft is FNot:
        return f"(not {render_formula(f.f, list_style)})"
    if ft is FImp:
        return f"(=> {render_formula(f.a, list_style)} {render_formula(f.b, list_style)})"
    return f"({SYNTAX[ft][0]} {render_term(f.a, list_style)} {render_term(f.b, list_style)})"

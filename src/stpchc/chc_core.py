"""Constrained Horn clauses over integers and integer lists.

Covers the one SMT-LIB reader: HORN files over `Int`, `(Seq Int)` and
two-constructor list-like datatypes, with the terms of `formulas.SYNTAX`, and
the values and `define-fun`s external solvers print; the ground-join engine,
least-model sampling by unit propagation, and bounded derivability checking.

The engine (`AtomTable`, `plan_join`, `join`, `match_goal`) is the one
bottom-up join over ground atoms.  Two free-variable policies use it:
`collect_samples` draws seeded-random values for the variables a body match
leaves free, and `solver.refute` enumerates them exhaustively over
`_bounded_domain`.  `match_goal` checks goal bodies for both.  `derivable`
stays top-down.

`match_term` is the one solver of `term = value` over ground values: the
joins and `derivable` match clause terms against rows with it, and the
bounded checker (`smt_backend`) forces the variable an equation determines
with it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .formulas import (
    FALSE,
    FImp,
    FNot,
    FTrue,
    Formula,
    NIL,
    SYNTAX,
    Sort,
    TAdd,
    TConcat,
    TCons,
    TInt,
    TIte,
    TLdiff,
    TMul,
    TRdiff,
    TRev,
    TSeq,
    TSub,
    TVar,
    Term,
    TRUE,
    ViewSort,
    eval_formula,
    eval_term,
    fand,
    for_,
    formula_vars,
    render_formula,
    render_term,
    sort_of,
    term_vars,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class PredicateAtom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Clause:
    """Definite when `head` is an atom, goal when it is None (false)."""

    body_atoms: tuple[PredicateAtom, ...]
    constraint: Formula
    head: Optional[PredicateAtom]

    def variables(self) -> dict[str, Sort]:
        out: dict[str, Sort] = {}
        for atom in self.body_atoms:
            for arg in atom.args:
                term_vars(arg, out)
        formula_vars(self.constraint, out)
        if self.head is not None:
            for arg in self.head.args:
                term_vars(arg, out)
        return out


@dataclass
class ChcSystem:
    predicates: dict[str, tuple[Sort, ...]]
    definite: list[Clause]
    goals: list[Clause]

    def clauses_for(self, pred: str) -> list[Clause]:
        return [c for c in self.definite if c.head is not None and c.head.pred == pred]


# ---------------------------------------------------------------------------
# SMT-LIB parsing

@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in "()":
            toks.append(_Tok(c, line, col))
            i += 1
            col += 1
            continue
        if c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise ParseError("unterminated quoted symbol", line, col)
            toks.append(_Tok(text[i : j + 1], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in "();":
            j += 1
        toks.append(_Tok(text[i:j], line, col))
        col += j - i
        i = j
    return toks


class _Node(list):
    """A parenthesised S-expression, located at its '('."""

    def __init__(self, line: int, col: int):
        super().__init__()
        self.line = line
        self.col = col


def read_sexps(text: str) -> Iterator:
    """The top-level S-expressions of `text`, in order: symbols as located
    tokens, parenthesised forms as located lists.  Read with an explicit
    stack, so nesting depth is bounded by memory, not by recursion."""
    stack: list[_Node] = []
    for tok in _tokenize(text):
        if tok.text == "(":
            stack.append(_Node(tok.line, tok.col))
        elif tok.text == ")":
            if not stack:
                raise ParseError("unexpected ')'", tok.line, tok.col)
            node = stack.pop()
            if stack:
                stack[-1].append(node)
            else:
                yield node
        elif stack:
            stack[-1].append(tok)
        else:
            yield tok
    if stack:
        raise ParseError("unbalanced parenthesis", stack[-1].line, stack[-1].col)


def symbol(node) -> Optional[str]:
    """The text of a symbol node; None for a parenthesised one."""
    return node.text if isinstance(node, _Tok) else None


# each head of `SYNTAX`: the class (and a view's mode), argument and result sorts
_BY_HEAD = {head: (key, *sorts) for key, (head, *sorts) in SYNTAX.items()}


@dataclass
class _AdtInfo:
    nil_name: str
    cons_name: str
    nat_like: bool


class _Parser:
    def __init__(self, nat_as_list: bool = False):
        self.nat_as_list = nat_as_list
        self.predicates: dict[str, tuple[Sort, ...]] = {}
        self.adts: dict[str, _AdtInfo] = {}
        self.ctor_to_adt: dict[str, _AdtInfo] = {}
        self.definite: list[Clause] = []
        self.goals: list[Clause] = []

    def fail(self, msg: str, node) -> "ParseError":
        if isinstance(node, _Tok):
            return ParseError(msg, node.line, node.col)
        for item in node if isinstance(node, list) else []:
            if isinstance(item, _Tok):
                return ParseError(msg, item.line, item.col)
        if isinstance(node, _Node):
            return ParseError(msg, node.line, node.col)
        return ParseError(msg)

    # -- sorts ------------------------------------------------------------
    def parse_sort(self, node) -> Sort:
        if isinstance(node, _Tok):
            if node.text == "Int":
                return Sort.INT
            if node.text in self.adts:
                return Sort.LIST
            raise self.fail(f"unsupported sort {node.text}", node)
        if len(node) == 2 and symbol(node[0]) in ("List", "Seq") and symbol(node[1]) == "Int":
            return Sort.LIST
        raise self.fail("unsupported sort", node)

    def declare_datatype(self, decl, ctors):
        name = decl[0].text if isinstance(decl, list) else decl.text
        if len(ctors) != 2:
            raise self.fail(
                f"unsupported sort {name}: need exactly two constructors", ctors
            )
        nullary = [c for c in ctors if len(c) == 1]
        other = [c for c in ctors if len(c) != 1]
        if len(nullary) != 1 or len(other) != 1:
            raise self.fail(f"unsupported sort {name}: not list-like", ctors)
        nil_name = nullary[0][0].text
        cons = other[0]
        cons_name = cons[0].text
        sels = cons[1:]
        if len(sels) == 2:
            elem_sort = sels[0][1]
            tail_sort = sels[1][1]
            if not (
                isinstance(elem_sort, _Tok)
                and elem_sort.text == "Int"
                and isinstance(tail_sort, _Tok)
                and tail_sort.text == name
            ):
                raise self.fail(f"unsupported sort {name}: not an Int list", cons)
            info = _AdtInfo(nil_name, cons_name, nat_like=False)
        elif len(sels) == 1:
            tail_sort = sels[0][1]
            if not (isinstance(tail_sort, _Tok) and tail_sort.text == name):
                raise self.fail(f"unsupported sort {name}: not nat-like", cons)
            if not self.nat_as_list:
                raise self.fail(
                    f"unsupported sort {name}: enable nat-as-list to accept it", cons
                )
            info = _AdtInfo(nil_name, cons_name, nat_like=True)
        else:
            raise self.fail(f"unsupported sort {name}: not list-like", cons)
        self.adts[name] = info
        self.ctor_to_adt[nil_name] = info
        self.ctor_to_adt[cons_name] = info

    # -- terms ------------------------------------------------------------
    def typed(self, node, scope: dict[str, Sort], sort: Sort) -> Term:
        """`node` parsed as a term of `sort`."""
        t = self.parse_term(node, scope)
        got = sort_of(t)
        if got is not sort:
            raise self.fail(f"ill-sorted term: expected {sort.value}, got {got.value}", node)
        return t

    def parse_term(self, node, scope: dict[str, Sort]) -> Term:
        if isinstance(node, _Tok):
            text = node.text
            digits = text[1:] if text.startswith("-") else text
            if digits.isascii() and digits.isdigit():  # a numeral: -?[0-9]+ in ASCII
                return TInt(int(text))
            if text in scope:
                return TVar(text, scope[text])
            if text in self.ctor_to_adt and self.ctor_to_adt[text].nil_name == text:
                return NIL
            if text == "nil":
                return NIL
            raise self.fail(f"unknown symbol {text}", node)
        if not node or not isinstance(node[0], _Tok):
            raise self.fail("bad term", node)
        op = node[0].text
        args = node[1:]
        if op in self.ctor_to_adt and self.ctor_to_adt[op].cons_name == op:
            info = self.ctor_to_adt[op]
            if info.nat_like:
                if len(args) != 1:
                    raise self.fail(f"{op} expects one argument", node)
                return TCons(TInt(0), self.typed(args[0], scope, Sort.LIST))
            op = "cons"  # the datatype's own name for it
        if op == "-" and len(args) == 1:
            t = self.typed(args[0], scope, Sort.INT)
            return TInt(-t.value) if isinstance(t, TInt) else TSub(TInt(0), t)
        if op in ("+", "-") and args:  # left-associative
            return functools.reduce(
                _BY_HEAD[op][0], [self.typed(a, scope, Sort.INT) for a in args]
            )
        if op == "*":
            if len(args) != 2:
                raise self.fail("only binary * is supported", node)
            a = self.typed(args[0], scope, Sort.INT)
            b = self.typed(args[1], scope, Sort.INT)
            if isinstance(a, TInt):
                return TMul(a.value, b)
            if isinstance(b, TInt):
                return TMul(b.value, a)
            raise self.fail("non-linear multiplication is unsupported", node)
        if op == "ite":
            if len(args) != 3:
                raise self.fail("ite expects three arguments", node)
            then = self.parse_term(args[1], scope)
            return TIte(
                self.parse_formula(args[0], scope),
                then,
                self.typed(args[2], scope, sort_of(then)),
            )
        if op == "as" and len(args) == 2 and symbol(args[0]) == "seq.empty":
            if self.parse_sort(args[1]) is Sort.LIST:
                return NIL
        if op == "seq.unit":
            if len(args) != 1:
                raise self.fail("seq.unit expects 1 argument", node)
            h = self.typed(args[0], scope, Sort.INT)
            return TSeq((h.value,)) if type(h) is TInt else TCons(h, NIL)
        if op == "seq.++" and len(args) > 1:
            # right-nested, with (seq.++ (seq.unit h) t) as cons and the
            # constant parts as one list constant, as `render_term` writes them
            parts = [self.typed(a, scope, Sort.LIST) for a in args]
            if all(type(p) is TSeq for p in parts):
                return TSeq(sum((p.values for p in parts), ()))
            out = parts[-1]
            for a, p in zip(args[-2::-1], parts[-2::-1]):
                if isinstance(a, list) and symbol(a[0]) == "seq.unit":
                    out = TCons(p.head if type(p) is TCons else TInt(*p.values), out)
                else:
                    out = TConcat(p, out)
            return out
        if op not in _BY_HEAD or _BY_HEAD[op][2] is ViewSort.BOOL:
            raise self.fail(f"unsupported term operator {op}", node)
        return self.apply(op, node, args, scope)

    def apply(self, head: str, node, args, scope):
        """`(head args ...)` as the class that `SYNTAX` writes with `head`,
        each argument of the sort the table gives it."""
        key, sorts, _ = _BY_HEAD[head]
        if len(args) != len(sorts):
            raise self.fail(f"{symbol(node[0])} expects {len(sorts)} arguments", node)
        terms, chosen = [], None
        for arg, want in zip(args, sorts):
            t = self.parse_term(arg, scope)
            got = sort_of(t)
            if isinstance(want, tuple):  # the first argument chooses the sort
                want = chosen = chosen or (got if got in want else want[0])
            if got is not want:
                raise self.fail(f"ill-sorted term: expected {want.value}, got {got.value}", arg)
            terms.append(t)
        return key[0](*terms, key[1]) if isinstance(key, tuple) else key(*terms)

    # -- formulas ----------------------------------------------------------
    def is_atom(self, node) -> bool:
        return (
            isinstance(node, list)
            and node
            and isinstance(node[0], _Tok)
            and node[0].text in self.predicates
        ) or (isinstance(node, _Tok) and node.text in self.predicates)

    def parse_atom(self, node, scope) -> PredicateAtom:
        if isinstance(node, _Tok):
            name, args = node.text, []
        else:
            name, args = node[0].text, node[1:]
        sig = self.predicates[name]
        if len(args) != len(sig):
            raise self.fail(f"{name} expects {len(sig)} arguments", node)
        return PredicateAtom(
            name, tuple(self.typed(a, scope, sort) for a, sort in zip(args, sig))
        )

    def parse_formula(self, node, scope) -> Formula:
        if isinstance(node, _Tok):
            if node.text == "true":
                return TRUE
            if node.text == "false":
                return FALSE
            raise self.fail(f"unsupported formula {node.text}", node)
        op = node[0].text if isinstance(node[0], _Tok) else None
        args = node[1:]
        if op == "and":
            return fand(self.parse_formula(a, scope) for a in args)
        if op == "or":
            return for_(self.parse_formula(a, scope) for a in args)
        if op == "not":
            return FNot(self.parse_formula(args[0], scope))
        if op == "ite":
            if len(args) != 3:
                raise self.fail("ite expects three arguments", node)
            c, a, b = (self.parse_formula(x, scope) for x in args)
            return for_([fand([c, a]), fand([FNot(c), b])])
        if op == "=>":
            out = self.parse_formula(args[-1], scope)
            for a in reversed(args[:-1]):
                out = FImp(self.parse_formula(a, scope), out)
            return out
        if op == "distinct":
            return FNot(self.apply("=", node, args, scope))
        if op in (">=", ">"):
            op, args = op.replace(">", "<"), args[::-1]
        if op in _BY_HEAD and _BY_HEAD[op][2] is ViewSort.BOOL:
            return self.apply(op, node, args, scope)
        raise self.fail(f"unsupported formula operator {op}", node)

    # -- clauses -----------------------------------------------------------
    def handle_assert(self, node):
        scope: dict[str, Sort] = {}
        body = node
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], _Tok)
            and body[0].text == "forall"
        ):
            for v in body[1]:
                if v[0].text in scope:
                    raise self.fail(f"duplicate binder {v[0].text}", v[0])
                scope[v[0].text] = self.parse_sort(v[1])
            body = body[2]
        self.add_clause(body, scope)

    def add_clause(self, body, scope):
        # peel nested implications: (=> a (=> b c)) == (=> (and a b) c)
        antecedents = []
        while (
            isinstance(body, list)
            and body
            and isinstance(body[0], _Tok)
            and body[0].text == "=>"
        ):
            antecedents.extend(body[1:-1])
            body = body[-1]
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], _Tok)
            and body[0].text == "not"
            and not self.is_atom(body)
        ):
            antecedents.append(body[1])
            body = _Tok("false", 0, 0)
        atoms: list[PredicateAtom] = []
        constraints: list[Formula] = []
        for a in antecedents:
            self.split_body(a, scope, atoms, constraints)
        head: Optional[PredicateAtom]
        if isinstance(body, _Tok) and body.text == "false":
            head = None
        elif self.is_atom(body):
            head = self.parse_atom(body, scope)
        else:
            # constraint head: normalize P(..) /\ C => C' into a goal
            constraints.append(FNot(self.parse_formula(body, scope)))
            head = None
        clause = Clause(tuple(atoms), fand(constraints), head)
        if head is None:
            self.goals.append(clause)
        else:
            self.definite.append(clause)

    def split_body(self, node, scope, atoms, constraints):
        if (
            isinstance(node, list)
            and node
            and isinstance(node[0], _Tok)
            and node[0].text == "and"
        ):
            for sub in node[1:]:
                self.split_body(sub, scope, atoms, constraints)
            return
        if self.is_atom(node):
            atoms.append(self.parse_atom(node, scope))
        else:
            constraints.append(self.parse_formula(node, scope))

    def run(self, text: str) -> ChcSystem:
        for node in read_sexps(text):
            if not isinstance(node, list) or not node:
                raise self.fail("expected a command", node)
            try:
                self.command(node)
            except (IndexError, AttributeError, TypeError):
                raise self.fail("malformed command", node) from None
        return ChcSystem(self.predicates, self.definite, self.goals)

    def command(self, node):
        cmd = node[0].text
        if cmd in ("set-logic", "set-info", "set-option", "check-sat",
                   "get-model", "exit"):
            return
        if cmd == "declare-fun":
            name = node[1].text
            ret = node[3]
            if not (isinstance(ret, _Tok) and ret.text == "Bool"):
                raise self.fail("declare-fun must return Bool", node)
            sig = tuple(self.parse_sort(s) for s in node[2])
            if self.predicates.setdefault(name, sig) != sig:
                raise self.fail(f"{name} redeclared with another signature", node[1])
            return
        if cmd == "declare-datatypes":
            decls, defs = node[1], node[2]
            if len(decls) != len(defs):
                raise self.fail("malformed declare-datatypes", node)
            for decl, ctors in zip(decls, defs):
                self.declare_datatype(decl, ctors)
            return
        if cmd == "assert":
            self.handle_assert(node[1])
            return
        raise self.fail(f"unsupported command {cmd}", node)


def parse_smtlib(text: str, nat_as_list: bool = False) -> ChcSystem:
    try:
        return _Parser(nat_as_list=nat_as_list).run(text)
    except RecursionError:
        raise ParseError("expressions nested too deeply to parse") from None


def render_smtlib(system: ChcSystem) -> str:
    """The supported subset back out as SMT-LIB in the datatype style; parse .
    render is identity on a system read from that style."""
    lines = ["(set-logic HORN)"]
    if any(Sort.LIST in sig for sig in system.predicates.values()):
        lines.append(
            "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))"
        )

    def sort_name(s: Sort) -> str:
        return {Sort.INT: "Int", Sort.LIST: "Lst"}[s]

    for name, sig in system.predicates.items():
        args = " ".join(sort_name(s) for s in sig)
        lines.append(f"(declare-fun {name} ({args}) Bool)")

    def render_clause(clause: Clause) -> str:
        scope = clause.variables()
        body_parts = [
            f"({a.pred} " + " ".join(render_term(t, "adt") for t in a.args) + ")"
            if a.args
            else f"{a.pred}"
            for a in clause.body_atoms
        ]
        if not isinstance(clause.constraint, FTrue):
            body_parts.append(render_formula(clause.constraint, "adt"))
        head = (
            "false"
            if clause.head is None
            else (
                f"({clause.head.pred} "
                + " ".join(render_term(t, "adt") for t in clause.head.args)
                + ")"
                if clause.head.args
                else clause.head.pred
            )
        )
        if body_parts:
            body = body_parts[0] if len(body_parts) == 1 else "(and " + " ".join(body_parts) + ")"
            inner = f"(=> {body} {head})"
        else:
            inner = head
        if scope:
            binders = " ".join(f"({v} {sort_name(s)})" for v, s in scope.items())
            return f"(assert (forall ({binders}) {inner}))"
        return f"(assert {inner})"

    for clause in system.definite + system.goals:
        lines.append(render_clause(clause))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ground samples and term matching

@dataclass(frozen=True)
class SampleBudget:
    depth: int = 3
    count: int = 8
    value_lo: int = 0
    value_hi: int = 3
    max_list_len: int = 4
    per_pred_cap: int = 32
    combo_cap: int = 400


@dataclass(frozen=True)
class Sample:
    predicate: str
    values: tuple
    provenance: tuple  # ("derived", depth) or ("counterexample",)


def _below(rng: random.Random, n: int) -> int:
    """A uniform draw from range(n), made by the loop CPython's
    `rng.randint(lo, lo + n - 1)` runs, so it leaves `rng` where randint
    would."""
    if n < 1:
        raise ValueError("empty range")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_value(sort: Sort, budget: SampleBudget, rng: random.Random):
    width = budget.value_hi - budget.value_lo + 1
    if sort is Sort.INT:
        return budget.value_lo + _below(rng, width)
    length = _below(rng, budget.max_list_len + 1)
    return tuple(budget.value_lo + _below(rng, width) for _ in range(length))


def _skip_draws(sorts: Sequence[Sort], budget: SampleBudget, rng: random.Random) -> None:
    """Advance `rng` past `budget.count` rounds of `_random_value` draws for
    `sorts`, building no value."""
    width = budget.value_hi - budget.value_lo + 1
    for _ in range(budget.count):
        for sort in sorts:
            for _ in range(1 if sort is Sort.INT else _below(rng, budget.max_list_len + 1)):
                _below(rng, width)


_UNKNOWN = object()


def _known(term: Term, binding: dict):
    """The value of `term` under `binding`, or `_UNKNOWN` when it has none."""
    try:
        return eval_term(term, binding)
    except Exception:
        return _UNKNOWN


def match_term(term: Term, value, binding: dict) -> Optional[bool]:
    """Solve `term == value` for the variables of `term` that `binding`
    leaves unbound, binding each one it solves.  True: the term matches;
    False: no values of the unbound variables can match; None: the shape
    cannot tell.  Inverts cons, `+`, `-` and `*` (the shapes of clause
    terms), and reverse, concatenation and ldiff/rdiff with a known operand
    (the shapes the bounded checker forces equations through)."""
    tt = type(term)
    if tt is TVar:
        if term.name in binding:
            return binding[term.name] == value
        binding[term.name] = value
        return True
    if tt is TInt:
        return isinstance(value, int) and term.value == value
    if tt is TSeq:
        return term.values == value
    if tt is TCons:
        if not isinstance(value, tuple) or not value:
            return False
        head = match_term(term.head, value[0], binding)
        if head is False:
            return False
        tail = match_term(term.tail, value[1:], binding)
        return tail if head else tail and None  # an unsolved head: only False decides
    if tt is TAdd:
        for var_side, known_side in ((term.a, term.b), (term.b, term.a)):
            c = _known(known_side, binding)
            if c is not _UNKNOWN:
                return match_term(var_side, value - c, binding)
        return None
    if tt is TSub:
        c = _known(term.b, binding)
        if c is not _UNKNOWN:
            return match_term(term.a, value + c, binding)
        c = _known(term.a, binding)
        if c is not _UNKNOWN:
            return match_term(term.b, c - value, binding)
        return None
    if tt is TMul:
        if term.factor == 0:
            return value == 0
        if value % term.factor:
            return False
        return match_term(term.t, value // term.factor, binding)
    if tt is TRev:
        if not isinstance(value, tuple):
            return False
        return match_term(term.t, value[::-1], binding)
    if tt is TConcat:
        if not isinstance(value, tuple):
            return False
        a = _known(term.a, binding)
        if a is not _UNKNOWN:
            if not isinstance(a, tuple) or value[: len(a)] != a:
                return False
            return match_term(term.b, value[len(a):], binding)
        b = _known(term.b, binding)
        if b is not _UNKNOWN:
            cut = len(value) - len(b) if isinstance(b, tuple) else -1
            if cut < 0 or value[cut:] != b:
                return False
            return match_term(term.a, value[:cut], binding)
        return None
    if tt is TLdiff:
        p = _known(term.prefix, binding)
        if isinstance(p, tuple) and isinstance(value, tuple):
            return match_term(term.t, p + value, binding)
        return None
    if tt is TRdiff:
        s = _known(term.suffix, binding)
        if isinstance(s, tuple) and isinstance(value, tuple):
            return match_term(term.t, value + s, binding)
        return None
    known = _known(term, binding)
    return None if known is _UNKNOWN else known == value


# ---------------------------------------------------------------------------
# ground joins: the one engine behind sampling, refutation and goal matching

class AtomTable:
    """The ground atoms of one predicate in insertion order, each with an
    item (its sample or derivation), and hash indexes on argument positions,
    each built the first time a join asks for it."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.items: list = []
        self._known: set[tuple] = set()
        self._indexes: dict[tuple[int, ...], dict[tuple, list[int]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, values: tuple) -> bool:
        return values in self._known

    def add(self, values: tuple, item) -> None:
        """Append an atom whose values are not in the table yet."""
        row = len(self.rows)
        self._known.add(values)
        self.rows.append(values)
        self.items.append(item)
        for positions, index in self._indexes.items():
            index.setdefault(tuple(values[p] for p in positions), []).append(row)

    def lookup(self, positions: tuple[int, ...], key: tuple) -> list[int]:
        """The rows, ascending, whose values at `positions` equal `key`."""
        index = self._indexes.get(positions)
        if index is None:
            index = self._indexes[positions] = {}
            for row, values in enumerate(self.rows):
                index.setdefault(tuple(values[p] for p in positions), []).append(row)
        return index.get(key, [])


def _bound_by_match(term: Term, out: set[str]) -> None:
    """Add the variables that every successful `match_term` of `term` binds."""
    if type(term) is TVar:
        out.add(term.name)
    elif type(term) is TCons:
        _bound_by_match(term.head, out)
        _bound_by_match(term.tail, out)


@dataclass(frozen=True)
class JoinPlan:
    """How `join` matches a clause body: per body atom, the argument positions
    known before it is matched (constants, and variables an earlier atom
    binds); and the sorted clause variables no body atom is sure to bind."""

    clause: Clause
    keys: tuple[tuple[int, ...], ...]
    free: tuple[str, ...]
    sorts: dict[str, Sort]


def plan_join(clause: Clause) -> JoinPlan:
    bound: set[str] = set()
    keys = []
    for atom in clause.body_atoms:
        keys.append(tuple(
            p for p, arg in enumerate(atom.args)
            if type(arg) in (TInt, TSeq) or (type(arg) is TVar and arg.name in bound)
        ))
        for arg in atom.args:
            _bound_by_match(arg, bound)
    sorts = clause.variables()
    return JoinPlan(clause, tuple(keys), tuple(sorted(set(sorts) - bound)), sorts)


def join(
    plan: JoinPlan, tables: dict[str, AtomTable], cap: Optional[int] = None
) -> Iterator[tuple[tuple[int, ...], dict]]:
    """Every match of the body atoms against rows of `tables`, as (row
    numbers, binding), in lexicographic order of the row numbers: the order
    of the product of the row lists, filtered by `match_term`.  Each atom
    sees the rows its table holds at the call.  With `cap`, only products
    whose position (the mixed-radix rank of the row numbers) is below `cap`
    are matched.  The indexes only prune: `match_term` confirms every row."""
    atoms = plan.clause.body_atoms
    limits = [len(tables[a.pred]) for a in atoms]
    strides = [1] * len(atoms)
    for k in range(len(atoms) - 2, -1, -1):
        strides[k] = strides[k + 1] * limits[k + 1]
    return _join_from(0, {}, 0, [0] * len(atoms), plan, tables, limits, strides, cap)


def _join_from(k, binding, rank, rows, plan, tables, limits, strides, cap):
    # A module-level generator rather than a closure in `join`: a closure
    # that calls itself is a reference cycle, which would keep every table
    # alive until the next full garbage collection.
    atoms = plan.clause.body_atoms
    if k == len(atoms):
        if cap is None or rank < cap:
            yield tuple(rows), binding
        return
    atom, table, positions = atoms[k], tables[atoms[k].pred], plan.keys[k]
    if positions:
        key = tuple(eval_term(atom.args[p], binding) for p in positions)
        candidates = table.lookup(positions, key)
    else:
        candidates = range(limits[k])
    for row in candidates:
        if row >= limits[k] or (cap is not None and rank + row * strides[k] >= cap):
            break
        trial = dict(binding)
        if all(match_term(arg, val, trial) for arg, val in zip(atom.args, table.rows[row])):
            rows[k] = row
            yield from _join_from(
                k + 1, trial, rank + row * strides[k], rows, plan, tables, limits, strides, cap
            )


def match_goal(plan: JoinPlan, tables: dict[str, AtomTable]) -> Optional[tuple[tuple, dict]]:
    """The first match of a goal body, in join order, that binds every goal
    variable and makes the constraint true, as (the matched items, binding)."""
    goal = plan.clause
    for rows, binding in join(plan, tables):
        if any(name not in binding for name in plan.free):
            continue  # free goal variables: not decidable from ground atoms
        try:
            if eval_formula(goal.constraint, binding):
                items = tuple(
                    tables[a.pred].items[r] for a, r in zip(goal.body_atoms, rows)
                )
                return items, binding
        except Exception:
            continue
    return None


# ---------------------------------------------------------------------------
# sampling the least model

def collect_samples(
    system: ChcSystem, budget: SampleBudget, rng: random.Random
) -> list[Sample]:
    """Positive samples of every predicate, derived bottom-up: facts are
    instantiated with random values, then definite clauses are unit-propagated
    up to the depth budget, each over the first `combo_cap` products of its
    body-atom pools.  Every returned sample is in the least model.

    Tables grow only after a level's loop, so a rule whose head table is
    full at the start of a level adds nothing at that level: its matches are
    still made, and `rng` is advanced past the draws of their free variables,
    which keeps the stream, but no value is built or evaluated."""
    tables = {p: AtomTable() for p in system.predicates}
    facts = [plan_join(c) for c in system.definite if not c.body_atoms]
    rules = [plan_join(c) for c in system.definite if c.body_atoms]
    for depth in range(budget.depth + 1):
        new: list[tuple[str, tuple]] = []
        for plan in rules if depth else facts:
            clause = plan.clause
            cap = budget.combo_cap if depth else None  # only rules are capped
            full = len(tables[clause.head.pred]) >= budget.per_pred_cap
            for _, binding in join(plan, tables, cap):
                free = [n for n in plan.free if n not in binding]
                if full:
                    _skip_draws([plan.sorts[n] for n in free], budget, rng)
                    continue
                for _ in range(budget.count if free else 1):
                    drawn = {n: _random_value(plan.sorts[n], budget, rng) for n in free}
                    env = {**binding, **drawn}
                    try:
                        if not eval_formula(clause.constraint, env):
                            continue
                        values = tuple(eval_term(a, env) for a in clause.head.args)
                    except Exception:
                        continue
                    new.append((clause.head.pred, values))
        for pred, values in new:
            table = tables[pred]
            if values not in table and len(table) < budget.per_pred_cap:
                table.add(values, Sample(pred, values, ("derived", depth)))

    out: list[Sample] = []
    for table in tables.values():
        out.extend(table.items)
    return out


# ---------------------------------------------------------------------------
# bounded derivability

def _bounded_domain(sort: Sort, budget: SampleBudget, seen_ints: set[int]):
    if sort is Sort.INT:
        lo = min([budget.value_lo, *seen_ints], default=budget.value_lo)
        hi = max([budget.value_hi, *seen_ints], default=budget.value_hi)
        return list(range(lo, hi + 1))
    vals = sorted(seen_ints | set(range(budget.value_lo, budget.value_hi + 1)))
    lists = [()]
    frontier = [()]
    for _ in range(budget.max_list_len):
        frontier = [w + (v,) for w in frontier for v in vals]
        lists.extend(frontier)
        if len(lists) > 4000:
            break
    return lists


def derivable(
    system: ChcSystem,
    pred: str,
    values: tuple,
    depth: int,
    budget: SampleBudget = SampleBudget(),
    memo: Optional[dict] = None,
) -> bool:
    """Sound bounded check that the ground atom is in the least model,
    within `depth` clause applications.  The integers of `values` and
    `value_lo..value_hi` fix the values it tries; `memo` maps each such set
    to a `_derive` table, shared by calls on one system and budget."""
    seen_ints: set[int] = set()
    for v in values:
        if isinstance(v, int):
            seen_ints.add(v)
        else:
            seen_ints.update(v)
    domain = frozenset(seen_ints.union(range(budget.value_lo, budget.value_hi + 1)))
    table = {} if memo is None else memo.setdefault(domain, {})
    return _derive(system, budget, seen_ints, table, pred, values, depth)


def _derive(system: ChcSystem, budget: SampleBudget, seen_ints: set, memo: dict,
            pred: str, values: tuple, d: int) -> bool:
    key = (pred, values, d)
    if key in memo:
        return memo[key]
    memo[key] = False
    for clause in system.clauses_for(pred):
        binding: dict = {}
        if len(clause.head.args) != len(values):
            continue
        if not all(
            match_term(arg, val, binding)
            for arg, val in zip(clause.head.args, values)
        ):
            continue
        if clause.body_atoms and d <= 0:
            continue
        sorts = clause.variables()
        free = sorted(set(sorts) - set(binding))
        domains = [_bounded_domain(sorts[name], budget, seen_ints) for name in free]
        product_size = 1
        for dom in domains:
            product_size *= len(dom)
        if product_size > 20000:
            continue  # incomplete but sound
        for combo in itertools.product(*domains):
            env = {**binding, **dict(zip(free, combo))}
            try:
                if not eval_formula(clause.constraint, env):
                    continue
                if all(
                    _derive(
                        system, budget, seen_ints, memo,
                        atom.pred,
                        tuple(eval_term(a, env) for a in atom.args),
                        d - 1,
                    )
                    for atom in clause.body_atoms
                ):
                    memo[key] = True
                    return True
            except Exception:
                continue
    return memo[key]

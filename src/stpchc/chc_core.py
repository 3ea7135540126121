"""Constrained Horn clauses over integers and integer lists.

Covers the SMT-LIB HORN subset (two-constructor list-like datatypes only),
least-model sampling by unit propagation, bounded derivability checking, and
checking goal bodies against concrete sample sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .formulas import (
    FALSE,
    FEq,
    FImp,
    FLe,
    FLt,
    FNot,
    FTrue,
    Formula,
    NIL,
    Sort,
    TAdd,
    TCons,
    TInt,
    TIte,
    TMul,
    TSeq,
    TSub,
    TVar,
    Term,
    TRUE,
    eval_formula,
    eval_term,
    fand,
    formula_vars,
    render_formula,
    render_term,
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
            if node.text == "Bool":
                return Sort.BOOL
            if node.text in self.adts:
                return Sort.LIST
            raise self.fail(f"unsupported sort {node.text}", node)
        if (
            len(node) == 2
            and isinstance(node[0], _Tok)
            and node[0].text == "List"
            and isinstance(node[1], _Tok)
            and node[1].text == "Int"
        ):
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
    def parse_term(self, node, scope: dict[str, Sort]) -> Term:
        if isinstance(node, _Tok):
            text = node.text
            if text.lstrip("-").isdigit():
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
                return TCons(TInt(0), self.parse_term(args[0], scope))
            if len(args) != 2:
                raise self.fail(f"{op} expects two arguments", node)
            return TCons(
                self.parse_term(args[0], scope), self.parse_term(args[1], scope)
            )
        if op == "cons" and len(args) == 2:
            return TCons(
                self.parse_term(args[0], scope), self.parse_term(args[1], scope)
            )
        if op == "+":
            terms = [self.parse_term(a, scope) for a in args]
            out = terms[0]
            for t in terms[1:]:
                out = TAdd(out, t)
            return out
        if op == "-":
            if len(args) == 1:
                t = self.parse_term(args[0], scope)
                if isinstance(t, TInt):
                    return TInt(-t.value)
                return TSub(TInt(0), t)
            terms = [self.parse_term(a, scope) for a in args]
            out = terms[0]
            for t in terms[1:]:
                out = TSub(out, t)
            return out
        if op == "*":
            if len(args) != 2:
                raise self.fail("only binary * is supported", node)
            a = self.parse_term(args[0], scope)
            b = self.parse_term(args[1], scope)
            if isinstance(a, TInt):
                return TMul(a.value, b)
            if isinstance(b, TInt):
                return TMul(b.value, a)
            raise self.fail("non-linear multiplication is unsupported", node)
        if op == "ite":
            if len(args) != 3:
                raise self.fail("ite expects three arguments", node)
            return TIte(
                self.parse_formula(args[0], scope),
                self.parse_term(args[1], scope),
                self.parse_term(args[2], scope),
            )
        raise self.fail(f"unsupported term operator {op}", node)

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
        return PredicateAtom(name, tuple(self.parse_term(a, scope) for a in args))

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
            from .formulas import for_

            return for_(self.parse_formula(a, scope) for a in args)
        if op == "not":
            return FNot(self.parse_formula(args[0], scope))
        if op == "=>":
            out = self.parse_formula(args[-1], scope)
            for a in reversed(args[:-1]):
                out = FImp(self.parse_formula(a, scope), out)
            return out
        if op == "=":
            return FEq(
                self.parse_term(args[0], scope), self.parse_term(args[1], scope)
            )
        if op == "distinct":
            return FNot(
                FEq(self.parse_term(args[0], scope), self.parse_term(args[1], scope))
            )
        if op == "<=":
            return FLe(self.parse_term(args[0], scope), self.parse_term(args[1], scope))
        if op == "<":
            return FLt(self.parse_term(args[0], scope), self.parse_term(args[1], scope))
        if op == ">=":
            return FLe(self.parse_term(args[1], scope), self.parse_term(args[0], scope))
        if op == ">":
            return FLt(self.parse_term(args[1], scope), self.parse_term(args[0], scope))
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
            except (IndexError, AttributeError):
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
            self.predicates[name] = tuple(self.parse_sort(s) for s in node[2])
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
    """The supported subset back out as SMT-LIB; parse . render is identity."""
    lines = ["(set-logic HORN)"]
    if any(Sort.LIST in sig for sig in system.predicates.values()):
        lines.append(
            "(declare-datatypes ((Lst 0)) (((nil) (cons (head Int) (tail Lst)))))"
        )

    def sort_name(s: Sort) -> str:
        return {Sort.INT: "Int", Sort.BOOL: "Bool", Sort.LIST: "Lst"}[s]

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
# term rendering uses nil/cons; teach render_term about TSeq-as-list
# (render_term in formulas prints sequence constants; lists in clauses are
# built from cons/nil so TSeq only appears as NIL there)

# ---------------------------------------------------------------------------
# sampling the least model

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

    @property
    def derived(self) -> bool:
        return self.provenance[0] == "derived"


def _random_value(sort: Sort, budget: SampleBudget, rng: random.Random):
    if sort is Sort.INT:
        return rng.randint(budget.value_lo, budget.value_hi)
    length = rng.randint(0, budget.max_list_len)
    return tuple(
        rng.randint(budget.value_lo, budget.value_hi) for _ in range(length)
    )


def match_term(term: Term, value, binding: dict) -> bool:
    """Match a clause-head term against a concrete value, extending
    `binding`; inverts cons and var-plus-constant shapes."""
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
        return match_term(term.head, value[0], binding) and match_term(
            term.tail, value[1:], binding
        )
    if tt is TAdd:
        for var_side, const_side in ((term.a, term.b), (term.b, term.a)):
            try:
                c = eval_term(const_side, binding)
            except Exception:
                continue
            return match_term(var_side, value - c, binding)
        return False
    if tt is TSub:
        try:
            c = eval_term(term.b, binding)
            return match_term(term.a, value + c, binding)
        except Exception:
            pass
        try:
            c = eval_term(term.a, binding)
            return match_term(term.b, c - value, binding)
        except Exception:
            return False
    if tt is TMul:
        if term.factor == 0:
            return value == 0
        if value % term.factor:
            return False
        return match_term(term.t, value // term.factor, binding)
    try:
        return eval_term(term, binding) == value
    except Exception:
        return False


def _free_var_assignments(
    names: Sequence[str],
    sorts: dict[str, Sort],
    budget: SampleBudget,
    rng: random.Random,
):
    if not names:
        yield {}
        return
    for _ in range(budget.count):
        yield {n: _random_value(sorts[n], budget, rng) for n in names}


def collect_samples(
    system: ChcSystem, budget: SampleBudget, rng: random.Random
) -> list[Sample]:
    """Positive samples of every predicate, derived bottom-up: facts are
    instantiated with random values, then definite clauses are unit-propagated
    up to the depth budget.  Every returned sample is in the least model."""
    db: dict[str, dict[tuple, Sample]] = {p: {} for p in system.predicates}

    def add(pred: str, values: tuple, depth: int) -> bool:
        bucket = db[pred]
        if values in bucket or len(bucket) >= budget.per_pred_cap:
            return False
        bucket[values] = Sample(pred, values, ("derived", depth))
        return True

    facts = [c for c in system.definite if not c.body_atoms]
    rules = [c for c in system.definite if c.body_atoms]
    for clause in facts:
        sorts = clause.variables()
        names = sorted(sorts)
        for env in _free_var_assignments(names, sorts, budget, rng):
            if eval_formula(clause.constraint, env):
                add(clause.head.pred, tuple(eval_term(a, env) for a in clause.head.args), 0)

    for depth in range(1, budget.depth + 1):
        new: list[tuple[str, tuple]] = []
        for clause in rules:
            sorts = clause.variables()
            pools = [list(db[a.pred].keys()) for a in clause.body_atoms]
            if any(not p for p in pools):
                continue
            for combo in itertools.islice(
                itertools.product(*pools), budget.combo_cap
            ):
                binding: dict = {}
                if not all(
                    all(
                        match_term(arg, val, binding)
                        for arg, val in zip(atom.args, values)
                    )
                    for atom, values in zip(clause.body_atoms, combo)
                ):
                    continue
                free = sorted(set(sorts) - set(binding))
                for extra in _free_var_assignments(free, sorts, budget, rng):
                    env = {**binding, **extra}
                    try:
                        if not eval_formula(clause.constraint, env):
                            continue
                        values = tuple(eval_term(a, env) for a in clause.head.args)
                    except Exception:
                        continue
                    new.append((clause.head.pred, values))
        for pred, values in new:
            add(pred, values, depth)

    out: list[Sample] = []
    for pred in db:
        out.extend(db[pred].values())
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
) -> bool:
    """Sound bounded check that the ground atom is in the least model,
    within `depth` clause applications."""
    seen_ints: set[int] = set()

    def collect_ints(v):
        if isinstance(v, int):
            seen_ints.add(v)
        else:
            seen_ints.update(v)

    for v in values:
        collect_ints(v)

    memo: dict = {}

    def derive(pred: str, values: tuple, d: int) -> bool:
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
                        derive(
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

    return derive(pred, values, depth)


# ---------------------------------------------------------------------------
# goal checking against concrete samples

@dataclass(frozen=True)
class GoalWitness:
    goal_index: int
    assignment: tuple[tuple[PredicateAtom, tuple], ...]
    env: dict


def bounded_goal_check(
    samples: Iterable[Sample], system: ChcSystem
) -> Optional[GoalWitness]:
    """Search for samples making some goal body concretely true; the samples
    must all belong to the least model (derived, or revalidated)."""
    by_pred: dict[str, list[tuple]] = {}
    for s in samples:
        by_pred.setdefault(s.predicate, []).append(s.values)
    for gi, goal in enumerate(system.goals):
        pools = [by_pred.get(a.pred, []) for a in goal.body_atoms]
        if any(not p for p in pools):
            continue
        for combo in itertools.product(*pools):
            binding: dict = {}
            if not all(
                all(
                    match_term(arg, val, binding)
                    for arg, val in zip(atom.args, values)
                )
                for atom, values in zip(goal.body_atoms, combo)
            ):
                continue
            sorts = goal.variables()
            if set(sorts) - set(binding):
                continue  # free goal variables: not decidable from samples
            try:
                if eval_formula(goal.constraint, binding):
                    return GoalWitness(
                        gi, tuple(zip(goal.body_atoms, combo)), binding
                    )
            except Exception:
                continue
    return None

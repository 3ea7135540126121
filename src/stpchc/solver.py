"""CHC solving by pattern inference.

The core loop (`_solve_patterns`): sample the least model, infer one pattern
per predicate, check the definite clauses, and feed revalidated
counterexamples back as new samples, until the definite clauses pass, then
check the goals; within one loop, `derivable` is asked about each atom once,
through one memo.
List, set and multiset mode are this one loop, the pattern mode picking the
algebra of inference (`build_model`) and of the membership formulas
(`pattern_to_formula`).  List-len mode instead strengthens list mode's
patterns with length invariants from an integer-CHC backend (external or the
built-in linear fitter) on the length abstraction.  Around them: a
breadth-first ground refutation search, and the mode sequencer that ties
them together.

Sampling (`collect_samples`) and refutation (`refute`) run on the one ground
join engine of `chc_core`: sampling with seeded-random values for the
variables a body match leaves free, refutation with every value of the
bounded domain.  Auto mode reports `unsat` only for a derivation that
`replay_derivation` confirms.

The modes live in one registry (`mode_registry`), which `solve` dispatches
through, and one function runs a solve (`_solve_in_order`).  Auto mode runs a
slice of the refutation search in the calling process (`REFUTE_SLICE`) and
returns a refutation found there.  Then it runs the modes in registry order,
each only once every mode before it has returned `unknown`; list-len mode
strengthens the checked model that list mode's verdict carries instead of
running the loop again.  Only when every mode returns `unknown` does the
refutation search run in full, from the start.  A single-mode solve runs its
mode alone, with no refutation.  All of this runs in the calling process
and thread.  A deadline (`SolverConfig.timeout`) is one `SIGALRM` timer,
armed after the slice, whose handler raises an exception that no `except
Exception` stops; so a timed solve runs only in the main thread, and the
caller's `SIGALRM` handler is restored after it.  An external backend
process dies with the `ask` call that started it, its process group
included, however that call ends.  The timer is the one way a solve stops,
so nothing below `_solve_in_order` polls for it.
"""

from __future__ import annotations

import itertools
import math
import random
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .chc_core import (
    AtomTable,
    ChcSystem,
    Clause,
    ParseError,
    PredicateAtom,
    Sample,
    SampleBudget,
    _Parser,
    _bounded_domain,
    collect_samples,
    derivable,
    join,
    match_goal,
    match_term,  # unused here; perfbench/tracing.py counts calls at this name
    plan_join,
    read_sexps,
    render_smtlib,
    symbol,
)
from .collection_inference import (
    infer_collection,  # unused here; perfbench/tracing.py probes this name
)
from .data import LearningData
from .formulas import (
    FALSE,
    FAnd,
    FEq,
    FFalse,
    FImp,
    FLe,
    FLt,
    FNot,
    FOr,
    FSubset,
    FTrue,
    Formula,
    Sort,
    TAdd,
    TCollDiff,
    TCollOf,
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
    TConcat,
    Term,
    TRUE,
    eval_formula,
    eval_term,
    fand,
    for_,
    render_formula,
    subst_formula,
)
from .pattern_core import (
    Cells,
    STRINGS,
    Mode,
    NotSolvableError,
    TuplePattern,
    atom_index,
    atom_is_const,
    atom_is_reversed,
    atom_letter,
    solving_steps,
    strip,
)
from .smt_backend import Bounds, BoundedChecker, Unknown, ask
from .stp_inference import InferConfig, infer


# ---------------------------------------------------------------------------
# configuration and verdicts

@dataclass(frozen=True)
class RefuteBudget:
    depth: int = 6
    max_atoms: int = 4_000
    value_lo: int = 0
    value_hi: int = 2
    max_list_len: int = 3
    derived_list_cap: int = 8


# coarse abstraction modes pay full exhaustion on valid clauses, so they
# run at a reduced list bound by default
COLLECTION_BOUNDS = Bounds(max_list_len=3)


# the model loop's fixed budgets
MAX_ITERATIONS = 50  # sample, infer and check rounds per loop
REVALIDATE_DEPTH = 8  # derivation depth of `derivable`'s gate on counterexamples
INFER = InferConfig(postfix=True, reverse=True)  # every rule but constant letters


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    # the bounded checker's bounds in every mode; None: each mode's default,
    # `Bounds()` for list and list-len, `COLLECTION_BOUNDS` for set and multiset
    bounds: Optional[Bounds] = None
    # the sampler's budget; a depth bump samples at `replace(sampling, depth=...)`,
    # and inference reads the first `per_pred_cap` rows of each predicate
    sampling: SampleBudget = SampleBudget(count=10)
    timeout: Optional[float] = None


def _checker(cfg: SolverConfig, default: Bounds = Bounds()) -> BoundedChecker:
    """A bounded checker at `cfg.bounds`, or at `default` when that is None."""
    return BoundedChecker(default if cfg.bounds is None else cfg.bounds)


class VerdictKind(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    kind: VerdictKind
    # a sat's model, the only one that models the system; list mode's
    # UNKNOWN after its definite clauses passed carries the model they passed
    # on, for list-len mode to start from
    model: Optional["CandidateModel"] = None
    derivation: Optional["RefutationWitness"] = None
    reason: Optional[str] = None
    mode: Optional[str] = None
    bounds: Optional[Bounds] = None  # those of the bounded checks behind a sat
    stats: dict = field(default_factory=dict)

    @property
    def bounded(self) -> bool:
        return self.bounds is not None


# ---------------------------------------------------------------------------
# patterns as formulas

class _SequenceTerms(Cells):
    """Sequence terms: a strip is an ldiff/rdiff term and always succeeds;
    the final equalities of the translation check what it assumed."""

    def is_empty(self, term) -> bool:
        return True

    def strip(self, term, aux, front: bool):
        return TLdiff(aux, term) if front else TRdiff(term, aux)

    def reverse(self, term):
        return TRev(term)

    def letter(self, letter: int, like):
        return TSeq((letter,))


_TERMS = _SequenceTerms()


class _CollectionTerms(Cells):
    """Set or multiset terms: a strip is a difference term, and each strip
    records the condition it assumed (containment, or emptiness)."""

    ordered = False

    def __init__(self, style: str):
        self.style = style
        self.conditions: list[Formula] = []

    def is_empty(self, term) -> bool:
        self.conditions.append(FEq(term, TCollOf(TSeq(()), self.style)))
        return True

    def strip(self, term, aux, front: bool):
        self.conditions.append(FSubset(aux, term))
        return TCollDiff(term, aux)

    def letter(self, letter: int, like):
        return TCollOf(TSeq((letter,)), self.style)


def pattern_to_formula(t: TuplePattern, args: Sequence[Term]) -> Formula:
    """Quantifier-free version of membership in the pattern, built by
    replaying a solving reduction.  Sequence mode solves the variables to
    ldiff/rdiff chains over the arguments, then reconstructs every
    component; set and multiset mode take the containment conditions of the
    reduction's difference terms."""
    if len(args) != t.arity:
        raise ValueError("arity mismatch")
    moves = solving_steps(t)
    if moves is None:
        raise NotSolvableError("only solvable patterns translate to formulas")
    steps = [move.step for move in moves]
    if t.mode is not Mode.SEQUENCE:
        cells = _CollectionTerms(t.mode.value)
        terms = tuple(TCollOf(a, cells.style) for a in args)
        for step in steps:
            terms = strip(terms, step, cells)
        return fand(cells.conditions)
    terms, final = tuple(args), t.elements
    for step in steps:
        terms = strip(terms, step, _TERMS)
        final = strip(final, step, STRINGS)
    solution = {atom_index(el[0]): term for el, term in zip(final, terms)}

    def element_term(el) -> Term:
        if not el:
            return TSeq(())
        parts = []
        for a in el:
            if atom_is_const(a):
                parts.append(TSeq((atom_letter(a),)))
            elif atom_is_reversed(a):
                parts.append(TRev(solution[atom_index(a)]))
            else:
                parts.append(solution[atom_index(a)])
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = TConcat(p, out)
        return out

    conditions = []
    for arg, el in zip(args, t.elements):
        rhs = element_term(el)
        if rhs == arg:
            continue
        conditions.append(FEq(arg, rhs))
    return fand(conditions)


# ---------------------------------------------------------------------------
# candidate models

def _formal(i: int) -> TVar:
    return TVar(f"$arg{i}", Sort.INT)


@dataclass
class PredicateModel:
    name: str
    signature: tuple[Sort, ...]
    pattern: Optional[TuplePattern] = None
    mode: Mode = Mode.SEQUENCE
    length_formula: Optional[Formula] = None  # over $arg0..$argN formals
    count_model: bool = False
    empty: bool = False

    def list_positions(self) -> list[int]:
        return [i for i, s in enumerate(self.signature) if s is Sort.LIST]

    def formula(self, args: Sequence[Term]) -> Formula:
        if self.empty:
            return FALSE
        # sequence patterns range over the list arguments, collection
        # patterns over every argument
        over = args
        if self.mode is Mode.SEQUENCE:
            over = [args[i] for i in self.list_positions()]
        parts = [] if self.pattern is None else [pattern_to_formula(self.pattern, over)]
        if self.count_model:
            parts.append(FEq(args[2], TCount(args[0], args[1])))
        if self.length_formula is not None:
            mapping = {}
            for i, (sort, arg) in enumerate(zip(self.signature, args)):
                mapping[_formal(i).name] = arg if sort is Sort.INT else TLen(arg)
            parts.append(subst_formula(self.length_formula, mapping))
        return fand(parts)

    def render(self) -> str:
        names = [f"l{i}" if s is Sort.LIST else f"n{i}" for i, s in enumerate(self.signature)]
        args = [TVar(n, s) for n, s in zip(names, self.signature)]
        binder = " ".join(
            f"({n} {'(Seq Int)' if s is Sort.LIST else 'Int'})"
            for n, s in zip(names, self.signature)
        )
        return f"(define-fun {self.name} ({binder}) Bool {render_formula(self.formula(args))})"


@dataclass
class CandidateModel:
    models: dict[str, PredicateModel]

    def formula_for(self, atom: PredicateAtom) -> Formula:
        return self.models[atom.pred].formula(atom.args)

    def render(self) -> str:
        return "\n".join(m.render() for m in self.models.values())


# ---------------------------------------------------------------------------
# clause checking

@dataclass
class CheckOutcome:
    status: str  # "valid" | "cex" | "unknown"
    clause: Optional[Clause] = None
    assignments: list = field(default_factory=list)
    bounds: Optional[Bounds] = None  # valid: the checker's, once a clause passed
    reason: Optional[str] = None


def clause_formula(model: CandidateModel, clause: Clause) -> Formula:
    ante = fand(
        [model.formula_for(a) for a in clause.body_atoms] + [clause.constraint]
    )
    cons = FALSE if clause.head is None else model.formula_for(clause.head)
    return FImp(ante, cons)


def _check_clauses(model, clauses, checker, cex_limit) -> CheckOutcome:
    for clause in clauses:
        try:
            cexs = checker.counterexamples(clause_formula(model, clause), limit=cex_limit)
        except Unknown as exc:
            return CheckOutcome("unknown", clause, reason=str(exc))
        if cexs:
            return CheckOutcome("cex", clause, cexs)
    return CheckOutcome("valid", bounds=checker.bounds if clauses else None)


def check_definite(model: CandidateModel, system: ChcSystem, checker,
                   cex_limit: int = 16) -> CheckOutcome:
    return _check_clauses(model, system.definite, checker, cex_limit)


def check_goal(model: CandidateModel, system: ChcSystem, checker) -> CheckOutcome:
    return _check_clauses(model, system.goals, checker, 1)


# ---------------------------------------------------------------------------
# the sampling / inference / checking loop

def _default_value(sort: Sort):
    return 0 if sort is Sort.INT else ()


def _head_instance(system: ChcSystem, clause: Clause, env: dict) -> tuple:
    sorts = clause.variables()
    full = dict(env)
    for name, sort in sorts.items():
        full.setdefault(name, _default_value(sort))
    return tuple(eval_term(a, full) for a in clause.head.args)


def admit_counterexamples(
    system: ChcSystem,
    clause: Clause,
    assignments: Sequence[dict],
    cfg: SolverConfig,
    known: set,
    refused: Optional[set] = None,
    derived: Optional[dict] = None,
) -> tuple[list[Sample], int]:
    """Head instances of clause counterexamples, gated by the bounded
    derivability check: spurious instances never reach the learning data.
    `refused` holds the `(pred, values)` atoms the check has rejected under
    `cfg`: they are rejected again without asking it, and the atoms it
    rejects now are added.  Without it, a fresh set is used.  `derived` is
    `derivable`'s memo for `system` under `cfg`, or None for a fresh one
    per call."""
    refused = set() if refused is None else refused
    rejected = 0
    for env in assignments:
        try:
            values = _head_instance(system, clause, env)
        except Exception:
            rejected += 1
            continue
        if (clause.head.pred, values) in known:
            continue
        if _derivable(system, clause.head.pred, values, cfg, refused, derived):
            return [Sample(clause.head.pred, values, ("counterexample",))], rejected
        rejected += 1
    return [], rejected


def _derivable(system: ChcSystem, pred: str, values: tuple, cfg: SolverConfig,
               refused: set, derived: Optional[dict]) -> bool:
    """`derivable` at `cfg`'s depth and budget, with memo `derived`,
    remembering its rejections in `refused`.  Its answer depends on these
    arguments alone, so a remembered rejection stands."""
    if (pred, values) in refused:
        return False
    if derivable(system, pred, values, REVALIDATE_DEPTH, cfg.sampling, derived):
        return True
    refused.add((pred, values))
    return False


def _by_pred(system: ChcSystem, samples: Sequence[Sample]) -> dict[str, list[tuple]]:
    table: dict[str, list[tuple]] = {p: [] for p in system.predicates}
    for s in samples:
        bucket = table[s.predicate]
        if s.values not in bucket and len(bucket) < 64:
            bucket.append(s.values)
    return table


def _count_semantics(sig, rows) -> bool:
    if tuple(sig) != (Sort.INT, Sort.LIST, Sort.INT) or not rows:
        return False
    return all(
        isinstance(x, int) and isinstance(z, int) and z == sum(1 for v in l if v == x)
        for x, l, z in rows
    )


def build_model(
    system: ChcSystem, samples_by_pred: dict, cfg: SolverConfig, mode: Mode
) -> CandidateModel:
    """One pattern of `mode` per predicate, inferred from the first
    `per_pred_cap` samples: in sequence mode over the list arguments (none:
    no pattern), in set and multiset mode over every argument, an integer as
    a singleton, with `count`'s semantics recognised.  A predicate without
    samples is modelled empty."""
    models = {}
    for pred, sig in system.predicates.items():
        rows = samples_by_pred.get(pred, [])
        if not rows:
            models[pred] = PredicateModel(pred, sig, mode=mode, empty=True)
            continue
        capped = rows[: cfg.sampling.per_pred_cap]
        if mode is Mode.SEQUENCE:
            list_pos = [i for i, s in enumerate(sig) if s is Sort.LIST]
            if not list_pos:
                models[pred] = PredicateModel(pred, sig)
                continue
            data = LearningData([[row[i] for i in list_pos] for row in capped])
        else:
            cells = [
                [(set(v) if mode is Mode.SET else v) if isinstance(v, tuple) else (v,) for v in row]
                for row in capped
            ]
            data = LearningData(cells, mode)
        models[pred] = PredicateModel(
            pred,
            sig,
            pattern=infer(data, INFER),
            mode=mode,
            count_model=mode is not Mode.SEQUENCE and _count_semantics(sig, rows),
        )
    return CandidateModel(models)


def _solve_patterns(system: ChcSystem, cfg: SolverConfig, checker, mode: Mode) -> Verdict:
    """Sample, infer a model of `mode`'s patterns, check it and learn from the
    counterexamples until the definite clauses pass, then check the goals.
    SAT: the model, with the bounds of those checks.  UNKNOWN: the reason the
    loop gave up, or why the goals failed; in sequence mode the latter keeps
    the model whose definite clauses passed, with `bounds` None, so that
    list-len mode can start from it."""
    stats = {"iterations": 0, "rejected_cex": 0, "accepted_cex": 0}

    def unknown(reason: Optional[str], model: Optional[CandidateModel] = None) -> Verdict:
        return Verdict(VerdictKind.UNKNOWN, model=model, reason=reason, stats=stats)

    rng = random.Random(cfg.seed)
    refused: set = set()  # atoms `derivable` rejected, asked once per loop
    derived: dict = {}  # `derivable`'s memo, shared by the loop's calls
    samples = collect_samples(system, cfg.sampling, rng)
    depth_bump = 0
    for _ in range(MAX_ITERATIONS):
        stats["iterations"] += 1
        model = build_model(system, _by_pred(system, samples), cfg, mode)
        try:
            dres = check_definite(model, system, checker)
        except NotSolvableError as exc:
            return unknown(str(exc))
        if dres.status == "unknown":
            return unknown(dres.reason)
        if dres.status == "valid":
            stats["samples"] = len(samples)
            gres = check_goal(model, system, checker)
            if gres.status == "valid":
                return Verdict(VerdictKind.SAT, model=model, bounds=dres.bounds or gres.bounds,
                               stats=stats)
            reason = gres.reason if gres.status == "unknown" else "patterns hold but do not imply the goals"
            return unknown(reason, model if mode is Mode.SEQUENCE else None)
        known = {(s.predicate, s.values) for s in samples}
        new, rejected = admit_counterexamples(
            system, dres.clause, dres.assignments, cfg, known, refused, derived
        )
        stats["rejected_cex"] += rejected
        if new:
            stats["accepted_cex"] += len(new)
            samples.extend(new)
            continue
        depth_bump += 1
        budget = replace(cfg.sampling, depth=cfg.sampling.depth + depth_bump)
        more = collect_samples(system, budget, rng)
        fresh = [s for s in more if (s.predicate, s.values) not in known]
        if not fresh:
            return unknown("counterexamples rejected and a deeper sample found no new atom")
        samples.extend(fresh)
    return unknown("iteration limit")


# The mode runners.  Each is called as `runner(system, cfg, checker=...,
# int_backend=...)` and ignores the backends it has no use for; `_in_order`
# names its verdict after its registry entry, and gives list-len mode list
# mode's verdict as `after=` when list mode ran before it.

def solve_list_mode(
    system: ChcSystem, cfg: SolverConfig = SolverConfig(), checker=None, int_backend=None
) -> Verdict:
    return _solve_patterns(system, cfg, checker or _checker(cfg), Mode.SEQUENCE)


def solve_collection_mode(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    mode: Mode = Mode.MULTISET,
    checker=None,
    int_backend=None,
) -> Verdict:
    # collection atoms have no external encoding: always the bounded evaluator
    return _solve_patterns(system, cfg, _checker(cfg, COLLECTION_BOUNDS), mode)


# ---------------------------------------------------------------------------
# length abstraction

def length_abstract(system: ChcSystem) -> ChcSystem:
    """Lists become their lengths: nil -> 0, cons -> +1.  In a definite
    clause, a list equality becomes the equality of the lengths where it
    occurs positively and false where negatively, so every constraint that
    holds on lists holds on their lengths.  In a goal, every list equality
    becomes the equality of the lengths, negated or not; goals keep their
    concrete check."""
    return ChcSystem(
        predicates={
            name: tuple(Sort.INT for _ in sig)
            for name, sig in system.predicates.items()
        },
        definite=[_abs_clause(c, False) for c in system.definite],
        goals=[_abs_clause(c, True) for c in system.goals],
    )


def _abs_term(t: Term, sorts) -> Term:
    tt = type(t)
    if tt is TVar:
        return TVar(t.name, Sort.INT)
    if tt is TSeq:
        return TInt(len(t.values))
    if tt is TInt:
        return t
    if tt is TCons:
        return TAdd(TInt(1), _abs_term(t.tail, sorts))
    if tt is TAdd:
        return TAdd(_abs_term(t.a, sorts), _abs_term(t.b, sorts))
    if tt is TSub:
        return TSub(_abs_term(t.a, sorts), _abs_term(t.b, sorts))
    if tt is TMul:
        return TMul(t.factor, _abs_term(t.t, sorts))
    if tt is TIte:
        # the condition is abstracted as in a goal, which may not hold on the
        # lengths where it holds on the lists: a clause whose terms test a
        # list equality relies on list-len mode's concrete re-check
        return TIte(
            _abs_formula(t.cond, sorts, True),
            _abs_term(t.then, sorts),
            _abs_term(t.other, sorts),
        )
    raise ValueError(f"cannot length-abstract {t!r}")


def _is_list_term(t: Term, sorts) -> bool:
    tt = type(t)
    if tt is TVar:
        return sorts.get(t.name) is Sort.LIST
    if tt is TSeq or tt is TCons:
        return True
    if tt is TIte:
        return _is_list_term(t.then, sorts)
    return False


def _abs_formula(f: Formula, sorts, in_goal: bool, positive: bool = True) -> Formula:
    """`f` over lengths; `positive` is the polarity of `f` in the clause."""
    ft = type(f)
    if ft in (FTrue, FFalse):
        return f
    if ft is FAnd:
        return fand(_abs_formula(p, sorts, in_goal, positive) for p in f.parts)
    if ft is FOr:
        return for_(_abs_formula(p, sorts, in_goal, positive) for p in f.parts)
    if ft is FNot:
        inner = _abs_formula(f.f, sorts, in_goal, not positive)
        return TRUE if type(inner) is FFalse else FNot(inner)
    if ft is FImp:
        return FImp(
            _abs_formula(f.a, sorts, in_goal, not positive),
            _abs_formula(f.b, sorts, in_goal, positive),
        )
    if ft is FEq:
        if not (in_goal or positive) and (
            _is_list_term(f.a, sorts) or _is_list_term(f.b, sorts)
        ):
            return FALSE  # equal lengths do not make equal lists
        return FEq(_abs_term(f.a, sorts), _abs_term(f.b, sorts))
    if ft is FLt:
        return FLt(_abs_term(f.a, sorts), _abs_term(f.b, sorts))
    if ft is FLe:
        return FLe(_abs_term(f.a, sorts), _abs_term(f.b, sorts))
    raise ValueError(f"cannot length-abstract {f!r}")


def _abs_clause(clause: Clause, in_goal: bool) -> Clause:
    sorts = clause.variables()
    atoms = tuple(
        PredicateAtom(a.pred, tuple(_abs_term(arg, sorts) for arg in a.args))
        for a in clause.body_atoms
    )
    head = None
    if clause.head is not None:
        head = PredicateAtom(
            clause.head.pred,
            tuple(_abs_term(arg, sorts) for arg in clause.head.args),
        )
    return Clause(atoms, _abs_formula(clause.constraint, sorts, in_goal), head)


# ---------------------------------------------------------------------------
# integer models: built-in fitter and external backend

def _affine_equations(rows: list[tuple[int, ...]], arity: int) -> list[Formula]:
    """Exact affine relations satisfied by every row: the nullspace of
    [args | 1], one linear equality with coprime integer coefficients per
    basis vector."""
    if not rows:
        return []
    width = arity + 1
    matrix = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows]
    # row-reduce
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    free = [c for c in range(width) if c not in pivots]
    equations = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -matrix[row_idx][fc]
        denom = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * denom) for x in vec]
        term: Optional[Term] = None
        for i, coeff in enumerate(ints[:-1]):
            if coeff == 0:
                continue
            part = _formal(i) if coeff == 1 else TMul(coeff, _formal(i))
            term = part if term is None else TAdd(term, part)
        const = ints[-1]
        if term is None:
            continue
        if const:
            term = TAdd(term, TInt(const))
        equations.append(FEq(term, TInt(0)))
    return equations


def _int_model_candidates(rows: list[tuple[int, ...]], arity: int) -> list[Formula]:
    """Candidate integer models, strongest first: the affine hull, then one
    comparison-guarded split per argument pair, then true."""
    candidates: list[Formula] = []
    eqs = _affine_equations(rows, arity)
    if eqs:
        candidates.append(fand(eqs))
    for i in range(arity):
        for j in range(arity):
            if i == j:
                continue
            guard = FLt(_formal(i), _formal(j))
            low = [r for r in rows if r[i] < r[j]]
            high = [r for r in rows if r[i] >= r[j]]
            eqs_low = _affine_equations(low, arity)
            eqs_high = _affine_equations(high, arity)
            if not low and not high:
                continue
            if (low and not eqs_low) and (high and not eqs_high):
                continue
            branches = []
            if low:
                branches.append(fand([guard] + eqs_low))
            if high:
                branches.append(fand([FNot(guard)] + eqs_high))
            cand = for_(branches)
            if not isinstance(cand, (FTrue, FFalse)) and cand not in candidates:
                candidates.append(cand)
    candidates.append(TRUE)
    return candidates


class BuiltinIntChc:
    """Integer-CHC fallback: fit per-predicate models from sampled abstract
    least-model tuples and weaken per failing clause until the definite
    clauses pass the bounded check."""

    def solve(
        self, abstract: ChcSystem, cfg: SolverConfig, rng: random.Random
    ) -> Optional[dict[str, Formula]]:
        checker = _checker(cfg)
        budget = replace(cfg.sampling, depth=cfg.sampling.depth + 1)
        samples = collect_samples(abstract, budget, rng)
        table = _by_pred(abstract, samples)
        menus: dict[str, list[Formula]] = {}
        chosen: dict[str, int] = {}
        for pred, sig in abstract.predicates.items():
            rows = table.get(pred, [])
            if not rows:
                menus[pred] = [FALSE, TRUE]
            else:
                menus[pred] = _int_model_candidates(rows, len(sig))
            chosen[pred] = 0

        def model() -> CandidateModel:
            return CandidateModel(
                {
                    pred: PredicateModel(
                        pred,
                        abstract.predicates[pred],
                        length_formula=menus[pred][chosen[pred]],
                    )
                    for pred in abstract.predicates
                }
            )

        for _ in range(40):
            outcome = check_definite(model(), abstract, checker, 1)
            if outcome.status == "valid":
                break
            if outcome.status == "unknown":
                return None
            pred = outcome.clause.head.pred
            if chosen[pred] + 1 >= len(menus[pred]):
                return None
            chosen[pred] += 1
        else:
            return None
        return {pred: menus[pred][chosen[pred]] for pred in abstract.predicates}


class ExternalIntChc:
    """Child process consuming a HORN problem over integers and producing a
    model as define-fun forms.  A call ends when the process does, after
    `TIMEOUT` seconds, or at the solve's deadline; `ask` then kills the
    process with its process group."""

    TIMEOUT = 30.0  # seconds per call

    def __init__(self, cmd: list[str]):
        self.cmd = cmd

    def solve(
        self, abstract: ChcSystem, cfg: SolverConfig, rng: random.Random
    ) -> Optional[dict[str, Formula]]:
        try:
            verdict, model = ask(self.cmd, render_smtlib(abstract), self.TIMEOUT)
        except Unknown:
            return None
        if verdict != "sat":
            return None
        return parse_int_model(model, abstract.predicates)


def parse_int_model(text: str, predicates: dict) -> Optional[dict[str, Formula]]:
    """The `define-fun` bodies of an integer CHC model over `$arg0..$argN`,
    or None unless every predicate has one the formula reader accepts."""
    try:
        nodes = list(read_sexps(text))
    except ValueError:
        return None
    defs = []
    pending = nodes[::-1]
    while pending:
        node = pending.pop()
        if isinstance(node, list):
            if node and symbol(node[0]) == "define-fun":
                defs.append(node)
            else:
                pending.extend(reversed(node))
    reader = _Parser()
    out: dict[str, Formula] = {}
    for node in defs:
        try:
            _, name_node, params, _ret, body = node
        except ValueError:
            return None
        name = symbol(name_node)
        if name not in predicates:
            continue
        if not isinstance(params, list) or not all(isinstance(p, list) and p for p in params):
            return None
        try:
            scope = {symbol(p[0]): reader.parse_sort(p[1]) for p in params}
            f = reader.parse_formula(body, scope)
            out[name] = subst_formula(
                f, {symbol(p[0]): _formal(i) for i, p in enumerate(params)}
            )
        except (ParseError, IndexError, RecursionError):  # the last: nested too deeply
            return None
    if set(out) != set(predicates):
        return None
    return out


def solve_list_len_mode(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    checker=None,
    int_backend=None,
    *,
    after: Optional[Verdict] = None,
) -> Verdict:
    """Patterns plus length invariants: solve the length abstraction with an
    integer backend, embed its model through list lengths, conjoin with the
    inferred patterns, and re-check everything on the original system.

    The patterns are those of list mode's model, whose definite clauses
    passed.  `after` is list mode's verdict on the same system and config;
    with `after` None, this mode runs list mode first.  A verdict without a
    model is returned as it is, the reason list mode's loop gave up."""
    checker = checker or _checker(cfg)
    int_backend = int_backend or BuiltinIntChc()
    res = after if after is not None else solve_list_mode(system, cfg, checker)
    if res.model is None:
        return res

    def unknown(reason: str) -> Verdict:
        return Verdict(VerdictKind.UNKNOWN, reason=reason, stats=res.stats)

    abstract = length_abstract(system)
    int_models = int_backend.solve(abstract, cfg, random.Random(cfg.seed + 1))
    if int_models is None:
        return unknown("no integer model for the length abstraction")
    model = CandidateModel(
        {
            pred: replace(res.model.models[pred], length_formula=int_models[pred])
            for pred in system.predicates
        }
    )
    dres = check_definite(model, system, checker, 1)
    if dres.status != "valid":
        return unknown("length-strengthened model fails a definite clause")
    gres = check_goal(model, system, checker)
    if gres.status == "valid":
        return Verdict(
            VerdictKind.SAT, model=model, bounds=dres.bounds or gres.bounds,
            stats=res.stats,
        )
    return unknown("length-strengthened model does not imply the goals")


# ---------------------------------------------------------------------------
# refutation by breadth-first ground derivation

@dataclass(frozen=True)
class DerivedAtom:
    predicate: str
    values: tuple
    clause_index: int
    env: tuple  # sorted (name, value) pairs
    children: tuple


@dataclass(frozen=True)
class RefutationWitness:
    goal_index: int
    env: tuple
    atoms: tuple[DerivedAtom, ...]
    depth: int


def refute(
    system: ChcSystem,
    budget: RefuteBudget = RefuteBudget(),
    units: float = math.inf,
) -> Optional[RefutationWitness]:
    """Exhaustive bottom-up derivation over a small value domain, checking
    the goal bodies after each level; a hit yields a replayable derivation
    of false.  Level 0 applies the facts; a later level applies every rule
    to the atoms derived so far (earlier clauses of the same level included)
    and keeps the combinations that use an atom of the previous level.

    Returns the witness, or None: when the search ends without one, or once
    it has done `units` units of work, a unit being one join match or one
    assignment of a rule's free variables.  The search is deterministic, so
    a search cut at `units` that finds a witness finds the uncut one's."""
    tables = {p: AtomTable() for p in system.predicates}
    domains = {sort: _bounded_domain(sort, budget, set()) for sort in Sort}
    facts = [(i, plan_join(c)) for i, c in enumerate(system.definite) if not c.body_atoms]
    rules = [(i, plan_join(c)) for i, c in enumerate(system.definite) if c.body_atoms]
    goals = [plan_join(g) for g in system.goals]
    total = 0
    start = {p: 0 for p in tables}
    left = units  # units before the cut

    for depth in range(budget.depth + 1):
        previous, start = start, {p: len(t) for p, t in tables.items()}
        for idx, plan in rules if depth else facts:
            clause = plan.clause
            for rows, binding in join(plan, tables):
                left -= 1
                if not left:
                    return None
                if depth and not any(
                    previous[a.pred] <= r < start[a.pred]
                    for a, r in zip(clause.body_atoms, rows)
                ):
                    continue
                free = [n for n in plan.free if n not in binding]
                for extra in itertools.product(*(domains[plan.sorts[n]] for n in free)):
                    left -= 1
                    if not left:
                        return None
                    env = {**binding, **dict(zip(free, extra))}
                    try:
                        if not eval_formula(clause.constraint, env):
                            continue
                        values = tuple(eval_term(a, env) for a in clause.head.args)
                    except Exception:
                        continue
                    table = tables[clause.head.pred]
                    if values in table or any(
                        isinstance(v, tuple) and len(v) > budget.derived_list_cap
                        for v in values
                    ):
                        continue
                    children = tuple(
                        tables[a.pred].items[r] for a, r in zip(clause.body_atoms, rows)
                    )
                    node = DerivedAtom(
                        clause.head.pred, values, idx, tuple(sorted(env.items())), children
                    )
                    table.add(values, node)
                    total += 1
                    if total >= budget.max_atoms:
                        return None
        for gi, plan in enumerate(goals):
            found = match_goal(plan, tables)
            if found is not None:
                atoms, binding = found
                return RefutationWitness(gi, tuple(sorted(binding.items())), atoms, depth)
        if all(len(t) == start[p] for p, t in tables.items()):
            return None
    return None


def _replays(system: ChcSystem, clause: Clause, env: tuple, values: Optional[tuple],
             children: tuple) -> bool:
    """Under `env`, `clause` derives the atom `values` (a goal, with `values`
    None, derives false) from the atoms of `children`, and each child
    replays in turn."""
    if (clause.head is None) != (values is None) or len(clause.body_atoms) != len(children):
        return False
    env = dict(env)
    try:
        if not eval_formula(clause.constraint, env):
            return False
        if values is not None and tuple(eval_term(a, env) for a in clause.head.args) != values:
            return False
        if any(
            tuple(eval_term(a, env) for a in atom.args) != child.values
            for atom, child in zip(clause.body_atoms, children)
        ):
            return False
    except Exception:
        return False
    return all(
        _replays(system, system.definite[c.clause_index], c.env, c.values, c.children)
        for c in children
    )


def replay_derivation(system: ChcSystem, witness: RefutationWitness) -> bool:
    """Concretely re-verify a refutation: every derivation node applies its
    clause to its children, and the goal body evaluates to true."""
    goal = system.goals[witness.goal_index]
    return _replays(system, goal, witness.env, None, witness.atoms)


# ---------------------------------------------------------------------------
# the mode registry and the solving sequence

def mode_registry() -> dict[str, Callable[..., Verdict]]:
    """The modes by name, in the order auto mode tries them.  Built at each
    call, so that it holds the runners the module has at that time."""
    return {
        "list": solve_list_mode,
        "multiset": partial(solve_collection_mode, mode=Mode.MULTISET),
        "list-len": solve_list_len_mode,
        "set": partial(solve_collection_mode, mode=Mode.SET),
    }


# The units of refutation work (`refute`) that auto mode does before its
# first mode: a unit takes 4-21 us on the bundled systems and about 8 us on
# the median one, so the slice takes about 25 ms.  Every bundled unsat
# system (at most 2,379 units) and reva (461) finish inside it; take_drop's
# search (5,919 units) and sort's (18,027) are cut there, so they do not
# delay their sat verdicts.  The full search runs from the start only if
# every mode returns UNKNOWN, and then redoes at most these units.
REFUTE_SLICE = 3_000


def _refutation(system: ChcSystem, witness: Optional[RefutationWitness]) -> Verdict:
    """A refutation's result as a verdict: UNSAT only for a witness that replays."""
    if witness is None:
        return Verdict(VerdictKind.UNKNOWN, mode="refutation")
    if replay_derivation(system, witness):
        return Verdict(VerdictKind.UNSAT, derivation=witness, mode="refutation")
    return Verdict(VerdictKind.UNKNOWN, reason="refutation witness does not replay",
                   mode="refutation")


def _in_order(entries, system: ChcSystem, cfg: SolverConfig, checker, int_backend,
              refutation: bool, tried: list) -> Verdict:
    """Run the `(name, runner)` entries one after another, each verdict named
    after its entry; list-len mode gets list mode's verdict, when list mode
    ran before it, as `after`.  The first verdict that is not UNKNOWN wins;
    its `stats["attempts"]` lists `(mode, outcome, reason)` for the entries
    before it, each appended to `tried` as it comes in.

    When every entry returns UNKNOWN and `refutation` is set, the full
    refutation search runs, and its UNSAT wins.  Otherwise the verdict is
    the last entry's if it has a reason or there was no search, and else
    refutation's."""
    verdicts: dict = {}  # by name, the verdict of each entry run so far
    for name, runner in entries:
        if name == "list-len" and "list" in verdicts:
            runner = partial(runner, after=verdicts["list"])
        got = replace(runner(system, cfg, checker=checker, int_backend=int_backend), mode=name)
        verdict = replace(got, stats={**got.stats, "attempts": list(tried)})
        if verdict.kind is not VerdictKind.UNKNOWN:
            return verdict
        verdicts[name] = got
        tried.append((name, got.kind.value, got.reason))
    if not refutation:
        return verdict
    refuted = replace(_refutation(system, refute(system)), stats={"attempts": tried})
    if refuted.kind is not VerdictKind.UNKNOWN or verdict.reason is None:
        return refuted
    return verdict


class _Deadline(BaseException):
    """Raised by a timed solve's SIGALRM handler.  Not an `Exception`, so
    that no `except Exception` between the handler and `_solve_in_order`
    stops it."""


def _expire(signum, frame) -> None:
    raise _Deadline


def _solve_in_order(entries, system: ChcSystem, cfg: SolverConfig, checker, int_backend,
                    refutation: bool) -> Verdict:
    """With `refutation`, run the first `REFUTE_SLICE` units of the
    refutation search; a witness found there is returned when it replays,
    even past the deadline.  Then run the entries in order, and the full
    search only if they all return UNKNOWN (`_in_order`).

    With `cfg.timeout`, a one-shot `ITIMER_REAL` timer, armed after the
    slice, raises `_Deadline` at the deadline; the verdict is then UNKNOWN
    with reason `timeout`, named after the entry that was running.  The
    timer needs the main thread, so a timed solve anywhere else raises
    ValueError before any work.  The caller's SIGALRM handler is restored
    and the timer disarmed however the solve ends."""
    if cfg.timeout is not None and threading.current_thread() is not threading.main_thread():
        raise ValueError("a solve with a timeout must run in the main thread, "
                         "where its SIGALRM timer can be handled")
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout
    if refutation:
        refuted = _refutation(system, refute(system, units=REFUTE_SLICE))
        if refuted.kind is not VerdictKind.UNKNOWN:
            return replace(refuted, stats={"attempts": []})
    args = (entries, system, cfg, checker, int_backend, refutation)
    tried: list = []  # (mode, outcome, reason) per entry that returned UNKNOWN
    if deadline is None:
        return _in_order(*args, tried)
    left = deadline - time.monotonic()
    if left > 0:
        previous = signal.signal(signal.SIGALRM, _expire)
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, left)
                return _in_order(*args, tried)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)  # a deadline raised here is caught below
        except _Deadline:
            pass
        finally:
            signal.signal(signal.SIGALRM, previous)
    first = entries[len(tried)][0] if len(tried) < len(entries) else "refutation"
    return Verdict(VerdictKind.UNKNOWN, reason="timeout", mode=first, stats={"attempts": tried})


def solve_auto(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    checker=None,
    int_backend=None,
) -> Verdict:
    """The refutation slice, the registry's modes in order, then the full
    refutation search (`_solve_in_order`)."""
    return _solve_in_order(list(mode_registry().items()), system, cfg, checker, int_backend,
                           refutation=True)


def solve(system: ChcSystem, cfg: SolverConfig = SolverConfig(), mode: str = "auto",
          checker=None, int_backend=None) -> Verdict:
    """Solve in `mode`: "auto" or a name of `mode_registry()`, the latter
    alone under `_solve_in_order`, with no refutation."""
    if mode == "auto":
        return solve_auto(system, cfg, checker, int_backend)
    registry = mode_registry()
    if mode not in registry:
        raise ValueError(f"unknown mode {mode!r}")
    return _solve_in_order([(mode, registry[mode])], system, cfg, checker, int_backend,
                           refutation=False)

"""CHC solving by pattern inference.

The core loop: sample the least model, infer one pattern per predicate,
check the definite clauses, feed revalidated counterexamples back as new
samples, and finally check the goals.  Around it: length abstraction with an
integer-CHC backend (external or the built-in linear fitter), set/multiset
abstraction, a breadth-first ground refutation search, and the mode
sequencer that ties them together.
"""

from __future__ import annotations

import itertools
import queue
import random
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .chc_core import (
    ChcSystem,
    Clause,
    PredicateAtom,
    Sample,
    SampleBudget,
    collect_samples,
    derivable,
    match_term,
    read_sexps,
    render_smtlib,
    symbol,
)
from .collection_inference import (
    CollectionData,
    collection_solving_path,
    infer_collection,
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
    Mode,
    NotSolvableError,
    RuleSet,
    TuplePattern,
    atom_index,
    atom_is_const,
    atom_is_reversed,
    atom_letter,
    solving_path,
    strip,
)
from .smt_backend import Bounds, BoundedChecker, ValidityKind
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


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    bounds: Bounds = Bounds()
    sample_depth: int = 3
    samples_per_pred: int = 10
    sample_cap: int = 32
    value_lo: int = 0
    value_hi: int = 3
    max_list_len: int = 4
    max_iterations: int = 50
    cex_batch: int = 16
    revalidate_depth: int = 8
    accumulate: bool = False
    # coarse abstraction modes pay full exhaustion on valid clauses, so they
    # run at a reduced list bound by default
    collection_bounds: Bounds = Bounds(max_list_len=3)
    infer: InferConfig = InferConfig(constants=False, postfix=True, reverse=True)
    refute: RefuteBudget = RefuteBudget()
    timeout: Optional[float] = None
    mode_timeout: Optional[float] = None  # wall-clock budget per mode

    def sample_budget(self, depth: Optional[int] = None) -> SampleBudget:
        return SampleBudget(
            depth=self.sample_depth if depth is None else depth,
            count=self.samples_per_pred,
            value_lo=self.value_lo,
            value_hi=self.value_hi,
            max_list_len=self.max_list_len,
            per_pred_cap=self.sample_cap,
        )


class VerdictKind(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    kind: VerdictKind
    model: Optional["CandidateModel"] = None
    derivation: Optional["RefutationWitness"] = None
    reason: Optional[str] = None
    mode: Optional[str] = None
    bounded: bool = False
    stats: dict = field(default_factory=dict)


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


def pattern_to_formula(
    t: TuplePattern, args: Sequence[Term], rules: RuleSet = RuleSet()
) -> Formula:
    """Quantifier-free version of membership in the pattern, built by
    replaying a solving reduction: variables are solved to ldiff/rdiff chains
    over the arguments, then every component is reconstructed."""
    if t.mode is not Mode.SEQUENCE:
        raise ValueError("use collection_pattern_to_formula for collection modes")
    if len(args) != t.arity:
        raise ValueError("arity mismatch")
    path = solving_path(t, rules)
    if path is None:
        raise NotSolvableError("only solvable patterns translate to formulas")
    terms = tuple(args)
    for step, _succ in path:
        terms = strip(terms, step, _TERMS)
    final = path[-1][1] if path else t.elements
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


def collection_pattern_to_formula(
    t: TuplePattern, args: Sequence[Term]
) -> Formula:
    """Membership in a set/multiset pattern as a chain of containment
    conditions mirroring a solving reduction."""
    if t.mode not in (Mode.SET, Mode.MULTISET):
        raise ValueError("expects a collection pattern")
    if len(args) != t.arity:
        raise ValueError("arity mismatch")
    path = collection_solving_path(t)
    if path is None:
        raise NotSolvableError("only solvable patterns translate to formulas")
    cells = _CollectionTerms("set" if t.mode is Mode.SET else "multiset")
    terms = tuple(TCollOf(a, cells.style) for a in args)
    for step, _succ in path:
        terms = strip(terms, step, cells)
    return fand(cells.conditions)


# ---------------------------------------------------------------------------
# candidate models

def _formal(i: int) -> TVar:
    return TVar(f"$arg{i}", Sort.INT)


@dataclass
class PredicateModel:
    name: str
    signature: tuple[Sort, ...]
    patterns: tuple[TuplePattern, ...] = ()
    mode: Mode = Mode.SEQUENCE
    length_formula: Optional[Formula] = None  # over $arg0..$argN formals
    count_model: bool = False
    empty: bool = False

    def list_positions(self) -> list[int]:
        return [i for i, s in enumerate(self.signature) if s is Sort.LIST]

    def formula(self, args: Sequence[Term]) -> Formula:
        if self.empty:
            return FALSE
        parts: list[Formula] = []
        if self.mode is Mode.SEQUENCE:
            list_args = [args[i] for i in self.list_positions()]
            for t in self.patterns:
                parts.append(pattern_to_formula(t, list_args))
        else:
            for t in self.patterns:
                parts.append(collection_pattern_to_formula(t, args))
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
    bounded: bool = False
    reason: Optional[str] = None


def clause_formula(model: CandidateModel, clause: Clause) -> Formula:
    ante = fand(
        [model.formula_for(a) for a in clause.body_atoms] + [clause.constraint]
    )
    cons = FALSE if clause.head is None else model.formula_for(clause.head)
    return FImp(ante, cons)


def _check_clauses(model, clauses, checker, cex_limit) -> CheckOutcome:
    bounded = False
    for clause in clauses:
        f = clause_formula(model, clause)
        if isinstance(checker, BoundedChecker):
            cexs = checker.counterexamples(f, limit=cex_limit)
            if cexs:
                return CheckOutcome("cex", clause, cexs, bounded)
            bounded = True
        else:
            res = checker.check_validity(f)
            if res.kind is ValidityKind.INVALID:
                return CheckOutcome("cex", clause, [res.assignment], bounded)
            if res.kind is ValidityKind.UNKNOWN:
                return CheckOutcome("unknown", clause, reason=res.reason)
            bounded = bounded or res.kind is ValidityKind.VALID_BOUNDED
    return CheckOutcome("valid", bounded=bounded)


def check_definite(model: CandidateModel, system: ChcSystem, checker, cex_limit: int = 16) -> CheckOutcome:
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
) -> tuple[list[Sample], int]:
    """Head instances of clause counterexamples, gated by the bounded
    derivability check: spurious instances never reach the learning data."""
    rejected = 0
    for env in assignments:
        try:
            values = _head_instance(system, clause, env)
        except Exception:
            rejected += 1
            continue
        if (clause.head.pred, values) in known:
            continue
        if derivable(
            system, clause.head.pred, values, cfg.revalidate_depth, cfg.sample_budget()
        ):
            return [Sample(clause.head.pred, values, ("counterexample",))], rejected
        rejected += 1
    return [], rejected


def screen_samples(
    system: ChcSystem, samples: Sequence[Sample], cfg: SolverConfig
) -> tuple[list[Sample], int]:
    """Derived samples are trusted; counterexample-provenance samples must
    pass the derivability gate before they are used."""
    out, rejected = [], 0
    for s in samples:
        if s.derived:
            out.append(s)
        elif derivable(
            system, s.predicate, s.values, cfg.revalidate_depth, cfg.sample_budget()
        ):
            out.append(s)
        else:
            rejected += 1
    return out, rejected


ModelBuilder = Callable[[ChcSystem, dict], CandidateModel]


def _by_pred(system: ChcSystem, samples: Sequence[Sample]) -> dict[str, list[tuple]]:
    table: dict[str, list[tuple]] = {p: [] for p in system.predicates}
    for s in samples:
        bucket = table[s.predicate]
        if s.values not in bucket and len(bucket) < 64:
            bucket.append(s.values)
    return table


def build_list_model(system: ChcSystem, samples_by_pred: dict, cfg: SolverConfig,
                     previous: Optional[CandidateModel] = None) -> CandidateModel:
    models = {}
    for pred, sig in system.predicates.items():
        rows = samples_by_pred.get(pred, [])
        list_pos = [i for i, s in enumerate(sig) if s is Sort.LIST]
        if not rows:
            models[pred] = PredicateModel(pred, sig, empty=True)
            continue
        if not list_pos:
            models[pred] = PredicateModel(pred, sig)
            continue
        matrix = LearningData(
            [[row[i] for i in list_pos] for row in rows[: cfg.sample_cap]]
        )
        t = infer(matrix, cfg.infer)
        patterns = (t,)
        if cfg.accumulate and previous is not None and pred in previous.models:
            old = previous.models[pred].patterns
            if t in old:
                patterns = old
            else:
                patterns = old + (t,)
        models[pred] = PredicateModel(pred, sig, patterns=patterns)
    return CandidateModel(models)


def _count_semantics(sig, rows) -> bool:
    if tuple(sig) != (Sort.INT, Sort.LIST, Sort.INT) or not rows:
        return False
    return all(
        isinstance(x, int) and isinstance(z, int) and z == sum(1 for v in l if v == x)
        for x, l, z in rows
    )


def build_collection_model(
    system: ChcSystem, samples_by_pred: dict, cfg: SolverConfig, mode: Mode
) -> CandidateModel:
    models = {}
    for pred, sig in system.predicates.items():
        rows = samples_by_pred.get(pred, [])
        if not rows:
            models[pred] = PredicateModel(pred, sig, mode=mode, empty=True)
            continue
        cells = []
        for row in rows[: cfg.sample_cap]:
            cells.append(
                [
                    (set(v) if mode is Mode.SET else tuple(v))
                    if isinstance(v, tuple)
                    else (v,)
                    for v in row
                ]
            )
        t = infer_collection(CollectionData(cells, mode), cfg.infer)
        models[pred] = PredicateModel(
            pred,
            sig,
            patterns=(t,),
            mode=mode,
            count_model=_count_semantics(sig, rows),
        )
    return CandidateModel(models)


@dataclass
class LoopResult:
    status: str  # "goal" | "definite" | "unknown"
    model: Optional[CandidateModel]
    samples: list[Sample]
    bounded: bool
    stats: dict
    reason: Optional[str] = None


def _model_loop(
    system: ChcSystem,
    cfg: SolverConfig,
    checker,
    rng: random.Random,
    build: Callable[[dict, Optional[CandidateModel]], CandidateModel],
    initial_samples: Optional[Sequence[Sample]] = None,
    stop_at_definite: bool = False,
    cancel: Optional[threading.Event] = None,
) -> LoopResult:
    stats = {"iterations": 0, "rejected_cex": 0, "accepted_cex": 0}
    deadline = (
        None if cfg.mode_timeout is None else time.monotonic() + cfg.mode_timeout
    )
    samples = collect_samples(system, cfg.sample_budget(), rng)
    if initial_samples:
        screened, rejected = screen_samples(system, initial_samples, cfg)
        stats["rejected_cex"] += rejected
        samples.extend(screened)
    depth_bump = 0
    previous: Optional[CandidateModel] = None
    for _ in range(cfg.max_iterations):
        if cancel is not None and cancel.is_set():
            return LoopResult("unknown", None, samples, False, stats, "cancelled")
        if deadline is not None and time.monotonic() > deadline:
            return LoopResult("unknown", None, samples, False, stats, "mode timeout")
        stats["iterations"] += 1
        table = _by_pred(system, samples)
        model = build(table, previous)
        previous = model
        try:
            dres = check_definite(model, system, checker, cfg.cex_batch)
        except NotSolvableError as exc:
            return LoopResult("unknown", None, samples, False, stats, str(exc))
        if dres.status == "unknown":
            return LoopResult("unknown", None, samples, False, stats, dres.reason)
        if dres.status == "valid":
            stats["samples"] = len(samples)
            if stop_at_definite:
                return LoopResult("definite", model, samples, dres.bounded, stats)
            gres = check_goal(model, system, checker)
            if gres.status == "valid":
                return LoopResult(
                    "goal", model, samples, dres.bounded or gres.bounded, stats
                )
            if gres.status == "unknown":
                return LoopResult("unknown", model, samples, False, stats, gres.reason)
            if not cfg.accumulate:
                return LoopResult(
                    "definite", model, samples, dres.bounded, stats,
                    "patterns hold but do not imply the goals",
                )
            depth_bump += 1
            more = collect_samples(
                system, cfg.sample_budget(cfg.sample_depth + depth_bump), rng
            )
            known = {(s.predicate, s.values) for s in samples}
            fresh = [s for s in more if (s.predicate, s.values) not in known]
            if not fresh:
                return LoopResult(
                    "definite", model, samples, dres.bounded, stats,
                    "no new samples to strengthen the model",
                )
            samples.extend(fresh)
            continue
        known = {(s.predicate, s.values) for s in samples}
        new, rejected = admit_counterexamples(
            system, dres.clause, dres.assignments, cfg, known
        )
        stats["rejected_cex"] += rejected
        if new:
            stats["accepted_cex"] += len(new)
            samples.extend(new)
            continue
        depth_bump += 1
        more = collect_samples(
            system, cfg.sample_budget(cfg.sample_depth + depth_bump), rng
        )
        fresh = [s for s in more if (s.predicate, s.values) not in known]
        if not fresh:
            return LoopResult(
                "unknown", None, samples, False, stats,
                "counterexamples rejected and sampling is exhausted",
            )
        samples.extend(fresh)
    return LoopResult("unknown", None, samples, False, stats, "iteration limit")


def solve_list_mode(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    checker=None,
    initial_samples: Optional[Sequence[Sample]] = None,
    cancel: Optional[threading.Event] = None,
) -> Verdict:
    checker = checker or BoundedChecker(cfg.bounds)
    rng = random.Random(cfg.seed)
    res = _model_loop(
        system,
        cfg,
        checker,
        rng,
        lambda table, prev: build_list_model(system, table, cfg, prev),
        initial_samples=initial_samples,
        cancel=cancel,
    )
    if res.status == "goal":
        return Verdict(
            VerdictKind.SAT, model=res.model, mode="list", bounded=res.bounded,
            stats=res.stats,
        )
    return Verdict(
        VerdictKind.UNKNOWN, mode="list", reason=res.reason, stats=res.stats
    )


def solve_collection_mode(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    mode: Mode = Mode.MULTISET,
    checker=None,
    cancel: Optional[threading.Event] = None,
) -> Verdict:
    # collection atoms have no external encoding; this mode always checks
    # with the bounded evaluator
    checker = BoundedChecker(cfg.collection_bounds)
    rng = random.Random(cfg.seed)
    mode_name = "set" if mode is Mode.SET else "multiset"
    res = _model_loop(
        system,
        cfg,
        checker,
        rng,
        lambda table, prev: build_collection_model(system, table, cfg, mode),
        cancel=cancel,
    )
    if res.status == "goal":
        return Verdict(
            VerdictKind.SAT, model=res.model, mode=mode_name, bounded=res.bounded,
            stats=res.stats,
        )
    return Verdict(
        VerdictKind.UNKNOWN, mode=mode_name, reason=res.reason, stats=res.stats
    )


# ---------------------------------------------------------------------------
# length abstraction

def length_abstract(system: ChcSystem) -> ChcSystem:
    """Lists become their lengths: nil -> 0, cons -> +1; list equalities
    become integer equalities; list disequalities survive only in goal
    bodies, elsewhere they become true."""

    def abs_term(t: Term, sorts) -> Term:
        tt = type(t)
        if tt is TVar:
            return TVar(t.name, Sort.INT)
        if tt is TSeq:
            return TInt(len(t.values))
        if tt is TInt:
            return t
        if tt is TCons:
            return TAdd(TInt(1), abs_term(t.tail, sorts))
        if tt is TAdd:
            return TAdd(abs_term(t.a, sorts), abs_term(t.b, sorts))
        if tt is TSub:
            return TSub(abs_term(t.a, sorts), abs_term(t.b, sorts))
        if tt is TMul:
            return TMul(t.factor, abs_term(t.t, sorts))
        if tt is TIte:
            return TIte(
                abs_formula(t.cond, sorts, True),
                abs_term(t.then, sorts),
                abs_term(t.other, sorts),
            )
        raise ValueError(f"cannot length-abstract {t!r}")

    def is_list_term(t: Term, sorts) -> bool:
        tt = type(t)
        if tt is TVar:
            return sorts.get(t.name) is Sort.LIST
        if tt is TSeq or tt is TCons:
            return True
        return False

    def abs_formula(f: Formula, sorts, in_goal: bool) -> Formula:
        ft = type(f)
        if ft in (FTrue, FFalse):
            return f
        if ft is FAnd:
            return fand(abs_formula(p, sorts, in_goal) for p in f.parts)
        if ft is FOr:
            return for_(abs_formula(p, sorts, in_goal) for p in f.parts)
        if ft is FNot:
            inner = f.f
            if isinstance(inner, FEq) and (
                is_list_term(inner.a, sorts) or is_list_term(inner.b, sorts)
            ):
                if in_goal:
                    return FNot(
                        FEq(abs_term(inner.a, sorts), abs_term(inner.b, sorts))
                    )
                return TRUE
            return FNot(abs_formula(inner, sorts, in_goal))
        if ft is FImp:
            return FImp(
                abs_formula(f.a, sorts, in_goal), abs_formula(f.b, sorts, in_goal)
            )
        if ft is FEq:
            return FEq(abs_term(f.a, sorts), abs_term(f.b, sorts))
        if ft is FLt:
            return FLt(abs_term(f.a, sorts), abs_term(f.b, sorts))
        if ft is FLe:
            return FLe(abs_term(f.a, sorts), abs_term(f.b, sorts))
        raise ValueError(f"cannot length-abstract {f!r}")

    def abs_clause(clause: Clause, in_goal: bool) -> Clause:
        sorts = clause.variables()
        atoms = tuple(
            PredicateAtom(a.pred, tuple(abs_term(arg, sorts) for arg in a.args))
            for a in clause.body_atoms
        )
        head = None
        if clause.head is not None:
            head = PredicateAtom(
                clause.head.pred,
                tuple(abs_term(arg, sorts) for arg in clause.head.args),
            )
        return Clause(atoms, abs_formula(clause.constraint, sorts, in_goal), head)

    return ChcSystem(
        predicates={
            name: tuple(Sort.INT for _ in sig)
            for name, sig in system.predicates.items()
        },
        definite=[abs_clause(c, False) for c in system.definite],
        goals=[abs_clause(c, True) for c in system.goals],
    )


# ---------------------------------------------------------------------------
# integer models: built-in fitter and external backend

def _affine_equations(rows: list[tuple[int, ...]], arity: int) -> list[Formula]:
    """Exact affine relations satisfied by every row: the nullspace of
    [args | 1], one linear equality per basis vector."""
    if not rows:
        return []
    width = arity + 1
    matrix = [[Fraction(v) for v in row] + [Fraction(1)] for row in rows[:80]]
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
        denom = 1
        for x in vec:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        ints = [int(x * denom) for x in vec]
        g = 0
        for x in ints:
            g = _gcd(g, abs(x))
        if g > 1:
            ints = [x // g for x in ints]
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a or 1


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

    def __init__(self, checker: Optional[BoundedChecker] = None):
        self.checker = checker

    def solve(
        self, abstract: ChcSystem, cfg: SolverConfig, rng: random.Random
    ) -> Optional[dict[str, Formula]]:
        checker = self.checker or BoundedChecker(cfg.bounds)
        samples = collect_samples(
            abstract, cfg.sample_budget(cfg.sample_depth + 1), rng
        )
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
        # prefer candidates that also pass the abstract goals, but a failing
        # abstract goal does not disqualify (the abstraction is heuristic
        # on goals)
        return {pred: menus[pred][chosen[pred]] for pred in abstract.predicates}


class ExternalIntChc:
    """Child process consuming a HORN problem over integers and producing a
    model as define-fun forms."""

    def __init__(self, cmd, timeout: float = 30.0):
        self.cmd = cmd if isinstance(cmd, list) else [cmd]
        self.timeout = timeout

    def solve(
        self, abstract: ChcSystem, cfg: SolverConfig, rng: random.Random
    ) -> Optional[dict[str, Formula]]:
        import subprocess

        script = render_smtlib(abstract)
        try:
            proc = subprocess.run(
                self.cmd,
                input=script,
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except Exception:
            return None
        lines = proc.stdout.strip().splitlines()
        if not lines or lines[0].strip() != "sat":
            return None
        return parse_int_model(
            "\n".join(lines[1:]), abstract.predicates
        )


def parse_int_model(text: str, predicates: dict) -> Optional[dict[str, Formula]]:
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
        mapping = {}
        for idx, param in enumerate(params):
            mapping[symbol(param[0])] = _formal(idx)
        f = _sexp_formula(body, mapping)
        if f is None:
            return None
        out[name] = f
    if set(out) != set(predicates):
        return None
    return out


def _sexp_term(node, mapping) -> Optional[Term]:
    text = symbol(node)
    if text is not None:
        if text.lstrip("-").isdigit():
            return TInt(int(text))
        return mapping.get(text)
    if not node:
        return None
    op = symbol(node[0])
    args = [_sexp_term(a, mapping) for a in node[1:]]
    if op == "-" and len(node) == 2 and (symbol(node[1]) or "").isdigit():
        return TInt(-int(symbol(node[1])))
    if any(a is None for a in args):
        if op == "ite":
            cond = _sexp_formula(node[1], mapping)
            t1 = _sexp_term(node[2], mapping)
            t2 = _sexp_term(node[3], mapping)
            if cond is None or t1 is None or t2 is None:
                return None
            return TIte(cond, t1, t2)
        return None
    if op == "+":
        out = args[0]
        for a in args[1:]:
            out = TAdd(out, a)
        return out
    if op == "-":
        out = args[0]
        for a in args[1:]:
            out = TSub(out, a)
        return out
    if op == "*" and len(args) == 2:
        if isinstance(args[0], TInt):
            return TMul(args[0].value, args[1])
        if isinstance(args[1], TInt):
            return TMul(args[1].value, args[0])
        return None
    if op == "ite":
        cond = _sexp_formula(node[1], mapping)
        if cond is None:
            return None
        return TIte(cond, args[1], args[2])
    return None


def _sexp_formula(node, mapping) -> Optional[Formula]:
    text = symbol(node)
    if text is not None:
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        return None
    if not node:
        return None
    op = symbol(node[0])
    if op == "and":
        parts = [_sexp_formula(a, mapping) for a in node[1:]]
        if any(p is None for p in parts):
            return None
        return fand(parts)
    if op == "or":
        parts = [_sexp_formula(a, mapping) for a in node[1:]]
        if any(p is None for p in parts):
            return None
        return for_(parts)
    if op == "not":
        inner = _sexp_formula(node[1], mapping)
        return None if inner is None else FNot(inner)
    if op == "=>":
        a = _sexp_formula(node[1], mapping)
        b = _sexp_formula(node[2], mapping)
        if a is None or b is None:
            return None
        return FImp(a, b)
    if op == "ite":
        c = _sexp_formula(node[1], mapping)
        a = _sexp_formula(node[2], mapping)
        b = _sexp_formula(node[3], mapping)
        if c is None or a is None or b is None:
            return None
        return for_([fand([c, a]), fand([FNot(c), b])])
    if op in ("=", "<=", "<", ">=", ">"):
        a = _sexp_term(node[1], mapping)
        b = _sexp_term(node[2], mapping)
        if a is None or b is None:
            return None
        if op == "=":
            return FEq(a, b)
        if op == "<=":
            return FLe(a, b)
        if op == "<":
            return FLt(a, b)
        if op == ">=":
            return FLe(b, a)
        return FLt(b, a)
    return None



def solve_list_len_mode(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    checker=None,
    int_backend=None,
    cancel: Optional[threading.Event] = None,
) -> Verdict:
    """Patterns plus length invariants: solve the length abstraction with an
    integer backend, embed its model through list lengths, conjoin with the
    inferred patterns, and re-check everything on the original system."""
    checker = checker or BoundedChecker(cfg.bounds)
    int_backend = int_backend or BuiltinIntChc()
    rng = random.Random(cfg.seed)
    res = _model_loop(
        system,
        cfg,
        checker,
        rng,
        lambda table, prev: build_list_model(system, table, cfg, prev),
        stop_at_definite=True,
        cancel=cancel,
    )
    if res.status not in ("definite", "goal") or res.model is None:
        return Verdict(
            VerdictKind.UNKNOWN, mode="list-len", reason=res.reason, stats=res.stats
        )
    abstract = length_abstract(system)
    int_models = int_backend.solve(abstract, cfg, random.Random(cfg.seed + 1))
    if int_models is None:
        return Verdict(
            VerdictKind.UNKNOWN,
            mode="list-len",
            reason="no integer model for the length abstraction",
            stats=res.stats,
        )
    model = CandidateModel(
        {
            pred: replace(res.model.models[pred], length_formula=int_models[pred])
            for pred in system.predicates
        }
    )
    dres = check_definite(model, system, checker, 1)
    if dres.status != "valid":
        return Verdict(
            VerdictKind.UNKNOWN,
            mode="list-len",
            reason="length-strengthened model fails a definite clause",
            stats=res.stats,
        )
    gres = check_goal(model, system, checker)
    if gres.status == "valid":
        return Verdict(
            VerdictKind.SAT,
            model=model,
            mode="list-len",
            bounded=dres.bounded or gres.bounded,
            stats=res.stats,
        )
    return Verdict(
        VerdictKind.UNKNOWN,
        mode="list-len",
        reason="length-strengthened model does not imply the goals",
        stats=res.stats,
    )


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


def _domain_values(sort: Sort, budget: RefuteBudget):
    if sort is Sort.INT:
        return tuple(range(budget.value_lo, budget.value_hi + 1))
    return _lists_upto(budget.max_list_len, budget.value_hi)


def _lists_upto(max_len, max_elem):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (v,) for w in frontier for v in range(max_elem + 1)]
        out.extend(frontier)
    return tuple(out)


def refute(
    system: ChcSystem,
    budget: RefuteBudget = RefuteBudget(),
    cancel: Optional[threading.Event] = None,
) -> Optional[RefutationWitness]:
    """Exhaustive bottom-up derivation over a small value domain, checking
    the goal bodies after each level; a hit yields a replayable derivation
    of false."""
    atoms: dict[str, dict[tuple, DerivedAtom]] = {p: {} for p in system.predicates}
    total = 0

    def value_ok(values) -> bool:
        return all(
            not isinstance(v, tuple) or len(v) <= budget.derived_list_cap
            for v in values
        )

    def goal_hit(depth: int) -> Optional[RefutationWitness]:
        for gi, goal in enumerate(system.goals):
            found = _match_goal(goal, atoms)
            if found is not None:
                binding, chosen = found
                return RefutationWitness(
                    gi, tuple(sorted(binding.items())), tuple(chosen), depth
                )
        return None

    facts = [
        (idx, c) for idx, c in enumerate(system.definite) if not c.body_atoms
    ]
    rules = [(idx, c) for idx, c in enumerate(system.definite) if c.body_atoms]

    for idx, clause in facts:
        sorts = clause.variables()
        names = sorted(sorts)
        domains = [_domain_values(sorts[n], budget) for n in names]
        for combo in itertools.product(*domains):
            if cancel is not None and cancel.is_set():
                return None
            env = dict(zip(names, combo))
            try:
                if not eval_formula(clause.constraint, env):
                    continue
                values = tuple(eval_term(a, env) for a in clause.head.args)
            except Exception:
                continue
            if not value_ok(values):
                continue
            bucket = atoms[clause.head.pred]
            if values not in bucket:
                bucket[values] = DerivedAtom(
                    clause.head.pred, values, idx, tuple(sorted(env.items())), ()
                )
                total += 1
                if total >= budget.max_atoms:
                    return None
    hit = goal_hit(0)
    if hit is not None:
        return hit

    fresh: dict[str, set[tuple]] = {p: set(d) for p, d in atoms.items()}
    for depth in range(1, budget.depth + 1):
        new_atoms: list[DerivedAtom] = []
        for idx, clause in rules:
            if cancel is not None and cancel.is_set():
                return None
            sorts = clause.variables()
            pools = []
            for atom in clause.body_atoms:
                pools.append(list(atoms[atom.pred].values()))
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                if not any(a.values in fresh[a.predicate] for a in combo):
                    continue
                binding: dict = {}
                if not all(
                    all(
                        match_term(arg, val, binding)
                        for arg, val in zip(atom.args, chosen.values)
                    )
                    for atom, chosen in zip(clause.body_atoms, combo)
                ):
                    continue
                free = sorted(set(sorts) - set(binding))
                domains = [_domain_values(sorts[n], budget) for n in free]
                for extra in itertools.product(*domains):
                    env = {**binding, **dict(zip(free, extra))}
                    try:
                        if not eval_formula(clause.constraint, env):
                            continue
                        values = tuple(
                            eval_term(a, env) for a in clause.head.args
                        )
                    except Exception:
                        continue
                    if not value_ok(values):
                        continue
                    bucket = atoms[clause.head.pred]
                    if values in bucket:
                        continue
                    node = DerivedAtom(
                        clause.head.pred,
                        values,
                        idx,
                        tuple(sorted(env.items())),
                        combo,
                    )
                    bucket[values] = node
                    new_atoms.append(node)
                    total += 1
                    if total >= budget.max_atoms:
                        return None
        fresh = {p: set() for p in system.predicates}
        for node in new_atoms:
            fresh[node.predicate].add(node.values)
        hit = goal_hit(depth)
        if hit is not None:
            return hit
        if not new_atoms:
            return None
    return None


def _match_goal(goal: Clause, atoms) -> Optional[tuple[dict, list]]:
    chosen: list[DerivedAtom] = []

    def rec(k: int, binding: dict) -> Optional[dict]:
        if k == len(goal.body_atoms):
            sorts = goal.variables()
            if set(sorts) - set(binding):
                return None
            try:
                return binding if eval_formula(goal.constraint, binding) else None
            except Exception:
                return None
        atom = goal.body_atoms[k]
        for node in atoms[atom.pred].values():
            trial = dict(binding)
            if all(
                match_term(arg, val, trial)
                for arg, val in zip(atom.args, node.values)
            ):
                chosen.append(node)
                result = rec(k + 1, trial)
                if result is not None:
                    return result
                chosen.pop()
        return None

    binding = rec(0, {})
    if binding is None:
        return None
    return binding, list(chosen)


def replay_derivation(system: ChcSystem, witness: RefutationWitness) -> bool:
    """Concretely re-verify a refutation: every derivation node applies its
    clause to its children, and the goal body evaluates to true."""

    def check_node(node: DerivedAtom) -> bool:
        clause = system.definite[node.clause_index]
        env = dict(node.env)
        if clause.head is None:
            return False
        try:
            if not eval_formula(clause.constraint, env):
                return False
            if tuple(eval_term(a, env) for a in clause.head.args) != node.values:
                return False
        except Exception:
            return False
        if len(clause.body_atoms) != len(node.children):
            return False
        for atom, child in zip(clause.body_atoms, node.children):
            try:
                if tuple(eval_term(a, env) for a in atom.args) != child.values:
                    return False
            except Exception:
                return False
            if not check_node(child):
                return False
        return True

    goal = system.goals[witness.goal_index]
    env = dict(witness.env)
    try:
        if not eval_formula(goal.constraint, env):
            return False
    except Exception:
        return False
    if len(goal.body_atoms) != len(witness.atoms):
        return False
    for atom, node in zip(goal.body_atoms, witness.atoms):
        try:
            if tuple(eval_term(a, env) for a in atom.args) != node.values:
                return False
        except Exception:
            return False
        if not check_node(node):
            return False
    return True


# ---------------------------------------------------------------------------
# the mode sequencer

def solve_auto(
    system: ChcSystem,
    cfg: SolverConfig = SolverConfig(),
    checker=None,
    int_backend=None,
) -> Verdict:
    """Run the refutation search concurrently with the mode sequence
    list -> set -> multiset -> list-len; the first definitive verdict wins."""
    checker = checker or BoundedChecker(cfg.bounds)
    results: "queue.Queue[Verdict]" = queue.Queue()
    cancel = threading.Event()
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout

    def refute_worker():
        witness = refute(system, cfg.refute, cancel=cancel)
        if witness is not None:
            results.put(
                Verdict(VerdictKind.UNSAT, derivation=witness, mode="refutation")
            )
        else:
            results.put(Verdict(VerdictKind.UNKNOWN, mode="refutation"))

    def modes_worker():
        last = None
        for runner in (
            lambda: solve_list_mode(system, cfg, checker, cancel=cancel),
            lambda: solve_collection_mode(system, cfg, Mode.SET, checker, cancel=cancel),
            lambda: solve_collection_mode(system, cfg, Mode.MULTISET, checker, cancel=cancel),
            lambda: solve_list_len_mode(system, cfg, checker, int_backend, cancel=cancel),
        ):
            if cancel.is_set():
                break
            verdict = runner()
            last = verdict
            if verdict.kind is VerdictKind.SAT:
                results.put(verdict)
                return
        results.put(last or Verdict(VerdictKind.UNKNOWN))

    threads = [
        threading.Thread(target=refute_worker, daemon=True),
        threading.Thread(target=modes_worker, daemon=True),
    ]
    for t in threads:
        t.start()
    pending = len(threads)
    fallback: Optional[Verdict] = None
    verdict: Optional[Verdict] = None
    while pending:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        try:
            got = results.get(timeout=remaining)
        except queue.Empty:
            verdict = Verdict(VerdictKind.UNKNOWN, reason="timeout")
            break
        pending -= 1
        if got.kind in (VerdictKind.SAT, VerdictKind.UNSAT):
            verdict = got
            break
        if fallback is None or got.reason is not None:
            fallback = got
    cancel.set()
    for t in threads:
        t.join(timeout=1.0)
    return verdict or fallback or Verdict(VerdictKind.UNKNOWN)


def solve(system: ChcSystem, cfg: SolverConfig = SolverConfig(), mode: str = "auto",
          checker=None, int_backend=None) -> Verdict:
    if mode == "auto":
        return solve_auto(system, cfg, checker, int_backend)
    if mode == "list":
        return solve_list_mode(system, cfg, checker)
    if mode == "set":
        return solve_collection_mode(system, cfg, Mode.SET, checker)
    if mode == "multiset":
        return solve_collection_mode(system, cfg, Mode.MULTISET, checker)
    if mode == "list-len":
        return solve_list_len_mode(system, cfg, checker, int_backend)
    raise ValueError(f"unknown mode {mode!r}")

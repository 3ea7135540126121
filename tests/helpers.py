"""Shared test utilities: string shorthands, random solvable-pattern
generation by inverse reduction, small brute-force oracles, the per-step
replay of solving paths, and the reference implementation of the paper's
inference states."""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

from stpchc.alphabet import char_to_letter
from stpchc.chc_core import (
    AtomTable,
    Sample,
    join,
    match_goal,
    match_term,
    plan_join,
)
from stpchc.data import Cell, LearningData
from stpchc.formulas import Sort, eval_formula, eval_term
from stpchc.pattern_core import (
    BAGS,
    ELEMENT,
    REVERSED,
    RULE_TABLE,
    STRINGS,
    Cells,
    Mode,
    NotSolvableError,
    PredStep,
    Rule,
    RuleSet,
    TuplePattern,
    atom_index,
    atom_is_const,
    atom_is_reversed,
    atom_letter,
    compose,
    const_atom,
    data_steps,
    is_solvable,
    member,
    reverse_element,
    solving_path,
    strip,
    var_atom,
)
from stpchc.stp_inference import COLUMNS, InferConfig, _cells_of

A = char_to_letter("a")
B = char_to_letter("b")


def assert_stopped(pids, wait: float = 1.0) -> None:
    """Each process in `pids` is gone, or a zombie not yet reaped, within
    `wait` seconds, as `/proc` shows it."""
    deadline = time.monotonic() + wait
    for pid in pids:
        while True:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                break
            if "\nState:\tZ" in status:
                break
            assert time.monotonic() < deadline, f"solver {pid} still running"
            time.sleep(0.02)


def s(text: str) -> tuple[int, ...]:
    """A letter string from characters ("ab" -> (10, 11))."""
    return tuple(char_to_letter(c) for c in text)


def rows(*row_strings) -> list[list[tuple[int, ...]]]:
    return [[s(cell) for cell in row] for row in row_strings]


def all_strings(alphabet, max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def bounded_language(t: TuplePattern, alphabet, max_component_len):
    """All tuples in the language whose components all fit the bound,
    found by enumerating witness substitutions with pruning."""
    variables = t.variables()
    results = set()

    def ok(assign):
        try:
            from stpchc.pattern_core import apply_substitution

            val = apply_substitution(assign, t)
        except ValueError:
            return None
        if all(len(c) <= max_component_len for c in val):
            return val
        return None

    strings = all_strings(alphabet, max_component_len)

    def rec(idx, assign):
        if idx == len(variables):
            val = ok(assign)
            if val is not None:
                results.add(val)
            return
        for w in strings:
            assign[variables[idx]] = w
            # prune: any component already over budget can only grow
            total_ok = True
            for el in t.elements:
                ln = 0
                complete = True
                for a in el:
                    if a < 0:
                        ln += 1
                    else:
                        v = a >> 1
                        if v in assign:
                            ln += len(assign[v])
                        else:
                            complete = False
                if ln > max_component_len:
                    total_ok = False
                    break
            if total_ok:
                rec(idx + 1, assign)
        del assign[variables[idx]]

    rec(0, {})
    return results


def random_solvable(
    rng: random.Random,
    max_arity=3,
    max_measure=10,
    rules: RuleSet = RuleSet(constants=True, postfix=True, reverse=True),
    letters=(A, B),
) -> TuplePattern:
    """Build a solvable pattern by applying reduction steps backwards from a
    tuple of distinct variables."""
    while True:
        k = rng.randint(1, max_arity)
        elements = [(var_atom(i),) for i in range(k)]
        fresh = k
        for _ in range(rng.randint(0, 6)):
            if measure_of(elements) >= max_measure:
                break
            kind = rng.choice(
                ["prefix", "prefix", "eps"]
                + (["const"] if rules.constants else [])
                + (["postfix"] if rules.postfix else [])
                + (["rprefix"] if rules.reverse else [])
                + (["rpostfix"] if rules.reverse and rules.postfix else [])
            )
            n = len(elements)
            if kind == "eps":
                if n >= max_arity:
                    continue
                j = rng.randrange(n + 1)
                elements.insert(j, ())
                continue
            j = rng.randrange(n)
            if kind == "const":
                a = const_atom(rng.choice(letters))
                if rules.postfix and rng.random() < 0.5:
                    elements[j] = elements[j] + (a,)
                else:
                    elements[j] = (a,) + elements[j]
                continue
            i = rng.randrange(n)
            if i == j or not elements[i]:
                continue
            aux = elements[i]
            if kind == "prefix":
                elements[j] = aux + elements[j]
            elif kind == "postfix":
                elements[j] = elements[j] + aux
            elif kind == "rprefix":
                elements[j] = reverse_element(aux) + elements[j]
            else:
                elements[j] = elements[j] + reverse_element(aux)
        t = TuplePattern(tuple(elements))
        if t.arity <= max_arity and measure_of(t.elements) <= max_measure:
            assert is_solvable(t, rules)
            return t


def measure_of(elements) -> int:
    return sum(len(el) for el in elements) + len(elements)


def brute_force_member(values, t: TuplePattern, max_len: int) -> bool:
    """Search for a witness substitution binding each variable to a string of
    length <= max_len.  Backtracking match, left to right."""
    if len(values) != t.arity:
        return False
    elements = t.elements
    binding: dict[int, tuple[int, ...]] = {}

    def match_atoms(k: int, ai: int, pos: int) -> bool:
        target = values[k]
        if ai == len(elements[k]):
            if pos != len(target):
                return False
            return k + 1 == len(elements) or match_atoms(k + 1, 0, 0)
        a = elements[k][ai]
        if atom_is_const(a):
            if pos < len(target) and target[pos] == atom_letter(a):
                return match_atoms(k, ai + 1, pos + 1)
            return False
        v = atom_index(a)
        rev = atom_is_reversed(a)
        if v in binding:
            val = binding[v][::-1] if rev else binding[v]
            if target[pos : pos + len(val)] == val:
                return match_atoms(k, ai + 1, pos + len(val))
            return False
        limit = min(max_len, len(target) - pos)
        for ln in range(limit + 1):
            piece = target[pos : pos + ln]
            binding[v] = piece[::-1] if rev else piece
            if match_atoms(k, ai + 1, pos + ln):
                return True
            del binding[v]
        return False

    if not elements:
        return len(values) == 0
    return match_atoms(0, 0, 0)


def validate(data: LearningData, t: TuplePattern) -> bool:
    """True iff every row of the data belongs to the pattern's language."""
    return all(member(row, t) for row in data.rows)


def replays(cells: tuple, steps, alg: Cells) -> bool:
    """Whether every one of `steps` (`PredStep`s) strips in turn from
    `cells`, one generic `strip` per step."""
    for step in steps:
        cells = strip(cells, step, alg)
        if cells is None:
            return False
    return True


def replay_member(values, t: TuplePattern, rules: RuleSet) -> bool:
    """Oracle for `member`: a fresh solving path of `t`, replayed step by
    step on the constant pattern of `values`."""
    if len(values) != t.arity:
        raise ValueError("arity mismatch")
    path = solving_path(t, rules)
    if path is None:
        raise NotSolvableError("membership requires a solvable pattern")
    alg = STRINGS if t.mode is Mode.SEQUENCE else BAGS
    consts = tuple(alg.rebuild([const_atom(v) for v in cell]) for cell in values)
    if t.mode is Mode.SET and any(len(set(el)) != len(el) for el in consts):
        return False
    return replays(consts, [step for step, _ in path], alg)


def replay_includes(t1: TuplePattern, t2: TuplePattern, rules: RuleSet) -> bool:
    """Oracle for `includes`: a fresh solving path of `t2`, replayed step by
    step on `t1`."""
    if t1.mode is not Mode.SEQUENCE or t2.mode is not Mode.SEQUENCE:
        raise ValueError("inclusion is defined for sequence patterns")
    if solving_path(t1, rules) is None:
        raise NotSolvableError("inclusion requires solvable patterns")
    if t1.arity != t2.arity:
        return False
    path = solving_path(t2, rules)
    if path is None:
        raise NotSolvableError("inclusion requires a solvable right-hand pattern")
    return replays(t1.elements, [step for step, _ in path], STRINGS)


def random_tuple(rng: random.Random, arity, letters=(A, B), max_len=4):
    return tuple(
        tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        for _ in range(arity)
    )


def exhaustive_solvable(elements, rules: RuleSet) -> bool:
    """Oracle: solvability by trying every reduction order."""
    from stpchc.pattern_core import STRINGS, is_trivial, pattern_steps

    memo = {}

    def rec(els):
        if is_trivial(els):
            return True
        if els in memo:
            return memo[els]
        memo[els] = False
        for _step, succ in pattern_steps(els, STRINGS, rules):
            if rec(succ):
                memo[els] = True
                return True
        return memo[els]

    return rec(tuple(elements))


def enumerate_patterns(arity, max_atoms, letters=(A, B), max_vars=None):
    """Every pattern tuple (up to nothing: raw forms) with the given arity and
    total atom count bound, variables named canonically by first occurrence."""
    if max_vars is None:
        max_vars = max_atoms
    results = []

    def extend(elements, remaining, used_vars):
        if len(elements) == arity:
            results.append(tuple(elements))
            return
        # enumerate one element of each length up to remaining budget
        slots_left = arity - len(elements) - 1
        for ln in range(0, remaining + 1 - 0):
            if ln > remaining:
                break
            for el, used2 in element_options(ln, used_vars):
                extend(elements + [el], remaining - ln, used2)

    def element_options(ln, used_vars):
        if ln == 0:
            yield (), used_vars
            return
        for rest, used2 in element_options(ln - 1, used_vars):
            for a in letters:
                yield rest + (const_atom(a),), used2
            for v in range(min(used2 + 1, max_vars)):
                yield rest + (var_atom(v),), max(used2, v + 1)

    extend([], max_atoms, 0)
    return results


def naive_join(atoms, pools, cap=None):
    """Reference for `chc_core.join`: the first `cap` combinations of the
    product of the pools (all of them without a cap), kept when every
    argument matches in order, as (row numbers, binding)."""
    combos = itertools.product(*(range(len(pool)) for pool in pools))
    for rows in itertools.islice(combos, cap):
        binding: dict = {}
        if all(
            all(match_term(arg, val, binding) for arg, val in zip(atom.args, pool[r]))
            for atom, pool, r in zip(atoms, pools, rows)
        ):
            yield rows, binding


def drawn_value(sort, budget, rng):
    """A random value of `sort`, drawn with `rng.randint`."""
    if sort is Sort.INT:
        return rng.randint(budget.value_lo, budget.value_hi)
    length = rng.randint(0, budget.max_list_len)
    return tuple(rng.randint(budget.value_lo, budget.value_hi) for _ in range(length))


def _free_var_assignments(names, sorts, budget, rng):
    if not names:
        yield {}
        return
    for _ in range(budget.count):
        yield {n: drawn_value(sorts[n], budget, rng) for n in names}


def evaluated_samples(system, budget, rng):
    """Reference for `chc_core.collect_samples`: the same levels, matches
    and draws, with every draw evaluated, also those of a rule whose head
    table is already full, and every draw made by `rng.randint`."""
    tables = {p: AtomTable() for p in system.predicates}
    facts = [plan_join(c) for c in system.definite if not c.body_atoms]
    rules = [plan_join(c) for c in system.definite if c.body_atoms]
    for depth in range(budget.depth + 1):
        new = []
        for plan in rules if depth else facts:
            clause = plan.clause
            cap = budget.combo_cap if depth else None
            for _, binding in join(plan, tables, cap):
                free = [n for n in plan.free if n not in binding]
                for extra in _free_var_assignments(free, plan.sorts, budget, rng):
                    env = {**binding, **extra}
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
    return [sample for table in tables.values() for sample in table.items]


def goal_hit(samples, system):
    """The first goal whose body the samples make concretely true, as (goal
    index, values of the matched samples, binding), or None."""
    tables = {p: AtomTable() for p in system.predicates}
    for sample in samples:
        if sample.values not in tables[sample.predicate]:
            tables[sample.predicate].add(sample.values, sample)
    for gi, goal in enumerate(system.goals):
        found = match_goal(plan_join(goal), tables)
        if found is not None:
            matched, binding = found
            return gi, tuple(sample.values for sample in matched), binding
    return None


# ---------------------------------------------------------------------------
# inference states: the reference implementation of the paper's rewriting
# relation, where a state pairs the working pattern with a witness
# substitution that maps it back onto the input rows.  `stp_inference.infer`
# keeps only the steps and composes them at the end; these states check
# what it does not keep.

Columns = tuple[tuple[Cell, ...], ...]


@dataclass(frozen=True)
class Substitution:
    """Per-row assignment of sequences to variables: one column per variable
    in `header`, rows aligned with the learning data it witnesses."""

    header: tuple[int, ...]
    data: LearningData

    def __post_init__(self):
        if len(set(self.header)) != len(self.header):
            raise ValueError("substitution header variables must be distinct")
        if self.data.m and len(self.header) != self.data.n:
            raise ValueError("substitution header/column count mismatch")

    def is_strict(self) -> bool:
        """No variable is mapped to the empty sequence in every row."""
        return all(
            any(cell for cell in self.data.column(j)) for j in range(len(self.header))
        )


@dataclass(frozen=True)
class RewriteState:
    """Working pattern (elements over variable ids), one variable id per
    data column, and the column contents.  `rows` is the sample count, kept
    explicitly because the last column removal would otherwise lose it.
    `cells` is the algebra of the columns."""

    elements: tuple
    var_ids: tuple[int, ...]
    columns: Columns
    next_id: int
    rows: int
    cells: Cells = COLUMNS

    @classmethod
    def initial(cls, data) -> "RewriteState":
        """The start state on `data`: learning data of any mode."""
        if data.m == 0 or data.n == 0:
            raise ValueError("learning data must have at least one row and column")
        n = data.n
        return cls(
            elements=tuple((var_atom(j),) for j in range(n)),
            var_ids=tuple(range(n)),
            columns=data.columns(),
            next_id=n,
            rows=data.m,
            cells=_cells_of(data),
        )

    @property
    def pattern(self) -> TuplePattern:
        return TuplePattern(self.elements, self.cells.mode)

    @property
    def substitution(self) -> Substitution:
        rows = [
            tuple(col[r] for col in self.columns) for r in range(self.rows)
        ]
        return Substitution(self.var_ids, LearningData(rows))

    def data_size(self) -> int:
        return sum(1 + len(cell) for col in self.columns for cell in col)

    def reconstructed_rows(self) -> tuple[tuple[Cell, ...], ...]:
        """Apply the witness substitution to the working pattern row by row;
        this always reproduces the original input matrix."""
        m = self.rows
        out = []
        for r in range(m):
            env = {v: self.columns[k][r] for k, v in enumerate(self.var_ids)}
            row = []
            for el in self.elements:
                acc: list[int] = []
                for a in el:
                    if a < 0:
                        acc.append(-a - 1)
                    else:
                        acc.extend(env[a >> 1][::-1] if a & 1 else env[a >> 1])
                row.append(tuple(acc))
            out.append(tuple(row))
        return tuple(out)


def _subst_var(elements, target: int, repl: tuple, alg: Cells):
    """Replace variable `target` by the atom string `repl` (reversed
    occurrences get the reversed string)."""
    rev = alg.reverse(repl)
    new_elements = []
    for el in elements:
        acc = []
        for a in el:
            if a >= 0 and a >> 1 == target:
                acc.extend(rev if a & 1 else repl)
            else:
                acc.append(a)
        new_elements.append(alg.rebuild(acc))
    return tuple(new_elements)


def _advance(state: RewriteState, step: PredStep, columns: Columns) -> RewriteState:
    """The state after `step`, whose columns are `columns`: the principal's
    variable is replaced by what the step stripped plus a fresh variable
    for the rest (nothing, for epsilon)."""
    j = step.j
    if step.rule is Rule.EPSILON:
        var_ids = state.var_ids[:j] + state.var_ids[j + 1 :]
        next_id = state.next_id
    else:
        var_ids = state.var_ids[:j] + (state.next_id,) + state.var_ids[j + 1 :]
        next_id = state.next_id + 1
    alg = state.cells.patterns
    repl = compose(step, tuple((var_atom(v),) for v in var_ids), alg)[j]
    return RewriteState(
        _subst_var(state.elements, state.var_ids[j], repl, alg),
        var_ids,
        columns,
        next_id,
        state.rows,
        state.cells,
    )


def applicable_rewrites(state: RewriteState, cfg: InferConfig) -> list[PredStep]:
    """Every applicable step, in the order inference takes them."""
    return [step for step, _ in data_steps(state.columns, state.cells, cfg)]


def rewrite_step(state: RewriteState, step: PredStep) -> RewriteState:
    """Apply `step`; ValueError unless it applies to the state's columns
    under some rule set (an auxiliary column must differ from the principal
    and not be all empty)."""
    columns = state.columns
    n = len(columns)
    i = step.i
    _front, source = RULE_TABLE.get(step.rule, (None, None))
    applies = 0 <= step.j < n and (
        source not in (ELEMENT, REVERSED)
        or i is not None and 0 <= i < n and i != step.j and not state.cells.is_empty(columns[i])
    )
    new = strip(columns, step, state.cells) if applies else None
    if new is None:
        raise ValueError(f"step {step} is not applicable")
    return _advance(state, step, new)


def final_state(data, cfg: InferConfig = InferConfig()) -> RewriteState:
    """Deterministic inference: repeatedly apply the first applicable rewrite
    until none applies; returns the normal-form state (pattern plus witness
    substitution)."""
    state = RewriteState.initial(data)
    while True:
        first = next(data_steps(state.columns, state.cells, cfg), None)
        if first is None:
            return state
        state = _advance(state, *first)


def reachable_patterns(
    data: LearningData, cfg: InferConfig = InferConfig()
) -> frozenset[TuplePattern]:
    """Every pattern of every reachable rewriting state, normal form or not
    (completeness promises reachability, not normality)."""
    return frozenset(TuplePattern(els) for els in _reach(data.columns(), cfg, {}))


def _reach(columns: Columns, cfg: InferConfig, memo: dict) -> frozenset:
    if columns in memo:
        return memo[columns]
    memo[columns] = frozenset()
    trivial = tuple((var_atom(k),) for k in range(len(columns)))
    out = {trivial}
    for step, succ in data_steps(columns, COLUMNS, cfg):
        for t in _reach(succ, cfg, memo):
            out.add(compose(step, t, STRINGS))
    result = frozenset(out)
    memo[columns] = result
    return result

"""Command-line entry points.

Subcommands: solve (CHC satisfiability), infer (pattern inference from CSV),
decide (solvable / member / includes / equiv), gen-data (identifying
two-row data for a pattern).  Exit codes: 0 sat or answer, 1 unsat,
2 unknown, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
import time
from dataclasses import asdict
from typing import Optional

from .alphabet import parse_cell
from .chc_core import ParseError, parse_smtlib
from .data import LearningData
from .pattern_core import (
    Mode,
    NotSolvableError,
    PatternSyntaxError,
    canonical_data,
    equivalent,
    includes,
    is_solvable,
    member,
    parse_pattern,
    render_pattern,
)
from .smt_backend import Bounds, ExternalSmtChecker
from .solver import (
    ExternalIntChc,
    SolverConfig,
    VerdictKind,
    mode_registry,
    solve,
)
from .stp_inference import InferConfig, infer, infer_all


class UsageError(Exception):
    pass


# the arguments each `decide` question takes
DECIDE_FORMS = {
    "solvable": ("PATTERN",),
    "member": ("ROW", "PATTERN"),
    "includes": ("PATTERN", "PATTERN"),
    "equiv": ("PATTERN", "PATTERN"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stp-chc", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_solve = sub.add_parser("solve", help="decide CHC satisfiability")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--mode",
        choices=["auto", *mode_registry()],
        default="auto",
    )
    p_solve.add_argument("--smt-cmd", help="external SMT solver command line")
    p_solve.add_argument("--int-chc-cmd", help="external integer CHC solver command line")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument(
        "--bounds",
        help="L,E for the bounded checker in every mode (default: 4,2 for list "
        "and list-len, 3,2 for set and multiset); integers stay 0..5",
    )
    p_solve.add_argument("--timeout", type=float)
    p_solve.add_argument("--nat-as-list", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--verbose", action="store_true")

    p_infer = sub.add_parser("infer", help="infer a pattern from CSV samples")
    p_infer.add_argument("file")
    p_infer.add_argument("--postfix", action="store_true")
    p_infer.add_argument("--reverse", action="store_true")
    p_infer.add_argument("--constants", action="store_true")
    group = p_infer.add_mutually_exclusive_group()
    group.add_argument("--set", action="store_true", dest="set_mode")
    group.add_argument("--multiset", action="store_true", dest="multiset_mode")
    p_infer.add_argument("--all", action="store_true", help="every normal form")
    p_infer.add_argument("--json", action="store_true")

    p_decide = sub.add_parser("decide", help="pattern decision procedures")
    p_decide.add_argument("question", choices=list(DECIDE_FORMS))
    p_decide.add_argument("args", nargs="+")
    p_decide.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen-data", help="identifying data for a pattern")
    p_gen.add_argument("pattern")
    p_gen.add_argument("--json", action="store_true")
    return parser


def _parse_bounds(text: str) -> Bounds:
    try:
        l_part, e_part = text.split(",")
        max_len, max_elem = int(l_part), int(e_part)
    except ValueError:
        raise UsageError(f"bad --bounds {text!r}; expected L,E") from None
    if max_len < 0 or max_elem < 0:
        raise UsageError(f"bad --bounds {text!r}; L and E must be at least 0")
    return Bounds(max_list_len=max_len, max_elem=max_elem)


def _parse_command(flag: str, text: Optional[str]) -> Optional[list[str]]:
    """A command line split as a POSIX shell would, or None when not given."""
    if not text:
        return None
    try:
        words = shlex.split(text)
    except ValueError as exc:
        raise UsageError(f"bad {flag} {text!r}: {exc}") from None
    if not words:
        raise UsageError(f"bad {flag} {text!r}: no command")
    return words


def _read(path: str) -> Optional[str]:
    """The text of `path`, or None after printing why it cannot be read."""
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_solve(ns) -> int:
    if ns.timeout is not None and not (math.isfinite(ns.timeout) and ns.timeout >= 0):
        raise UsageError(f"bad --timeout {ns.timeout}; expected a finite number of seconds >= 0")
    bounds = None if ns.bounds is None else _parse_bounds(ns.bounds)
    smt_cmd = _parse_command("--smt-cmd", ns.smt_cmd)
    int_chc_cmd = _parse_command("--int-chc-cmd", ns.int_chc_cmd)
    text = _read(ns.file)
    if text is None:
        return 2
    try:
        system = parse_smtlib(text, nat_as_list=ns.nat_as_list)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = SolverConfig(seed=ns.seed, bounds=bounds, timeout=ns.timeout)
    checker = None if smt_cmd is None else ExternalSmtChecker(smt_cmd)
    int_backend = None if int_chc_cmd is None else ExternalIntChc(int_chc_cmd)
    started = time.monotonic()
    verdict = solve(system, cfg, mode=ns.mode, checker=checker, int_backend=int_backend)
    elapsed = time.monotonic() - started

    verdict_line = verdict.kind.value
    if verdict.kind is VerdictKind.SAT and verdict.bounded:
        verdict_line = "sat (bounded)"
    # list mode's UNKNOWN verdict may carry the model that passed the definite clauses
    model = verdict.model if verdict.kind is VerdictKind.SAT else None
    # collection modes check with the bounded evaluator even under --smt-cmd:
    # only a sat without bounds was passed by the external prover
    report = {
        "verdict": verdict.kind.value,
        "bounded": verdict.bounded,
        "bounds": None if verdict.bounds is None else asdict(verdict.bounds),
        "mode": verdict.mode,
        "provider": "external" if ns.smt_cmd and not verdict.bounded else "bounded",
    }
    if model is not None:
        report["model"] = model.render().splitlines()
    if verdict.derivation is not None:
        report["derivation_depth"] = verdict.derivation.depth
        report["goal"] = verdict.derivation.goal_index
    if verdict.reason:
        report["reason"] = verdict.reason
    if ns.verbose:
        report["seconds"] = round(elapsed, 3)
        report["stats"] = verdict.stats
    if ns.json:
        print(json.dumps(report))
    else:
        print(verdict_line)
        if model is not None:
            print(model.render())
        if verdict.derivation is not None:
            print(
                f"; goal {verdict.derivation.goal_index} violated at depth "
                f"{verdict.derivation.depth}"
            )
        if verdict.reason and verdict.kind is VerdictKind.UNKNOWN:
            print(f"; {verdict.reason}")
        if verdict.kind is VerdictKind.SAT and verdict.mode:
            print(f"; mode: {verdict.mode}")
        if ns.verbose:
            print(f"; seconds: {report['seconds']}")
            print(f"; stats: {verdict.stats}")
    return {VerdictKind.SAT: 0, VerdictKind.UNSAT: 1, VerdictKind.UNKNOWN: 2}[
        verdict.kind
    ]


def cmd_infer(ns) -> int:
    text = _read(ns.file)
    if text is None:
        return 2
    cfg = InferConfig(
        constants=ns.constants, postfix=ns.postfix, reverse=ns.reverse
    )
    try:
        return _run_infer(ns, text, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_infer(ns, text: str, cfg: InferConfig) -> int:
    mode = Mode.SET if ns.set_mode else Mode.MULTISET if ns.multiset_mode else Mode.SEQUENCE
    data = LearningData.from_csv(text, mode)
    if ns.all:
        result = infer_all(data, cfg)
        patterns = sorted(render_pattern(t) for t in result.patterns)
        if not result.complete:
            print("; warning: state limit hit, pattern set is partial", file=sys.stderr)
    else:
        patterns = [render_pattern(infer(data, cfg))]
    if ns.json:
        print(json.dumps({"patterns": patterns}))
    else:
        for p in patterns:
            print(p)
    return 0


def cmd_decide(ns) -> int:
    q = ns.question
    if len(ns.args) != len(DECIDE_FORMS[q]):
        raise UsageError(f"decide {q} takes {' '.join(DECIDE_FORMS[q])}")
    try:
        if q == "solvable":
            (pat_text,) = ns.args
            answer = is_solvable(parse_pattern(pat_text))
        elif q == "member":
            row_text, pat_text = ns.args
            values = tuple(parse_cell(c) for c in row_text.split(","))
            answer = member(values, parse_pattern(pat_text))
        elif q == "includes":
            a, b = ns.args
            answer = includes(parse_pattern(a), parse_pattern(b))
        else:
            a, b = ns.args
            answer = equivalent(parse_pattern(a), parse_pattern(b))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if ns.json:
        print(json.dumps({"question": q, "answer": answer}))
    else:
        print("yes" if answer else "no")
    return 0


def cmd_gen_data(ns) -> int:
    try:
        t = parse_pattern(ns.pattern)
        data = canonical_data(t)
    except (PatternSyntaxError, NotSolvableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.json:
        print(json.dumps({"csv": data.to_csv()}))
    else:
        sys.stdout.write(data.to_csv())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise UsageError("a subcommand is required")
        if ns.command == "solve":
            return cmd_solve(ns)
        if ns.command == "infer":
            return cmd_infer(ns)
        if ns.command == "decide":
            return cmd_decide(ns)
        return cmd_gen_data(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())

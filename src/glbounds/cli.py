"""Command-line front door.

Subcommands: verify-identity, coeffs, bound, sweep, qclass, corpus.
Exit codes: 0 success/pass, 1 property fail, 2 input error, 3 membership
fail, 4 output I/O error. Data goes to stdout or --out; diagnostics to
stderr, so pipelines stay clean. Machine-readable numbers use 17
significant digits (round-trip safe), human summaries 6.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import MembershipMode, MembershipStatus, evaluate_bound_report, sweep_rows
from .coefficients import coefficient_set
from .corpus import corpus_entries
from .expressions import ExpressionError, parse
from .kernel import RuleParams, verify_identity
from .qclass import DEFAULT_GRID_N, DEFAULT_TOL, _check_q, check_expression, membership_for_bound
from .quadrature import Interval, QuadratureError

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_MEMBERSHIP_FAIL = 3
EXIT_IO_ERROR = 4

# a sweep computes and holds every row before writing, so its size is capped
MAX_SWEEP_LAMBDAS = 100_001


def _fmt17(v: float) -> str:
    return format(v, ".17g")


def _fmt6(v: float) -> str:
    return format(v, ".6g")


def _parse_lambda_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"lambda grid must be START:END:STEP, got {text!r}")
    return float(parts[0]), float(parts[1]), float(parts[2])


def _parse_q_list(text: str) -> tuple[float, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    return tuple(sorted(float(piece) for piece in items))


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    if not (args.tol >= 0.0 and math.isfinite(args.tol)):
        raise ValueError(f"tol must be finite and >= 0, got {args.tol!r}")
    e = parse(args.fn)
    iv = Interval(args.a, args.b)
    rep = verify_identity(e, iv, RuleParams(args.lam))
    print(f"lhs      = {_fmt6(rep.lhs)}")
    print(f"rhs      = {_fmt6(rep.rhs)}")
    print(f"abs_diff = {_fmt6(rep.abs_diff)}")
    return EXIT_OK if rep.abs_diff <= args.tol else EXIT_PROPERTY_FAIL


def _cmd_coeffs(args: argparse.Namespace) -> int:
    cs = coefficient_set(args.lam)
    if args.json:
        print(
            json.dumps(
                {
                    "M": cs.m,
                    "A": cs.a_coef,
                    "B": cs.b_coef,
                    "C_q1": cs.c_q1,
                    "regime": cs.regime.value,
                }
            )
        )
    else:
        print(f"lambda = {_fmt6(args.lam)}")
        print(f"regime = {cs.regime.value}")
        print(f"M      = {_fmt6(cs.m)}")
        print(f"A      = {_fmt6(cs.a_coef)}")
        print(f"B      = {_fmt6(cs.b_coef)}")
        print(f"C_q1   = {_fmt6(cs.c_q1)}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    e = parse(args.fn)
    iv = Interval(args.a, args.b)
    mode = MembershipMode.SKIP if args.skip_membership else MembershipMode.CHECK
    rep = evaluate_bound_report(e, iv, args.lam, args.q, membership_mode=mode)
    print(f"lhs_abs    = {_fmt6(rep.lhs_abs)}")
    print(f"bound      = {_fmt6(rep.bound)}")
    print(f"ratio      = {'undefined' if rep.ratio is None else _fmt6(rep.ratio)}")
    print(f"regime     = {rep.regime.value}")
    print(f"membership = {rep.q_membership.value}")
    if rep.q_membership is MembershipStatus.CHECKED_FAIL:
        return EXIT_MEMBERSHIP_FAIL
    asserted = (MembershipStatus.CERTIFIED, MembershipStatus.CHECKED_PASS)
    if rep.q_membership in asserted and rep.lhs_abs > rep.bound:
        return EXIT_PROPERTY_FAIL
    return EXIT_OK


def _probe_writable(path: str) -> None:
    """Raise OSError unless path can be opened for writing; changes nothing."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cmd_sweep(args: argparse.Namespace) -> int:
    start, end, step = _parse_lambda_grid(args.lambda_grid)
    iv = Interval(args.a, args.b)
    q_list = _parse_q_list(args.q)
    if not 0.0 <= start <= end <= 1.0:
        raise ValueError(
            f"lambda grid must satisfy 0 <= start <= end <= 1, got {start!r}:{end!r}"
        )
    if not step > 0.0:
        raise ValueError(f"lambda grid step must be positive, got {step!r}")
    # inclusive of end when (end-start)/step is integral within 1e-9; inf for a tiny step
    span = (end - start) / step + 1e-9
    if not span < MAX_SWEEP_LAMBDAS:
        raise ValueError(f"lambda grid {args.lambda_grid!r} gives over {MAX_SWEEP_LAMBDAS} lambdas")
    if not q_list:
        raise ValueError("q list must be non-empty")
    for q in q_list:
        _check_q(q)
    e = parse(args.fn)
    # fail on an unwritable --out before any scan runs, and leave no trace
    try:
        _probe_writable(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    lams = [min(max(start + i * step, 0.0), 1.0) for i in range(int(span) + 1)]
    rows = sweep_rows(e, iv, lams, q_list)
    if args.format == "csv":
        lines = ["lambda,q,regime,lhs_abs,bound,ratio,membership"]
        for r in rows:
            rep = r.report
            ratio = "" if rep.ratio is None else _fmt17(rep.ratio)
            lines.append(
                f"{_fmt17(r.lam)},{_fmt17(r.q)},{rep.regime.value},{_fmt17(rep.lhs_abs)},"
                f"{_fmt17(rep.bound)},{ratio},{rep.q_membership.value}"
            )
        content = "\n".join(lines) + "\n"
    else:
        payload = [
            {
                "lambda": r.lam,
                "q": r.q,
                "regime": r.report.regime.value,
                "lhs_abs": r.report.lhs_abs,
                "bound": r.report.bound,
                "ratio": r.report.ratio,
                "membership": r.report.q_membership.value,
            }
            for r in rows
        ]
        content = json.dumps(payload, indent=2) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(f"sweep: wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_qclass(args: argparse.Namespace) -> int:
    if (args.g is None) == (args.fn is None):
        print("error: pass exactly one of --g or --fn", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.g is not None and args.q is not None:
        print("error: --q only applies to --fn", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.fn is not None and args.q is None:
        print("error: --fn requires --q", file=sys.stderr)
        return EXIT_INPUT_ERROR
    iv = Interval(args.a, args.b)
    if args.g is not None:
        rep = check_expression(parse(args.g), iv, args.grid, args.tol)
    else:
        rep = membership_for_bound(parse(args.fn), iv, args.q, args.grid, args.tol)
    print(f"samples_checked = {rep.samples_checked}")
    print(f"violations      = {len(rep.violations)}")
    print(f"max_margin      = {_fmt17(rep.max_margin)}")
    print(f"passed          = {rep.passed}")
    import heapq  # here, so that no other command loads it

    # the same ten as sorted(...)[:10], without sorting every violation
    worst = heapq.nsmallest(10, rep.violations, key=lambda v: (-v.margin, v.x, v.y, v.lam))
    for v in worst:
        print(
            f"violation: x={_fmt17(v.x)} y={_fmt17(v.y)} lambda={_fmt17(v.lam)} "
            f"lhs={_fmt17(v.lhs)} rhs={_fmt17(v.rhs)}"
        )
    return EXIT_OK if rep.passed else EXIT_PROPERTY_FAIL


def _cmd_corpus(args: argparse.Namespace) -> int:
    payload = [
        {
            "name": entry.name,
            "expression": entry.expression,
            "interval": [entry.interval.a, entry.interval.b],
            "membership": entry.membership.value,
            "note": entry.note,
        }
        for entry in corpus_entries()
    ]
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glbounds",
        description="Verify lambda-parameterized quadrature error bounds over the "
        "Godunova-Levin function class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-identity", help="check both sides of the error identity")
    p.add_argument("--fn", required=True, help="expression in x")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler=_cmd_verify_identity)

    p = sub.add_parser("coeffs", help="print the closed-form coefficients")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("bound", help="evaluate the error bound for an expression")
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--skip-membership", action="store_true")
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("sweep", help="tabulate bounds over a lambda/q grid")
    p.add_argument("--fn", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--lambda-grid", required=True, metavar="S:E:STEP")
    p.add_argument("--q", required=True, help="comma-separated list, e.g. 1,2")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("qclass", help="falsification scan for class membership")
    p.add_argument("--g", help="check this expression directly")
    p.add_argument("--fn", help="check |f''|^q of this expression (requires --q)")
    p.add_argument("--q", type=float)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_N)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(handler=_cmd_qclass)

    p = sub.add_parser("corpus", help="print the built-in function catalogue as JSON")
    p.set_defaults(handler=_cmd_corpus)

    return parser


# built once per process: building it costs about as much as a whole verify-identity
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT_ERROR
    try:
        return args.handler(args)
    except (ExpressionError, QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

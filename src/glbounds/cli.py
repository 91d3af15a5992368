"""Command-line front door.

Subcommands: verify-identity, coeffs, bound, sweep, qclass, corpus.
Exit codes: 0 success/pass, 1 property fail, 2 input error, 3 membership
fail, 4 output I/O error. Data goes to stdout or --out; diagnostics to
stderr, so pipelines stay clean. CSV numbers use 17 significant digits
and JSON numbers Python's shortest repr, both round-trip safe; human
summaries use 6.

main reads plain argv, COMMAND (--flag VALUE | --switch)*, from the command
table _COMMANDS itself. argparse, built from the same table on first need,
prints help and usage errors and reads every other form of argv.

Importing this module loads none of the modules that the commands run.
Each handler reaches them as attributes of the package, which imports each
at its first access (glbounds/__init__.py), and calls through their
attributes, as in `glbounds.bounds.sweep_rows(...)`. So a function that a
test or bench/tracer.py replaces in its home module is the one called;
parse is the exception (see _parse). So coeffs loads glbounds.coefficients
alone, and verify-identity the kernel and the modules it imports. bound and
sweep need bounds, which imports qclass, the kernel and the modules they
import.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse
    from collections.abc import Sequence

    from .bounds import BoundReport
    from .expressions import Node

glbounds = sys.modules[__package__]  # the package, whose modules the handlers reach by name

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
    return tuple(sorted({float(piece) for piece in items}))


parse = None  # glbounds.expressions.parse, bound by the first _parse


def _parse(text: str) -> Node:
    """expressions.parse(text), called through this module's own name parse.

    bench/tracer.py counts the calls made through the names that modules
    hold, and it never wraps glbounds.expressions itself (its evaluators
    recurse through their module's globals), so a call through
    expressions.parse would go uncounted. For the same reason the name bound
    here is always that module's own parse, never a wrapper.
    """
    global parse
    if parse is None:
        from .expressions import parse
    return parse(text)


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    if not (args.tol >= 0.0 and math.isfinite(args.tol)):
        raise ValueError(f"tol must be finite and >= 0, got {args.tol!r}")
    e = _parse(args.fn)
    iv = glbounds.quadrature.Interval(args.a, args.b)
    rep = glbounds.kernel.verify_identity(e, iv, args.lam)
    print(f"lhs      = {_fmt6(rep.lhs)}")
    print(f"rhs      = {_fmt6(rep.rhs)}")
    print(f"abs_diff = {_fmt6(rep.abs_diff)}")
    return EXIT_OK if rep.abs_diff <= args.tol else EXIT_PROPERTY_FAIL


def _cmd_coeffs(args: argparse.Namespace) -> int:
    cs = glbounds.coefficients.coefficient_set(args.lam)
    numbers = (("M", cs.m), ("A", cs.a_coef), ("B", cs.b_coef), ("C_q1", cs.c_q1))
    if args.json:
        import json  # here, in corpus, and for a sweep that json must refuse
        print(json.dumps({**dict(numbers), "regime": cs.regime.value}))
    else:
        print(f"lambda = {_fmt6(args.lam)}")
        print(f"regime = {cs.regime.value}")
        for name, v in numbers:
            print(f"{name:<6} = {_fmt6(v)}")
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    e = _parse(args.fn)
    iv = glbounds.quadrature.Interval(args.a, args.b)
    rep = glbounds.bounds.evaluate_bound_report(e, iv, args.lam, args.q, args.skip_membership)
    print(f"lhs_abs    = {_fmt6(rep.lhs_abs)}")
    print(f"bound      = {_fmt6(rep.bound)}")
    print(f"ratio      = {'undefined' if rep.ratio is None else _fmt6(rep.ratio)}")
    print(f"regime     = {rep.regime.value}")
    print(f"membership = {rep.q_membership.value}")
    if rep.q_membership is glbounds.bounds.MembershipStatus.CHECKED_FAIL:
        return EXIT_MEMBERSHIP_FAIL
    if rep.q_membership is glbounds.bounds.MembershipStatus.CHECKED_PASS and rep.lhs_abs > rep.bound:
        return EXIT_PROPERTY_FAIL
    return EXIT_OK


def _probe_writable(path: str) -> None:
    """Raise OSError unless path can be opened for writing; changes nothing."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


# a sweep row's columns in order: the CSV header, and the keys of each JSON object
_SWEEP_COLUMNS = ("lambda", "q", "regime", "lhs_abs", "bound", "ratio", "membership")


def _sweep_content(rows: list[BoundReport], fmt: str) -> str:
    """The text of a sweep file of rows in fmt, every row written from one
    template built from _SWEEP_COLUMNS.

    csv: a header line, then a line per row, numbers to 17 significant
    digits and an empty ratio where the ratio is None. json: what
    json.dumps(objects, indent=2, allow_nan=False) writes for an object per
    row, numbers as float.__repr__ (json's own text for a finite float) and
    a ratio that is None or not finite as null; json's ValueError where
    another number is not finite, which strict JSON cannot write.
    """
    csv = fmt == "csv"
    number, none = ("%.17g", "") if csv else ("%r", "null")
    # the enum values are ASCII letters, which a JSON string holds as they are
    enums = (*glbounds.coefficients.Regime, *glbounds.bounds.MembershipStatus)
    texts = {m: m.value if csv else f'"{m.value}"' for m in enums}

    def template(ratio: str) -> str:
        slots = {"regime": "%s", "ratio": ratio, "membership": "%s"}
        cells = [slots.get(name, number) for name in _SWEEP_COLUMNS]
        if csv:
            return ",".join(cells)
        return "  {\n" + ",\n".join(f'    "{name}": {cell}' for name, cell in zip(_SWEEP_COLUMNS, cells)) + "\n  }"

    full, empty = template(number), template(none)
    lines = []
    for lam, q, lhs_abs, bound, ratio, regime, status in rows:
        # a CSV ratio that is not finite is written as one; JSON has no such number
        if ratio is None or not (csv or math.isfinite(ratio)):
            lines.append(empty % (lam, q, texts[regime], lhs_abs, bound, texts[status]))
        else:
            lines.append(full % (lam, q, texts[regime], lhs_abs, bound, ratio, texts[status]))
    if csv:
        return "\n".join([",".join(_SWEEP_COLUMNS), *lines]) + "\n"
    content = "[\n" + ",\n".join(lines) + "\n]\n"
    # float.__repr__ writes a number that is not finite as inf, -inf or nan,
    # letters that no finite number, key or enum text holds
    if "inf" in content or "nan" in content:
        import json

        # json's own error for the first of them in the rows' order, the one
        # json.dumps of the rows' objects raises
        json.dumps([(r.lam, r.q, r.lhs_abs, r.bound) for r in rows], indent=2, allow_nan=False)
    return content


def _cmd_sweep(args: argparse.Namespace) -> int:
    start, end, step = _parse_lambda_grid(args.lambda_grid)
    iv = glbounds.quadrature.Interval(args.a, args.b)
    q_list = _parse_q_list(args.q)
    if not 0.0 <= start <= end <= 1.0:
        raise ValueError(
            f"lambda grid must satisfy 0 <= start <= end <= 1, got {start!r}:{end!r}"
        )
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"lambda grid step must be positive and finite, got {step!r}")
    # inclusive of end when (end-start)/step is integral within 1e-9; inf for a tiny step
    span = (end - start) / step + 1e-9
    if not span < MAX_SWEEP_LAMBDAS:
        raise ValueError(f"lambda grid {args.lambda_grid!r} gives over {MAX_SWEEP_LAMBDAS} lambdas")
    if not q_list:
        raise ValueError("q list must be non-empty")
    for q in q_list:
        glbounds.qclass._check_q(q)
    e = _parse(args.fn)
    # fail on an unwritable --out before any scan runs, and leave no trace
    try:
        _probe_writable(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    lams = [min(max(start + i * step, 0.0), 1.0) for i in range(int(span) + 1)]
    rows = glbounds.bounds.sweep_rows(e, iv, lams, q_list)
    content = _sweep_content(rows, args.format)
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
        raise ValueError("pass exactly one of --g or --fn")
    if args.g is not None and args.q is not None:
        raise ValueError("--q only applies to --fn")
    if args.fn is not None and args.q is None:
        raise ValueError("--fn requires --q")
    qclass = glbounds.qclass
    iv = glbounds.quadrature.Interval(args.a, args.b)
    grid = qclass.DEFAULT_GRID_N if args.grid is None else args.grid
    tol = qclass.DEFAULT_TOL if args.tol is None else args.tol
    # a scan keeps the count and, by default, the ten largest margins: all that is printed
    if args.g is not None:
        rep = qclass.check_expression(_parse(args.g), iv, grid, tol)
    else:
        rep = qclass.membership_for_bound(_parse(args.fn), iv, args.q, grid, tol)
    print(f"samples_checked = {rep.samples_checked}")
    print(f"violations      = {rep.count}")
    print(f"max_margin      = {_fmt17(rep.max_margin)}")
    print(f"passed          = {rep.passed}")
    for v in rep.kept:
        print(
            f"violation: x={_fmt17(v.x)} y={_fmt17(v.y)} lambda={_fmt17(v.lam)} "
            f"lhs={_fmt17(v.lhs)} rhs={_fmt17(v.rhs)}"
        )
    return EXIT_OK if rep.passed else EXIT_PROPERTY_FAIL


def _cmd_corpus(args: argparse.Namespace) -> int:
    import json
    payload = [
        {
            "name": entry.name,
            "expression": entry.expression,
            "interval": [entry.interval.a, entry.interval.b],
            "membership": entry.membership.value,
            "note": entry.note,
        }
        for entry in glbounds.corpus.corpus_entries()
    ]
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# one entry per command: its help, its handler, and its options as
# flag: argparse add_argument keywords, in the order --help lists them
_COMMANDS = {
    "verify-identity": ("check both sides of the error identity", _cmd_verify_identity, {
        "--fn": {"required": True, "help": "expression in x"},
        "--a": {"type": float, "required": True},
        "--b": {"type": float, "required": True},
        "--lambda": {"dest": "lam", "type": float, "required": True},
        "--tol": {"type": float, "default": 1e-8},
    }),
    "coeffs": ("print the closed-form coefficients", _cmd_coeffs, {
        "--lambda": {"dest": "lam", "type": float, "required": True},
        "--json": {"action": "store_true"},
    }),
    "bound": ("evaluate the error bound for an expression", _cmd_bound, {
        "--fn": {"required": True},
        "--a": {"type": float, "required": True},
        "--b": {"type": float, "required": True},
        "--lambda": {"dest": "lam", "type": float, "required": True},
        "--q": {"type": float, "required": True},
        "--skip-membership": {"action": "store_true"},
    }),
    "sweep": ("tabulate bounds over a lambda/q grid", _cmd_sweep, {
        "--fn": {"required": True},
        "--a": {"type": float, "required": True},
        "--b": {"type": float, "required": True},
        "--lambda-grid": {"required": True, "metavar": "S:E:STEP"},
        "--q": {"required": True, "help": "comma-separated list, e.g. 1,2"},
        "--out": {"required": True},
        "--format": {"choices": ("csv", "json"), "default": "csv"},
    }),
    "qclass": ("falsification scan for class membership", _cmd_qclass, {
        "--g": {"help": "check this expression directly"},
        "--fn": {"help": "check |f''|^q of this expression (requires --q)"},
        "--q": {"type": float},
        "--a": {"type": float, "required": True},
        "--b": {"type": float, "required": True},
        # no default here, so that the table needs no qclass: the handler
        # takes qclass.DEFAULT_GRID_N and DEFAULT_TOL for a flag not given
        "--grid": {"type": int},
        "--tol": {"type": float},
    }),
    "corpus": ("print the built-in function catalogue as JSON", _cmd_corpus, {}),
}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for argv of the plain form
    COMMAND (--flag VALUE | --switch)*, read from _COMMANDS in one pass.

    A flag's value is the next argument unless that begins with '--' or is
    '-h'. So a value may begin with '-', as '-1e-9' and '-x^2' do, where
    argparse would read an option: the namespace is then the one argparse
    gives for '--flag=value'.

    None for any other argv: empty, an unknown command or flag, help, '--',
    an abbreviation, '--flag=value', a flag given without its value, a value
    that its type or choices reject, or a required flag left out. main gives
    those to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    given = {}
    i = 1
    while i < len(argv):
        flag = argv[i]
        kw = options.get(flag)
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        text = argv[i + 1]
        if text.startswith("--") or text == "-h":
            return None
        try:
            value = kw.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
        i += 2
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, kw in options.items():
        if flag not in given and kw.get("required"):
            return None
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        setattr(args, kw.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """argparse's parser for _COMMANDS, built on first need and kept: it prints
    help and usage errors, and reads every argv that _read does not."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse's parser, but a failed write of help or usage raises, so main sees a closed stdout."""

        def _print_message(self, message: str, file=None) -> None:
            if message:
                (file or sys.stderr).write(message)

    parser = _Parser(
        prog="glbounds",
        description="Verify lambda-parameterized quadrature error bounds over the "
        "Godunova-Levin function class.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
        p.set_defaults(handler=handler)
    return parser


# the errors main reports as input errors, as (module, class name)
_INPUT_ERRORS = (
    ("builtins", "ValueError"),
    ("glbounds.expressions", "ExpressionError"),
    ("glbounds.quadrature", "QuadratureError"),
)


def _input_errors() -> tuple[type[Exception], ...]:
    """The classes of _INPUT_ERRORS whose modules are loaded: an error of a
    module that no handler has loaded cannot have been raised."""
    return tuple(getattr(sys.modules[m], name) for m, name in _INPUT_ERRORS if m in sys.modules)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read(argv) or _parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed help or a usage error
            code = exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
        else:
            code = args.handler(args)
        sys.stdout.flush()  # here, so that a closed pipe is seen before exit
        return code
    except BrokenPipeError:
        # the reader of stdout has gone; as in the SIGPIPE note of Python's
        # signal docs, point stdout at devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO_ERROR
    except _input_errors() as exc:  # evaluated only when an error reaches it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

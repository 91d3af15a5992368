"""Command-line front door.

Subcommands: verify-identity, coeffs, bound, sweep, qclass, corpus.
Exit codes: 0 success/pass, 1 property fail, 2 input error, 3 membership
fail, 4 output I/O error. verify-identity exits 1 past --tol; qclass 1 on
any violation; sweep 0, whatever its rows' labels; bound reads its
report's decision record (qclass.Decision, None where membership is
skipped): 3 where it failed, 1 where it passed and lhs_abs > bound, else
0. Data goes to stdout or --out; diagnostics to
stderr, so pipelines stay clean. CSV numbers use 17 significant digits
and JSON numbers Python's shortest repr, both round-trip safe; human
summaries use 6.

main reads plain argv, COMMAND (--flag VALUE | --switch)*, from the command
table _COMMANDS itself. argparse, built from the same table on first need,
prints help and usage errors and reads every other form of argv.

A handler returns its exit code and its whole stdout text, each report
filled into one %-template ('%.6g' and '%.17g' write what format(v, '.6g')
and format(v, '.17g') do), or json's text; main writes that text once.

Importing this module loads none of the modules that the commands run.
Each handler reaches them as attributes of the package, which imports each
at its first access (glbounds/__init__.py), and calls through their
attributes, as in `glbounds.bounds.sweep_rows(...)`. So a function that a
test or bench/tracer.py replaces in its home module is the one called;
parse is the exception (see _parse). So coeffs loads glbounds.coefficients
alone, and verify-identity the kernel and the modules it imports. bound and
sweep need bounds, which imports the kernel and the modules it imports, and
reaches qclass only to decide membership.
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
    from collections.abc import Callable, Sequence

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

# the membership label of a report, keyed on `m and m.passed` for its decision
# record m: None where membership was skipped, else whether the decision passed
_LABELS = {True: "CheckedPass", False: "CheckedFail", None: "Unchecked"}


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


def _cmd_verify_identity(args: argparse.Namespace) -> tuple[int, str]:
    if not (args.tol >= 0.0 and math.isfinite(args.tol)):
        raise ValueError(f"tol must be finite and >= 0, got {args.tol!r}")
    e = _parse(args.fn)
    iv = glbounds.quadrature.Interval(args.a, args.b)
    rep = glbounds.kernel.verify_identity(e, iv, args.lam)
    code = EXIT_OK if rep.abs_diff <= args.tol else EXIT_PROPERTY_FAIL
    return code, "lhs      = %.6g\nrhs      = %.6g\nabs_diff = %.6g\n" % rep


def _cmd_coeffs(args: argparse.Namespace) -> tuple[int, str]:
    cs = glbounds.coefficients.coefficient_set(args.lam)
    if args.json:
        import json  # here, in corpus, and for a sweep that json must refuse
        payload = {"M": cs.m, "A": cs.a_coef, "B": cs.b_coef, "C_q1": cs.c_q1, "regime": cs.regime.value}
        return EXIT_OK, json.dumps(payload) + "\n"
    template = "lambda = %.6g\nregime = %s\nM      = %.6g\nA      = %.6g\nB      = %.6g\nC_q1   = %.6g\n"
    return EXIT_OK, template % (args.lam, cs.regime.value, cs.m, cs.a_coef, cs.b_coef, cs.c_q1)


def _cmd_bound(args: argparse.Namespace) -> tuple[int, str]:
    e = _parse(args.fn)
    iv = glbounds.quadrature.Interval(args.a, args.b)
    rep = glbounds.bounds.evaluate_bound_report(e, iv, args.lam, args.q, args.skip_membership)
    ratio = "undefined" if rep.ratio is None else "%.6g" % rep.ratio
    passed = rep.q_membership and rep.q_membership.passed  # None where unchecked
    template = "lhs_abs    = %.6g\nbound      = %.6g\nratio      = %s\nregime     = %s\nmembership = %s\n"
    text = template % (rep.lhs_abs, rep.bound, ratio, rep.regime.value, _LABELS[passed])
    if passed is False:
        return EXIT_MEMBERSHIP_FAIL, text
    if passed and rep.lhs_abs > rep.bound:
        return EXIT_PROPERTY_FAIL, text
    return EXIT_OK, text


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
    # the regimes' values and the labels are ASCII letters, which a JSON string holds as they are
    names = {**{r: r.value for r in glbounds.coefficients.Regime}, **_LABELS}
    texts = {key: name if csv else f'"{name}"' for key, name in names.items()}

    def template(ratio: str) -> str:
        slots = {"regime": "%s", "ratio": ratio, "membership": "%s"}
        cells = [slots.get(name, number) for name in _SWEEP_COLUMNS]
        if csv:
            return ",".join(cells)
        return "  {\n" + ",\n".join(f'    "{name}": {cell}' for name, cell in zip(_SWEEP_COLUMNS, cells)) + "\n  }"

    full, empty = template(number), template(none)
    lines = []
    for lam, q, lhs_abs, bound, ratio, regime, m in rows:
        # a CSV ratio that is not finite is written as one; JSON has no such number
        if ratio is None or not (csv or math.isfinite(ratio)):
            lines.append(empty % (lam, q, texts[regime], lhs_abs, bound, texts[m and m.passed]))
        else:
            lines.append(full % (lam, q, texts[regime], lhs_abs, bound, ratio, texts[m and m.passed]))
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


def _cmd_sweep(args: argparse.Namespace) -> tuple[int, str]:
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
        glbounds.coefficients._check_q(q)
    e = _parse(args.fn)
    # fail on an unwritable --out before any scan runs, and leave no trace
    try:
        _probe_writable(args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR, ""
    lams = [min(max(start + i * step, 0.0), 1.0) for i in range(int(span) + 1)]
    rows = glbounds.bounds.sweep_rows(e, iv, lams, q_list)
    content = _sweep_content(rows, args.format)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
    except OSError as exc:
        print(f"error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR, ""
    print(f"sweep: wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return EXIT_OK, ""


def _cmd_qclass(args: argparse.Namespace) -> tuple[int, str]:
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
    summary = "samples_checked = %s\nviolations      = %s\nmax_margin      = %.17g\npassed          = %s\n"
    violation = "violation: x=%.17g y=%.17g lambda=%.17g lhs=%.17g rhs=%.17g\n"
    text = summary % (rep.samples_checked, rep.count, rep.max_margin, rep.passed)
    text += "".join([violation % v for v in rep.kept])
    return EXIT_OK if rep.passed else EXIT_PROPERTY_FAIL, text


def _cmd_corpus(args: argparse.Namespace) -> tuple[int, str]:
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
    return EXIT_OK, json.dumps(payload, indent=2) + "\n"


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


def _plain(handler: Callable, options: dict) -> tuple:
    """A command's entry of _PLAIN, _COMMANDS as _read takes it: its handler;
    each flag's dest, converter, whether it is a switch, and its choices; the
    dests that must be given; and the defaults of the others, as argparse
    reads options."""
    flags, required, defaults = {}, set(), {}
    for flag, kw in options.items():
        dest = kw.get("dest", flag[2:].replace("-", "_"))
        switch = kw.get("action") == "store_true"
        flags[flag] = (dest, kw.get("type", str), switch, kw.get("choices"))
        if kw.get("required"):
            required.add(dest)
        else:
            defaults[dest] = kw.get("default", False if switch else None)
    return handler, flags, required, defaults


_PLAIN = {name: _plain(handler, options) for name, (_, handler, options) in _COMMANDS.items()}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for argv of the plain form
    COMMAND (--flag VALUE | --switch)*, read from _PLAIN in one pass.

    A flag's value is the next argument unless that begins with '--' or is
    '-h'. So a value may begin with '-', as '-1e-9' and '-x^2' do, where
    argparse would read an option: the namespace is then the one argparse
    gives for '--flag=value'.

    None for any other argv: empty, an unknown command or flag, help, '--',
    an abbreviation, '--flag=value', a flag given without its value, a value
    that its type or choices reject, or a required flag left out. main gives
    those to argparse.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    handler, flags, required, defaults = _PLAIN[argv[0]]
    values = dict(defaults)
    i = 1
    while i < len(argv):
        spec = flags.get(argv[i])
        if spec is None:
            return None
        dest, convert, switch, choices = spec
        if switch:
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        text = argv[i + 1]
        if text.startswith("--") or text == "-h":
            return None
        try:
            value = convert(text)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        i += 2
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], handler=handler, **values)


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
            code, report = args.handler(args)
            sys.stdout.write(report)  # all a command prints to stdout, in one write
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

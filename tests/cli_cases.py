"""The CLI's cases: one row per command, with the exit code and the output it
must give; a row's comment holds the facts behind its pins.

tests/test_cli.py runs every row through ``glbounds.cli.main`` in process.
Run as a script, ``python tests/cli_cases.py`` runs every row through the
installed ``glbounds`` command instead (the ``[project.scripts]`` entry
point), each in a fresh process and a fresh temporary directory. It prints
each mismatch (argv, expected, got) and the count of rows run, and exits 1
on any mismatch. It imports nothing of glbounds, so it checks the package
that the command runs.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple


class Case(NamedTuple):
    """One command and what it must give. Each check that is set must hold:
    the exit code; the whole stdout (out), or lines that stdout must hold,
    each whole; the whole stderr (err), or a substring of it (err_has); a
    file the command writes, named relative to its working directory, that
    must load as strict JSON (json_file); and a file it writes, as (name,
    content), whose bytes must be content's in UTF-8 (file)."""

    argv: list[str]
    code: int
    out: str | None = None
    lines: tuple[str, ...] = ()
    err: str | None = None
    err_has: str | None = None
    json_file: str | None = None
    file: tuple[str, str] | None = None


SINE = ["--a", "0.000001", "--b", "3.141592"]
UNIT = ["--a", "0", "--b", "1"]

# the sweep of x on [0, 1] at lambda 0, 1/2 and 1 and q 1 and 2: |E| and the
# bound are 0 (no libm call, so on every platform), so no row has a ratio
X_SWEEP = ["sweep", "--fn", "x", *UNIT, "--lambda-grid", "0:1:0.5", "--q", "1,2"]
X_SWEEP_CSV = """\
lambda,q,regime,lhs_abs,bound,ratio,membership
0,1,Low,0,0,,CheckedPass
0,2,Low,0,0,,CheckedPass
0.5,1,Low,0,0,,CheckedPass
0.5,2,Low,0,0,,CheckedPass
1,1,High,0,0,,CheckedPass
1,2,High,0,0,,CheckedPass
"""
X_SWEEP_JSON = "[\n" + ",\n".join(
    f"""\
  {{
    "lambda": {lam},
    "q": {q},
    "regime": "{regime}",
    "lhs_abs": 0.0,
    "bound": 0.0,
    "ratio": null,
    "membership": "CheckedPass"
  }}"""
    for lam, regime in (("0.0", "Low"), ("0.5", "Low"), ("1.0", "High"))
    for q in ("1.0", "2.0")
) + "\n]\n"

CASES = [
    # the entry point answers from outside the checkout
    Case(["coeffs", "--lambda", "0.5", "--json"], 0),
    # argv the command table cannot read goes to argparse, which names the
    # missing flags: a usage error, exit 2
    Case(["bound", "--fn", "x^2"], 2, err_has="the following arguments are required"),
    # sine fails membership: skipped, the row makes no claim and exits 0;
    # decided, the same input is a membership fail, exit 3
    Case(["bound", "--fn", "sin(x)", *SINE, "--lambda", "0", "--q", "1", "--skip-membership"], 0,
         lines=("membership = Unchecked",)),
    Case(["bound", "--fn", "sin(x)", *SINE, "--lambda", "0", "--q", "1"], 3, lines=("membership = CheckedFail",)),
    # values that begin with '-' are read as values, not options: an
    # exponent-form negative number and an expression that begins with '-'
    Case(["verify-identity", "--fn", "x^2", "--a", "-1e-9", "--b", "1", "--lambda", "0.5"], 0),
    Case(["bound", "--fn", "-x^2", *UNIT, "--lambda", "0", "--q", "1"], 0),
    # lambda out of range: the package's one lambda check, after the
    # expression and the interval, with the line coeffs and bound print
    Case(["verify-identity", "--fn", "x^2", *UNIT, "--lambda", "1.5"], 2,
         out="", err="error: lambda must be in [0, 1], got 1.5\n"),
    # the pole of 1/x leaves one enclosure cell unbounded; the scan fails, exit 1
    Case(["qclass", "--g", "1/x", "--a", "-1", "--b", "1"], 1),
    # at grid 31, 8 of the 31 lambdas have an exact mirror: the walk runs
    # both paired and lone passes, and reports 1,698 violations, exit 1
    Case(["qclass", "--fn", "sin(x)", "--q", "2", *SINE, "--grid", "31"], 1),
    # sine at q = 2 on its catalogue interval, grid 64: a triple whose own
    # enclosure cell proves it can neither violate nor raise max_margin,
    # or proves it a violation below max_margin, reads no g, so the scan
    # evaluates g at 458 points, the reads of the ten worst included
    # (5,378 with every violation read, 10,177 with every point of each
    # pair it visits); the report is unchanged, exit 1
    Case(["qclass", "--fn", "sin(x)", "--q", "2", *SINE], 1,
         lines=("violations      = 14852", "max_margin      = 0.9970065722671122")),
    # at 1e8 the 64 grid points of a 1.5e-7 wide interval are 11 floats: the
    # walk records 262,208 violations, 7,755 of them distinct, each counted
    # once, by value; exit 1
    Case(["qclass", "--g", "0-1", "--a", "100000000", "--b", "100000000.00000015"], 1,
         lines=("violations      = 7755",)),
    # at grid 9 the check for negative values records (x, x, 1/2), which the
    # walk meets again at x's diagonal; the record keeps it once: 356, exit 1
    Case(["qclass", "--g", "x-0.5", *UNIT, "--grid", "9"], 1, lines=("violations      = 356",)),
    # negative values start the largest margin above the tolerance, and the
    # margin only grows, so the walk ranks only the pairs above the tolerance
    # and ends with them; x - 0.5 calls no libm function, so the output is
    # the same on every platform: 131,104 violations, exit 1
    Case(["qclass", "--g", "x-0.5", *UNIT], 1,
         lines=("violations      = 131104", "max_margin      = 63.003875492125985")),
    # abs(x-0.0859375) has its kink on a scan point: the membership decision
    # raises the scan's error, an input error, exit 2
    Case(["bound", "--fn", "abs(x-0.0859375)", *UNIT, "--lambda", "0.5", "--q", "1"], 2),
    # sqrt raises at several scan points off the grid; the walk meets
    # -4.997523459242999e-05 first, and asking for the points again in the
    # loop's order (lam, then x, then y) raises at the loop's first one
    Case(["qclass", "--g", "sqrt((x-0.5393847733123374)^2-5e-05)", *UNIT, "--grid", "31"], 2,
         err="error: sqrt of negative value -6.355248700360323e-06\n"),
    # x^x on [0.5, 2], whose enclosure bounds exp(e * ln b), is proven with no pair visited: exit 0
    Case(["bound", "--fn", "x^x", "--a", "0.5", "--b", "2", "--lambda", "0.3", "--q", "2"], 0),
    # a tiny sine window, proven on the one enclosure cell that holds the
    # grid: the row keys of the two ends of |f''| on that cell are all at
    # most the tolerance, so no g is evaluated and no pair bound is computed
    Case(["bound", "--fn", "sin(x)", "--a", "1.8493089598931096", "--b", "1.8493095160393422",
          "--lambda", "0.75", "--q", "1.34"], 0, lines=("membership = CheckedPass",)),
    # cosh at q = 1.2: interval dependency widens |f''| to [0.37, 2.7] on the
    # one cell, too wide for its two ends; on the 8 coarse cells every row
    # key of the cells' lows of g at the 64 grid points is at most the
    # tolerance, so no g is evaluated and no row of pair bounds is built
    Case(["bound", "--fn", "(exp(x)+exp(-x))/2", "--a", "-1", "--b", "1", "--lambda", "0.3", "--q", "1.2"], 0,
         lines=("membership = CheckedPass",)),
    # decisions that walk pairs: x^4 on [0, 1] at q = 3 keeps one pair above
    # the tolerance on the 63 cells; the decision walks it and passes, as the
    # qclass scan does (exit 0); the composite on [0, 3] at q = 2 walks to
    # its first violation, a membership fail (exit 3)
    Case(["bound", "--fn", "x^4", *UNIT, "--lambda", "0.5", "--q", "3"], 0, lines=("membership = CheckedPass",)),
    Case(["qclass", "--fn", "x^4", "--q", "3", *UNIT], 0, lines=("passed          = True",)),
    Case(["bound", "--fn", "exp(x)*sin(x)+1/(x+2)", "--a", "0", "--b", "3", "--lambda", "0.5", "--q", "2"], 3,
         lines=("membership = CheckedFail",)),
    # f'' = -1e616*sin(1e308*x) overflows at a: an input error naming the point
    Case(["bound", "--fn", "sin(1e308*x)", "--a", "0.5", "--b", "1.5", "--lambda", "0.3", "--q", "1.5"], 2,
         err="error: |f''(x)| is not finite at x=0.5: inf\n"),
    # endpoint weights that overflow at q, membership skipped: e^1000 passes
    # the float range, so the bracket takes the powers of g/max(g_a, g_b)
    Case(["bound", "--fn", "exp(x)", *UNIT, "--lambda", "0.5", "--q", "1000", "--skip-membership"], 0,
         lines=("bound      = 0.0566905",), err=""),
    # the quadrature's most sampled benchmark integral: 227 samples for
    # int_0^10 f with Gauss-Kronrod (7, 15); both sides agree, exit 0
    Case(["verify-identity", "--fn", "exp(x)*sin(x)+1/(x+2)", "--a", "0", "--b", "10", "--lambda", "0.75"], 0),
    # f'' = 1/(x - 0.3) has a pole at t = 0.7, so the kernel side is not
    # integrable while the f side converges: the panel next to the pole, in
    # t and not in x, can no longer be split, an input error (exit 2) that
    # names its integral, never a verdict
    Case(["verify-identity", "--fn", "(x-0.3)*ln(abs(x-0.3))", *UNIT, "--lambda", "0.5"], 2, out="",
         err="error: kernel integral over t in [0, 1]: tolerance 1e-10 unreachable "
             "on [0.6999999999992639, 0.699999999999271]\n"),
    # x^x on a negative base: the value closure's exp(e * ln b) takes ln of
    # the base first at f(-1), so the error is the power's, not ln's, exit 2
    Case(["verify-identity", "--fn", "x^x", "--a", "-1", "--b", "2", "--lambda", "0.3"], 2,
         err_has="power with variable exponent requires a positive base"),
    # an exponent free of x, taken at every x, exit 0
    Case(["verify-identity", "--fn", "x^(-2)", "--a", "0.5", "--b", "2", "--lambda", "0.3"], 0),
    # 0.5*(a + b) overflows though b - a does not: an input error before f
    # is sampled, where sin(x) would meet inf, exit 2
    Case(["verify-identity", "--fn", "sin(x)", "--a", "1e308", "--b", "1.7e308", "--lambda", "0.5"], 2,
         out="", err="error: midpoint of [1e+308, 1.7e+308] overflows\n"),
    # sin(x)^22 on [0, pi]: the bound is 2.5e-316 and |E| is 0.83, so
    # |E|/bound overflows; the ratio is written null, and Infinity would fail
    # the strict parse
    Case(["sweep", "--fn", "sin(x)^22", "--a", "0", "--b", "3.141592653589793", "--lambda-grid", "0:0:1",
          "--q", "1", "--format", "json", "--out", "sweep.json"], 0, json_file="sweep.json"),
    # each row of a sweep file is written from one template per format: a
    # missing ratio is an empty CSV cell and a JSON null, and JSON numbers
    # are Python's shortest repr (0.0), where CSV's have 17 significant
    # digits (0); the files' exact bytes
    Case([*X_SWEEP, "--out", "sweep.csv"], 0, err="sweep: wrote 6 rows to sweep.csv\n",
         file=("sweep.csv", X_SWEEP_CSV)),
    Case([*X_SWEEP, "--out", "sweep.json", "--format", "json"], 0, err="sweep: wrote 6 rows to sweep.json\n",
         file=("sweep.json", X_SWEEP_JSON)),
    # names are ASCII, so 'π' is an unexpected character at offset 4 (it
    # used to end the request with an AttributeError traceback, exit 1)
    Case(["bound", "--fn", "sin(π*x)", *UNIT, "--lambda", "0", "--q", "1"], 2,
         out="", err="error: unexpected 'π' (offset 4)\n"),
    # 300 nested parentheses: past the nesting limit of 100 levels, an input
    # error before any recursion can exhaust the stack
    Case(["verify-identity", "--fn", "(" * 300 + "x" + ")" * 300, *UNIT, "--lambda", "0.5"], 2),
    # the operators' precedence and the nesting limit across it: x^3^2 is
    # x^9 ('^' groups to the right; (x^3)^2 would print 2.3014); each x*
    # right of x+ is a level deeper: 100 levels pass (exit 0), 101 are an
    # input error (exit 2)
    Case(["bound", "--fn", "x^3^2", *UNIT, "--lambda", "0.5", "--q", "1", "--skip-membership"], 0,
         lines=("bound      = 5.52335",)),
    Case(["bound", "--fn", "x+" + "x*" * 99 + "x", *UNIT, "--lambda", "0.5", "--q", "1", "--skip-membership"], 0,
         lines=("bound      = 759.461",)),
    Case(["bound", "--fn", "x+" + "x*" * 100 + "x", *UNIT, "--lambda", "0.5", "--q", "1", "--skip-membership"], 2,
         err="error: nesting deeper than 100 levels (offset 201)\n"),
]


def _not_strict(token: str) -> None:
    raise ValueError(f"{token} is not strict JSON")


def mismatches(case: Case, code: int, out: str, err: str, directory: str) -> list[str]:
    """One line for each check of case that the command's exit code, stdout,
    stderr and working directory fail; empty where every check holds."""
    wrong = []
    if code != case.code:
        wrong.append(f"exit code: expected {case.code}, got {code}")
    if case.out is not None and out != case.out:
        wrong.append(f"stdout: expected {case.out!r}, got {out!r}")
    wrong += [f"stdout: expected the line {line!r}, got {out!r}" for line in case.lines if line not in out.splitlines()]
    if case.err is not None and err != case.err:
        wrong.append(f"stderr: expected {case.err!r}, got {err!r}")
    if case.err_has is not None and case.err_has not in err:
        wrong.append(f"stderr: expected it to hold {case.err_has!r}, got {err!r}")
    if case.json_file is not None:
        try:
            with open(os.path.join(directory, case.json_file), encoding="utf-8") as f:
                json.load(f, parse_constant=_not_strict)
        except (OSError, ValueError) as exc:
            wrong.append(f"{case.json_file}: expected strict JSON, got {exc}")
    if case.file is not None:
        name, content = case.file
        try:
            with open(os.path.join(directory, name), "rb") as f:
                got = f.read()
        except OSError as exc:
            wrong.append(f"{name}: expected {content!r}, got {exc}")
        else:
            if got != content.encode("utf-8"):
                wrong.append(f"{name}: expected {content!r}, got {got.decode('utf-8', 'replace')!r}")
    return wrong


def main(cases: list[Case] = CASES) -> int:
    """Run each case through the glbounds command on PATH, in a fresh process
    and a fresh temporary directory; print each mismatch and the count of
    cases run. 1 where any case has a mismatch, else 0."""
    failed = 0
    for case in cases:
        with tempfile.TemporaryDirectory() as directory:
            done = subprocess.run(["glbounds", *case.argv], cwd=directory, capture_output=True, encoding="utf-8")
            wrong = mismatches(case, done.returncode, done.stdout, done.stderr, directory)
        if wrong:
            failed += 1
            print(f"mismatch: glbounds {shlex.join(case.argv)}")
            for line in wrong:
                print(f"  {line}")
    print(f"ran {len(cases)} CLI cases, {failed} with mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

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

SQUARE_VI = ["verify-identity", "--fn", "x^2", *UNIT]
SQUARE_BOUND = ["bound", "--fn", "x^2", *UNIT, "--q", "1"]
# a bound input error is the same whether membership is decided or skipped
DECIDED_AND_SKIPPED = ([], ["--skip-membership"])
# errors that a sweep must raise too (tests/test_cli.py's TestSweep)
OVERFLOWING_POWER_ERR = "error: |f''(x)|^q overflows at x=300.0078125: |f''| = 1.9576610342755035e+130, q = 3.0\n"
OVERFLOWING_BOUND_ERR = "error: bound overflows: g_a = 0.0, g_b = 5.439705233633756e+307 on [0.0, 7.0]\n"

# qclass --g sin(x) on [0.000001, 3.141592] at grid 64: the ten largest of
# 3,520 margins, in mirror pairs (x, y, lam) and (y, x, 1 - lam)
SINE_G_64 = """\
samples_checked = 262144
violations      = 3520
max_margin      = 0.90151603063649011
passed          = False
violation: x=0.024544679687500001 y=3.1170483203125001 lambda=0.5078125 lhs=0.99970816111856087 rhs=0.098192130482070761
violation: x=3.1170483203125001 y=0.024544679687500001 lambda=0.4921875 lhs=0.99970816111856087 rhs=0.098192130482070761
violation: x=0.024544679687500001 y=3.1170483203125001 lambda=0.4921875 lhs=0.99970815275004044 rhs=0.098192152131473004
violation: x=3.1170483203125001 y=0.024544679687500001 lambda=0.5078125 lhs=0.99970815275004044 rhs=0.098192152131473004
violation: x=0.024544679687500001 y=3.1170483203125001 lambda=0.5234375 lhs=0.99737444692091082 rhs=0.098384312618002845
violation: x=3.1170483203125001 y=0.024544679687500001 lambda=0.4765625 lhs=0.99737444692091082 rhs=0.098384312618002845
violation: x=0.024544679687500001 y=3.1170483203125001 lambda=0.4765625 lhs=0.99737442183488523 rhs=0.098384377693340852
violation: x=3.1170483203125001 y=0.024544679687500001 lambda=0.5234375 lhs=0.99737442183488523 rhs=0.098384377693340852
violation: x=0.024544679687500001 y=3.1170483203125001 lambda=0.5390625 lhs=0.99271245798846541 rhs=0.098770964631656966
violation: x=3.1170483203125001 y=0.024544679687500001 lambda=0.4609375 lhs=0.99271245798846541 rhs=0.098770964631656966
"""

# the built-in catalogue as corpus prints it: one JSON object per entry
CORPUS_JSON = json.dumps([
    {"name": name, "expression": fn, "interval": [a, b], "membership": membership, "note": note}
    for name, fn, a, b, membership, note in (
        ("quadratic", "x^2", 0.0, 1.0, "Certified", "constant second derivative; exact-bound algebra case"),
        ("quartic", "x^4", 0.0, 1.0, "Certified", "nonnegative convex second derivative 12 x^2"),
        ("exponential", "exp(x)", 0.0, 1.0, "Certified", "monotone convex second derivative; generic case"),
        ("cosh", "(exp(x)+exp(-x))/2", -1.0, 1.0, "Certified",
         "even function on a symmetric interval; exercises symmetry invariants"),
        ("reciprocal", "1/(x+2)", 0.0, 1.0, "Expect-Pass",
         "positive decreasing second derivative 2/(x+2)^3; passes the grid scan"),
        ("sine", "sin(x)", 1e-06, 3.141592, "Expect-Fail",
         "|f''| = sin vanishes at both ends, so combining near-endpoint points with an interior one violates the "
         "defining inequality; interval starts at 1e-6 to keep the open-interval reading unambiguous"),
    )
], indent=2) + "\n"

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
    # lambda out of range: every command that takes one --lambda checks it
    # with the package's one lambda check, after the expression and the
    # interval, wherever --lambda stands: an input error with one stderr
    # line; -0.0 is in range
    *(Case([*argv, "--lambda", lam], 2, out="", err=f"error: lambda must be in [0, 1], got {float(lam)!r}\n")
      for argv in (SQUARE_VI, ["coeffs"], SQUARE_BOUND, [*SQUARE_BOUND, "--skip-membership"])
      for lam in ("1.5", "nan")),
    Case(["bound", "--fn", "x^2", *UNIT, "--lambda", "1.5", "--q", "1"], 2,
         out="", err="error: lambda must be in [0, 1], got 1.5\n"),
    Case([*SQUARE_VI, "--lambda", "-0.0"], 0),
    # the pole of 1/x leaves one enclosure cell unbounded; the scan fails, exit 1
    Case(["qclass", "--g", "1/x", "--a", "-1", "--b", "1"], 1),
    # at grid 31, 8 of the 31 lambdas have an exact mirror: the walk runs
    # both paired and lone passes, and reports 1,698 violations, exit 1
    Case(["qclass", "--fn", "sin(x)", "--q", "2", *SINE, "--grid", "31"], 1),
    # sine at q = 2 on its catalogue interval, grid 64: a triple whose own
    # enclosure cell proves it can neither violate nor raise max_margin,
    # or proves it a violation below max_margin, reads no g, but where it
    # may be among the ten worst kept, so the scan evaluates g at 439 points
    # (5,378 with every violation kept, 10,177 with every point of each
    # pair it visits read); the report is unchanged, exit 1
    Case(["qclass", "--fn", "sin(x)", "--q", "2", *SINE], 1,
         lines=("violations      = 14852", "max_margin      = 0.9970065722671122")),
    # at 1e8 the 64 grid points of a 1.5e-7 wide interval are 11 floats, and
    # the scan runs on those 11: it meets each of the 7,755 distinct
    # violations once (262,208 times on all 64 points); exit 1
    Case(["qclass", "--g", "0-1", "--a", "100000000", "--b", "100000000.00000015"], 1,
         lines=("violations      = 7755",)),
    # at grid 9 the walk meets (x, x, 1/2) at x's diagonal, so the check for
    # negative values counts nothing of its own, and each counts once: 356, exit 1
    Case(["qclass", "--g", "x-0.5", *UNIT, "--grid", "9"], 1, lines=("violations      = 356",)),
    # the bump at MAX_GRID_N: 3,947,320 violations, counted as the walk meets
    # them with only the ten worst kept (the scan once held every one, 469 MB
    # of peak RSS against about 21 MB); exit 1
    Case(["qclass", "--g", "exp(-100*(x-0.5)^2)", *UNIT, "--grid", "256"], 1,
         lines=("violations      = 3947320",)),
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
    # f'' = -1e616*sin(1e308*x) overflows at a: an input error naming the
    # point, decided or skipped, the weight's own error (it used to be
    # BoundInput's "g_a must be finite and >= 0, got inf")
    *(Case(["bound", "--fn", "sin(1e308*x)", "--a", "0.5", "--b", "1.5", "--lambda", "0.3", "--q", "1.5", *extra], 2,
           out="", err="error: |f''(x)| is not finite at x=0.5: inf\n") for extra in DECIDED_AND_SKIPPED),
    # endpoint weights that overflow at q, membership skipped: e^1000 passes
    # the float range, so the bracket takes the powers of g/max(g_a, g_b)
    # (it used to exit 2 with "g_b^q overflows"); decided, the decision's
    # tolerance is absolute, so |f''|^q still overflows in its scan, exit 2
    Case(["bound", "--fn", "exp(x)", *UNIT, "--lambda", "0.5", "--q", "1000", "--skip-membership"], 0,
         lines=("bound      = 0.0566905",), err=""),
    Case(["bound", "--fn", "exp(x)", *UNIT, "--lambda", "0.5", "--q", "1000"], 2, out="",
         err="error: |f''(x)|^q overflows at x=0.7109375: |f''| = 2.0358990195749382, q = 1000.0\n"),
    # w^2/2 of a width of 1e-170 underflows to 0 and the bracket of the
    # weights 1.7e308 at q = 100 overflows: 0 * inf is a nan bound, an input
    # error (it used to print bound = nan and exit 0)
    Case(["bound", "--fn", "8.5e307*x^2", "--a", "0", "--b", "1e-170", "--lambda", "1", "--q", "100",
          "--skip-membership"], 2, out="",
         err="error: bound is nan (0 times inf): g_a = 1.7e+308, g_b = 1.7e+308 on [0.0, 1e-170]\n"),
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
    # f'' = 1/(x - c) has its pole at t = 1 - c: at 0.7, no bisection point;
    # at 0.75, a bisection midpoint, where a node lands on it; at 1/2, the
    # cut. A panel bisected past its nodes once accepted the pole at 0.7.
    # None answers, at any lambda: at 0.7 the kernel side's panel next to
    # the pole cannot be split (its digits come from f'' = 1/(x - 0.3),
    # whose jet multiplies ln by 0, so from no libm call), and at 0.75 and
    # 1/2 a sample lands on the pole, where ln meets 0; exit 2
    *(Case(["verify-identity", "--fn", "(x-0.3)*ln(abs(x-0.3))", *UNIT, "--lambda", lam], 2, out="",
           err=f"error: kernel integral over t in [0, 1]: tolerance 1e-10 unreachable on {panel}\n")
      for lam, panel in (("0", "[0.6999999999991573, 0.6999999999991644]"),
                         ("0.3333333333333333", "[0.6999999999995907, 0.6999999999995978]"),
                         ("0.75", "[0.6999999999990294, 0.6999999999990365]"))),
    *(Case(["verify-identity", "--fn", f"(x-{c})*ln(abs(x-{c}))", *UNIT, "--lambda", lam], 2, out="",
           err="error: ln of non-positive value 0.0\n")
      for c in ("0.25", "0.5") for lam in ("0", "0.3333333333333333", "0.75")),
    # x^x on a negative base: the value closure's exp(e * ln b) takes ln of
    # the base first at f(-1), so the error is the power's, not ln's, exit 2
    Case(["verify-identity", "--fn", "x^x", "--a", "-1", "--b", "2", "--lambda", "0.3"], 2,
         err_has="power with variable exponent requires a positive base"),
    # an exponent free of x, taken at every x, exit 0
    Case(["verify-identity", "--fn", "x^(-2)", "--a", "0.5", "--b", "2", "--lambda", "0.3"], 0),
    # 0.5*(a + b) overflows though b - a does not; whatever f, that is the
    # error, before f is sampled (f used to be sampled at a and b first, and
    # at inf for sin), exit 2
    *(Case(["verify-identity", "--fn", fn, "--a", "1e308", "--b", "1.7e308", "--lambda", "0.5"], 2,
           out="", err="error: midpoint of [1e+308, 1.7e+308] overflows\n") for fn in ("1", "sin(x)", "x^2", "exp(x)")),
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
    # README's first example: both sides and their difference, exit 0
    Case([*SQUARE_VI, "--lambda", "0.3"], 0, out="lhs      = 0.00833333\nrhs      = 0.00833333\nabs_diff = 7.80626e-17\n"),
    # input errors: a reversed interval, ln of a negative value, and '**',
    # which is no operator; exit 2
    Case(["verify-identity", "--fn", "x^2", "--a", "1", "--b", "0", "--lambda", "0.3"], 2,
         out="", err="error: interval requires a < b, got [1.0, 0.0]\n"),
    Case(["verify-identity", "--fn", "ln(x)", "--a", "-1", "--b", "1", "--lambda", "0.3"], 2,
         out="", err="error: ln of non-positive value -1.0\n"),
    Case(["verify-identity", "--fn", "2**x", *UNIT, "--lambda", "0.3"], 2, out="", err="error: unexpected '*' (offset 2)\n"),
    # a tolerance below the rounding of both sides is a property fail, exit 1
    Case(["verify-identity", "--fn", "exp(x)", *UNIT, "--lambda", "0.3", "--tol", "1e-18"], 1, err=""),
    # --tol must be finite and >= 0: nan, -1 and inf are input errors
    # (abs_diff is about 7.8e-17 here, and nan and -1 used to read as a
    # property fail); 0 is a tolerance, which E of x, exactly 0, meets
    *(Case([*SQUARE_VI, "--lambda", "0.3", "--tol", tol], 2, out="",
           err=f"error: tol must be finite and >= 0, got {float(tol)!r}\n") for tol in ("nan", "-1", "inf")),
    Case(["verify-identity", "--fn", "x", *UNIT, "--lambda", "0.3", "--tol", "0"], 0,
         out="lhs      = 0\nrhs      = 0\nabs_diff = 0\n"),
    # math.sin(inf) used to end the request with "error: math domain error"
    Case(["verify-identity", "--fn", "sin(1e300*1e300*x)", "--a", "0.5", "--b", "2", "--lambda", "0.3"], 2,
         out="", err="error: sin of infinite argument inf\n"),
    # b - a = inf: verify-identity used to print nan for both sides and exit
    # 1, and bound lhs_abs = nan, bound = nan and CheckedPass, exit 0
    Case(["verify-identity", "--fn", "1", "--a=-1e308", "--b", "1e308", "--lambda", "0.3"], 2,
         out="", err="error: interval width overflows, got [-1e+308, 1e+308]\n"),
    Case(["bound", "--fn", "1", "--a=-1e308", "--b", "1e308", "--lambda", "0.3", "--q", "1"], 2,
         out="", err="error: interval width overflows, got [-1e+308, 1e+308]\n"),
    # int_0^1e10 1e300 = 1e310: verify-identity used to print lhs = inf and
    # exit 1, and bound, decided or skipped, lhs_abs = inf
    Case(["verify-identity", "--fn", "1e300", "--a", "0", "--b", "1e10", "--lambda", "0.5"], 2,
         out="", err="error: integral over [0.0, 10000000000.0] overflows: inf\n"),
    *(Case(["bound", "--fn", "1e300", "--a", "0", "--b", "1e10", "--lambda", "0.5", "--q", "1", *extra], 2,
           out="", err="error: integral over [0.0, 10000000000.0] overflows: inf\n") for extra in DECIDED_AND_SKIPPED),
    # f(a) + f(b) = 2e308 overflows, in the rule and in E alike
    Case(["verify-identity", "--fn", "1e308", *UNIT, "--lambda", "0.5"], 2,
         out="", err="error: Gauss-Kronrod estimate is not finite on [0.0, 1.0]\n"),
    # Simpson's fa + 4*fm + fb overflowed here (exit 2); the integral, 3e307,
    # and every sum in E are finite, and E is exactly 0
    Case(["verify-identity", "--fn", "3e307", *UNIT, "--lambda", "0.5"], 0,
         out="lhs      = 0\nrhs      = 0\nabs_diff = 0\n", err=""),
    # coeffs as text; the regimes meet at lambda = 1/2, which is Low's
    Case(["coeffs", "--lambda", "0.25"], 0,
         out="lambda = 0.25\nregime = Low\nM      = 0.015625\nA      = 0.0625\nB      = 0.0258373\nC_q1   = 0.0883373\n"),
    Case(["coeffs", "--lambda", "0.5"], 0, lines=("regime = Low",)),
    # README's skipped bound example, and the same request decided
    Case(["bound", "--fn", "x^2", *UNIT, "--lambda", "0", "--q", "1"], 0,
         lines=("lhs_abs    = 0.0833333", "bound      = 0.386294", "membership = CheckedPass")),
    Case(["bound", "--fn", "x^2", *UNIT, "--lambda", "0", "--q", "1", "--skip-membership"], 0,
         lines=("membership = Unchecked",)),
    # |f''| is about 1e-5 at both ends, and its q-th power underflows to 0:
    # the bound read 0, the ratio undefined, and CheckedPass exited 1; the
    # bound now keeps its digits, above lhs_abs
    Case(["bound", "--fn", "0.00001*x^2/2", *UNIT, "--lambda", "0.5", "--q", "100"], 0,
         out="lhs_abs    = 2.08333e-07\nbound      = 2.12535e-07\nratio      = 0.980231\nregime     = Low\n"
             "membership = CheckedPass\n"),
    Case(["bound", "--fn", "0.00001*exp(x)", *UNIT, "--lambda", "0.5", "--q", "80"], 0,
         out="lhs_abs    = 3.56493e-07\nbound      = 5.73824e-07\nratio      = 0.621258\nregime     = Low\n"
             "membership = CheckedPass\n"),
    # the exponent is free of x and evaluated at every x; it used to end the
    # request with "error: math domain error"
    *(Case(["bound", "--fn", f"{base}^{name}(1e300*1e300)", "--a", "0.5", "--b", "2", "--lambda", "0.3", "--q", "2"], 2,
           out="", err=f"error: {name} of infinite argument inf\n") for base, name in (("x", "sin"), ("(x+1)", "cos"))),
    # |f''|^3 of exp passes 1.8e308 at the first grid point, 300 + 1/128: the
    # membership decision raises the error of its scan
    Case(["bound", "--fn", "exp(x)", "--a", "300", "--b", "301", "--lambda", "0", "--q", "3"], 2,
         out="", err=OVERFLOWING_POWER_ERR),
    # 0.5*(a + b) overflows though b - a does not; the panel used to read
    # [1e+308, inf]. w^2/2 overflows too, and the bound is taken before the
    # integral, so that is the error reported (verify-identity reports the
    # midpoint's)
    *(Case(["bound", "--fn", "1", "--a", "1e308", "--b", "1.7e308", "--lambda", "0.5", "--q", "1", *extra], 2,
           out="", err="error: w^2/2 overflows: the width of [1e+308, 1.7e+308] is 6.999999999999999e+307\n")
      for extra in DECIDED_AND_SKIPPED),
    # w^2/2 = inf times a zero bracket used to print bound = nan and exit 0
    *(Case(["bound", "--fn", "1", "--a", "0", "--b", "1e200", "--lambda", "0.5", "--q", "1", *extra], 2,
           out="", err="error: w^2/2 overflows: the width of [0.0, 1e+200] is 1e+200\n") for extra in DECIDED_AND_SKIPPED),
    # w^2/2 = 24.5 and |f''(7)| = 5.4e307 are finite, their product is not; it
    # used to print bound = inf, ratio = 0 and exit 0
    *(Case(["bound", "--fn", "1e304*sin(100*x)", "--a", "0", "--b", "7", "--lambda", "0", "--q", "1", *extra], 2,
           out="", err=OVERFLOWING_BOUND_ERR) for extra in DECIDED_AND_SKIPPED),
    # w^2/2 = 2.2e307 is finite; f'' = 0, so the bound is exactly 0
    Case(["bound", "--fn", "2^511", "--a", "0", "--b", "6.703903964971299e+153", "--lambda", "0.5", "--q", "1"], 0,
         lines=("lhs_abs    = 0", "bound      = 0")),
    # scans that pass: a constant g, and |f''|^2 of exp, which is convex
    Case(["qclass", "--g", "1", *UNIT, "--grid", "8"], 0),
    Case(["qclass", "--fn", "exp(x)", "--q", "2", *UNIT, "--grid", "8"], 0),
    # sine fails: the count, the largest margin and the ten worst, exit 1
    Case(["qclass", "--g", "sin(x)", *SINE, "--grid", "64"], 1, out=SINE_G_64),
    # inf - inf: every sample is nan, which no comparison can flag as a
    # violation; an input error naming the first grid point, exit 2
    Case(["qclass", "--g", "(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)", "--a", "0.5", "--b", "1", "--grid", "8"], 2,
         out="", err="error: g is not finite at x=0.53125: nan\n"),
    # width*(i + 0.5) overflows above about 2.8e306 at grid 64: the scan used
    # to sample g at x = inf, and pass a constant there
    *(Case(["qclass", *source, "--a", "0", "--b", b], 2, out="",
           err=f"error: the 64 grid points of [0.0, {float(b)!r}] overflow the float range\n")
      for source, b in ((["--g", "x"], "5e306"), (["--g", "1"], "1e307"), (["--fn", "x^2", "--q", "1"], "5e306"))),
    # qclass reads exactly one of --g and --fn, and --q with --fn alone
    *(Case(["qclass", *source, *UNIT], 2, out="", err=err) for source, err in (
        (["--g", "1", "--fn", "x^2", "--q", "1"], "error: pass exactly one of --g or --fn\n"),
        ([], "error: pass exactly one of --g or --fn\n"),
        (["--g", "1", "--q", "1"], "error: --q only applies to --fn\n"),
        (["--fn", "x^2"], "error: --fn requires --q\n"),
    )),
    # every margin is below inf, so sin used to print passed = True
    Case(["qclass", "--g", "sin(x)", *SINE, "--grid", "8", "--tol", "inf"], 2,
         out="", err="error: tol must be finite and positive, got inf\n"),
    Case(["corpus"], 0, out=CORPUS_JSON),
    # an unknown command is argparse's usage error, exit 2
    Case(["no-such-command"], 2, err_has="invalid choice"),
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

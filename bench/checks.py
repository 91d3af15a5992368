"""Scoring of one request's output against the independent reference.

``score`` returns None when the output is right and a short reason when it is
not. A failure is a wrong verdict (exit code), an output that fails its
check, or an error exit where an answer is expected. The identity always
holds; the bound holds whenever |f''|^q is a class member.

Printed numbers are compared at their printed precision: 6 significant digits
for human summaries, 17 for sweep files. An absolute floor equal to the
identity tolerance (``--tol``, 1e-8 by default) is what the program claims for
E itself, so rounding noise below it is not scored.
"""

from __future__ import annotations

import csv
import io
import json
import math

import oracle
from glbounds.bounds import BoundInput, corollary_bound_q1, theorem_bound
from glbounds.quadrature import Interval

HUMAN_REL = 1e-5  # 6 printed significant digits
FILE_REL = 1e-9  # 17 printed digits, less the quadrature's own tolerance
BOUND_REL = 1e-12
ABS_FLOOR = 1e-8
SWEEP_HEADER = "lambda,q,regime,lhs_abs,bound,ratio,membership"


def options(argv: list[str]) -> tuple[str, dict[str, str]]:
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = ""
            i += 1
    return argv[0], opts


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key.strip(), value.strip())
    return out


def _regime(lam: float) -> str:
    return "Low" if lam <= 0.5 else "High"


def _member(fam: oracle.Family, a: float, b: float, q: float | None) -> bool:
    known = fam.g_member(a, b) if q is None else fam.fn_member(a, b, q)
    if known is None:
        raise LookupError(f"no membership proof for {fam.name} on [{a!r}, {b!r}], q={q!r}")
    return known


def _bound(fam: oracle.Family, lam: float, q: float, a: float, b: float) -> float:
    g_a = oracle.abs_second_derivative(fam, a)
    g_b = oracle.abs_second_derivative(fam, b)
    return oracle.theorem_bound(lam, q, a, b, g_a, g_b)


def _verify_identity(opts, rc, stdout, stderr, out_text):
    if rc != 0:
        return f"exit {rc}, identity holds"
    fam = oracle.BY_EXPRESSION[opts["fn"]]
    a, b, lam = float(opts["a"]), float(opts["b"]), float(opts["lambda"])
    tol = float(opts.get("tol", ABS_FLOOR))
    v = _fields(stdout)
    lhs, rhs, diff = float(v["lhs"]), float(v["rhs"]), float(v["abs_diff"])
    exact = oracle.error_functional(fam, lam, a, b)
    if not oracle.close(lhs, exact, HUMAN_REL, tol):
        return "lhs"
    if not oracle.close(rhs, exact, HUMAN_REL, tol):
        return "rhs"
    if not oracle.close(diff, abs(lhs - rhs), 0.0, HUMAN_REL * (abs(lhs) + abs(rhs))):
        return "abs_diff"
    return None


def _bound_cmd(opts, rc, stdout, stderr, out_text):
    fam = oracle.BY_EXPRESSION[opts["fn"]]
    a, b = float(opts["a"]), float(opts["b"])
    lam, q = float(opts["lambda"]), float(opts["q"])
    if "skip-membership" in opts:
        want_status, want_rc = "Unchecked", 0
    elif _member(fam, a, b, q):
        want_status, want_rc = "CheckedPass", 0
    else:
        want_status, want_rc = "CheckedFail", 3
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    v = _fields(stdout)
    lhs_abs, bound = float(v["lhs_abs"]), float(v["bound"])
    exact = abs(oracle.error_functional(fam, lam, a, b))
    if not oracle.close(lhs_abs, exact, HUMAN_REL, ABS_FLOOR):
        return "lhs_abs"
    if not oracle.close(bound, _bound(fam, lam, q, a, b), HUMAN_REL, 0.0):
        return "bound"
    if bound == 0.0:
        if v["ratio"] != "undefined":
            return "ratio"
    elif not oracle.close(float(v["ratio"]), lhs_abs / bound, 3 * HUMAN_REL, 0.0):
        return "ratio"
    if v["regime"] != _regime(lam) or v["membership"] != want_status:
        return "regime/membership"
    return None


def _coeffs(opts, rc, stdout, stderr, out_text):
    if rc != 0:
        return f"exit {rc}"
    lam = float(opts["lambda"])
    c = oracle.coefficients(lam)
    if "json" in opts:
        got = json.loads(stdout)
        rel, regime = BOUND_REL, got["regime"]
        pairs = [(got["M"], c.m), (got["A"], c.a), (got["B"], c.b), (got["C_q1"], c.c_q1)]
    else:
        v = _fields(stdout)
        rel, regime = HUMAN_REL, v["regime"]
        pairs = [(float(v["M"]), c.m), (float(v["A"]), c.a), (float(v["B"]), c.b),
                 (float(v["C_q1"]), c.c_q1)]
    if regime != c.regime or not all(oracle.close(g, e, rel, 1e-15) for g, e in pairs):
        return "coefficients"
    return None


def _qclass(opts, rc, stdout, stderr, out_text):
    fn = opts.get("fn") or opts["g"]
    fam = oracle.BY_EXPRESSION[fn]
    a, b = float(opts["a"]), float(opts["b"])
    member = _member(fam, a, b, float(opts["q"]) if "fn" in opts else None)
    if rc != (0 if member else 1):
        return f"exit {rc}, member={member}"
    v = _fields(stdout)
    grid = int(opts.get("grid", "64"))
    violations = int(v["violations"])
    if int(v["samples_checked"]) != grid**3 or v["passed"] != str(member):
        return "report"
    if (violations == 0) != member or not math.isfinite(float(v["max_margin"])):
        return "violations"
    return None


def _sweep_rows(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise ValueError("bad CSV layout")
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "lambda": float(r["lambda"]), "q": float(r["q"]), "regime": r["regime"],
                "lhs_abs": float(r["lhs_abs"]), "bound": float(r["bound"]),
                "ratio": None if r["ratio"] == "" else float(r["ratio"]),
                "membership": r["membership"],
            }
        )
    return rows


def _sweep(opts, rc, stdout, stderr, out_text):
    if rc != 0:
        return f"exit {rc}"
    fam = oracle.BY_EXPRESSION[opts["fn"]]
    a, b = float(opts["a"]), float(opts["b"])
    start, end, step = (float(p) for p in opts["lambda-grid"].split(":"))
    count = int((end - start) / step + 1e-9)
    lams = [min(max(start + i * step, 0.0), 1.0) for i in range(count + 1)]
    qs = sorted(float(p) for p in opts["q"].split(","))
    try:
        rows = _sweep_rows(opts.get("format", "csv"), out_text)
    except (ValueError, KeyError):
        return "file layout"
    want = [(lam, q) for lam in lams for q in qs]
    if [(r["lambda"], r["q"]) for r in rows] != want:
        return "grid"
    if stderr.strip() != f"sweep: wrote {len(want)} rows to {opts['out']}":
        return "stderr"
    iv = Interval(a, b)
    g_a = oracle.abs_second_derivative(fam, a)
    g_b = oracle.abs_second_derivative(fam, b)
    status = {q: "CheckedPass" if _member(fam, a, b, q) else "CheckedFail" for q in qs}
    for r in rows:
        lam, q, bound = r["lambda"], r["q"], r["bound"]
        exact = abs(oracle.error_functional(fam, lam, a, b))
        if not oracle.close(r["lhs_abs"], exact, FILE_REL, ABS_FLOOR):
            return "lhs_abs"
        refs = [oracle.theorem_bound(lam, q, a, b, g_a, g_b),
                theorem_bound(BoundInput(iv, lam, q, g_a, g_b))]
        if q == 1.0:
            refs.append(corollary_bound_q1(iv, lam, g_a, g_b))
        if not all(oracle.close(bound, ref, BOUND_REL, 0.0) for ref in refs):
            return "bound"
        want_ratio = None if bound == 0.0 else r["lhs_abs"] / bound
        if r["ratio"] != want_ratio:
            return "ratio"
        if r["regime"] != _regime(lam) or r["membership"] != status[q]:
            return "regime/membership"
    return None


_SCORERS = {
    "verify-identity": _verify_identity,
    "bound": _bound_cmd,
    "coeffs": _coeffs,
    "qclass": _qclass,
    "sweep": _sweep,
}


def score(argv: list[str], rc, stdout: str, stderr: str, out_text: str | None) -> str | None:
    """None when the request's output is right, else the reason it failed.

    A crash (rc None) or unparseable output is a failure of the program; a
    request the reference cannot judge raises LookupError, a benchmark bug.
    """
    command, opts = options(argv)
    if rc is None:
        return "crash"
    try:
        return _SCORERS[command](opts, rc, stdout, stderr, out_text)
    except (KeyError, ValueError, TypeError, json.JSONDecodeError):
        return "unparseable output"

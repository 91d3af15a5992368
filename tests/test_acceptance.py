"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with -v for one line per criterion, or -s to see the printed summaries.
"""

import math
import random

import pytest

from glbounds import (
    BoundInput,
    ExpectedMembership,
    Interval,
    Proposition,
    coefficient_set,
    corpus_entries,
    evaluate,
    evaluate_bound_report,
    evaluate_jet2,
    integrate_piecewise,
    lhs_functional,
    parse,
    proposition_bound,
    theorem_bound,
    verify_identity,
)
from glbounds.cli import main
from glbounds.coefficients import _high, _low
from oracles import hermite_hadamard_check, second_derivative_fd


def _report(line):
    print(f"[acceptance] {line}: PASS")


def _entry(name):
    return next(e for e in corpus_entries() if e.name == name)


def test_c01_identity_suite():
    names = ("quadratic", "quartic", "exponential", "cosh", "reciprocal")
    cases = 0
    for name in names:
        entry = _entry(name)
        e = parse(entry.expression)
        for i in range(11):
            rep = verify_identity(e, entry.interval, i / 10.0)
            assert rep.abs_diff <= 1e-8, f"{name} lambda={i / 10.0}: diff={rep.abs_diff}"
            cases += 1
    assert cases == 55
    _report("C1 identity holds to 1e-8 across 55 cases")


def test_c02_coefficient_oracle_suite():
    low_half = Interval(0.0, 0.5)
    high_half = Interval(0.5, 1.0)
    for i in range(101):
        lam = i / 100.0
        cuts = [lam, 0.5, 1.0 - lam]

        def first_abs(t):
            return abs(t * (t - lam))

        def second_abs(t):
            return abs((1.0 - t) * (1.0 - lam - t))

        def first_over_t(t):
            return lam if t == 0.0 else abs(t * (t - lam)) / t

        def second_over_1mt(t):
            return lam if t == 1.0 else abs((1.0 - t) * (1.0 - lam - t)) / (1.0 - t)

        def first_over_1mt(t):
            return abs(t * (t - lam)) / (1.0 - t)

        def second_over_t(t):
            return abs((1.0 - t) * (1.0 - lam - t)) / t

        assert abs(coefficient_set(lam).m - integrate_piecewise(first_abs, low_half, cuts)) <= 1e-10
        assert abs(coefficient_set(lam).m - integrate_piecewise(second_abs, high_half, cuts)) <= 1e-10
        assert abs(coefficient_set(lam).a_coef - integrate_piecewise(first_over_t, low_half, cuts)) <= 1e-10
        assert abs(coefficient_set(lam).a_coef - integrate_piecewise(second_over_1mt, high_half, cuts)) <= 1e-10
        assert abs(coefficient_set(lam).b_coef - integrate_piecewise(first_over_1mt, low_half, cuts)) <= 1e-10
        assert abs(coefficient_set(lam).b_coef - integrate_piecewise(second_over_t, high_half, cuts)) <= 1e-10
    _report("C2 closed forms match both half-integral oracles to 1e-10 at 101 grid points")


def test_c03_anchor_constants():
    third = 1.0 / 3.0
    assert abs(coefficient_set(0.0).m - 1.0 / 24.0) <= 1e-12
    assert abs(coefficient_set(third).m - 1.0 / 81.0) <= 1e-12
    assert abs(coefficient_set(1.0).m - 1.0 / 12.0) <= 1e-12
    assert abs(coefficient_set(0.0).a_coef - 1.0 / 8.0) <= 1e-12
    assert abs(coefficient_set(0.0).b_coef - (math.log(2.0) - 5.0 / 8.0)) <= 1e-12
    assert abs(coefficient_set(1.0).a_coef - 3.0 / 8.0) <= 1e-12
    assert abs(coefficient_set(1.0).b_coef - 1.0 / 8.0) <= 1e-12
    assert abs(coefficient_set(third).a_coef - 5.0 / 72.0) <= 1e-12
    assert abs(coefficient_set(third).b_coef - ((2.0 / 3.0) * math.log(8.0 / 9.0) + 7.0 / 72.0)) <= 1e-12
    assert abs(coefficient_set(0.0).c_q1 - (math.log(2.0) - 0.5)) <= 1e-12
    assert abs(coefficient_set(0.0).c_q1 - 0.5 * math.log(4.0 / math.e)) <= 1e-12
    assert abs(coefficient_set(1.0).c_q1 - 0.5) <= 1e-12
    assert abs(coefficient_set(0.5).c_q1 - 0.5 * (1.0 + math.log(0.5))) <= 1e-12
    _report("C3 anchor constants match to 1e-12")


def test_c04_branch_continuity_at_half():
    m, a, b, c = _low(0.5)
    for low, high in zip((m, a, b, c), _high(0.5), strict=True):
        assert abs(low - high) <= 1e-12
    assert abs(m - 1.0 / 48.0) <= 1e-12
    assert abs(a - 1.0 / 8.0) <= 1e-12
    assert abs(b - (3.0 / 8.0 + 0.5 * math.log(0.5))) <= 1e-12
    assert abs(c - (0.5 - 0.5 * math.log(2.0))) <= 1e-12
    _report("C4 regime branches agree at lambda = 1/2 to 1e-12")


def test_c05_main_inequality_suite():
    lams = [i / 20.0 for i in range(21)]
    qs = (1.0, 1.5, 2.0, 3.0)
    cells = 0
    for entry in corpus_entries():
        if entry.membership is ExpectedMembership.EXPECT_FAIL:
            continue
        e = parse(entry.expression)
        iv = entry.interval
        g_a = abs(evaluate_jet2(e, iv.a)[2])
        g_b = abs(evaluate_jet2(e, iv.b)[2])
        for lam in lams:
            lhs_abs = abs(lhs_functional(e, iv, lam))
            for q in qs:
                bound = theorem_bound(BoundInput(iv, lam, q, g_a, g_b))
                assert lhs_abs <= bound + 1e-12, f"{entry.name} lambda={lam} q={q}"
                cells += 1
    assert cells >= 420
    _report(f"C5 main inequality holds in all {cells} cells")


def test_c06_worked_numbers():
    e = parse("x^2")
    iv = Interval(0.0, 1.0)
    rep = evaluate_bound_report(e, iv, 0.0, 1.0)
    assert rep.q_membership.passed
    assert rep.lhs_abs == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert rep.bound == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
    assert rep.ratio == pytest.approx((1.0 / 12.0) / (2.0 * math.log(2.0) - 1.0), abs=1e-6)
    simpson = evaluate_bound_report(e, iv, 1.0 / 3.0, 1.0)
    assert simpson.q_membership.passed
    assert simpson.lhs_abs <= 1e-10
    _report("C6 worked numbers reproduce (1/12, 2 ln 2 - 1, 0.21572...; Simpson exact)")


def test_c07_specialization_coherence():
    iv = Interval(0.0, 1.0)
    data = [(2.0, 2.0), (1.0, 0.0), (0.4, 2.6)]
    cases = [
        (Proposition.MIDPOINT_Q1, 0.0, (1.0,)),
        (Proposition.TRAPEZOID_Q1, 1.0, (1.0,)),
        (Proposition.SIMPSON_Q1, 1.0 / 3.0, (1.0,)),
        (Proposition.MIDTRAP_Q1, 0.5, (1.0,)),
        (Proposition.MIDPOINT_PM, 0.0, (1.0, 2.0, 3.0)),
        (Proposition.TRAPEZOID_PM, 1.0, (1.0, 2.0, 3.0)),
        (Proposition.SIMPSON_PM, 1.0 / 3.0, (1.0, 2.0, 3.0)),
    ]
    for which, lam, qs in cases:
        for q in qs:
            for g_a, g_b in data:
                special = proposition_bound(which, iv, q, g_a, g_b)
                general = theorem_bound(BoundInput(iv, lam, q, g_a, g_b))
                assert abs(special - general) <= 1e-12, (which, q, g_a, g_b)
    _report("C7 all seven specializations agree with the general path to 1e-12")


def test_c08_membership_checker(membership_report):
    for entry in corpus_entries():
        if entry.membership is ExpectedMembership.EXPECT_FAIL:
            continue
        assert membership_report(entry.name, 1.0).passed, entry.name
    sine = membership_report("sine", 1.0)
    assert not sine.passed
    worst = max(sine.violations, key=lambda v: v.margin)
    e = parse("sin(x)")
    lhs = evaluate(e, worst.lam * worst.x + (1.0 - worst.lam) * worst.y)
    rhs = evaluate(e, worst.x) / worst.lam + evaluate(e, worst.y) / (1.0 - worst.lam)
    assert lhs - rhs > 0.5
    # the violating triple combines both near-endpoint samples through the middle
    assert worst.x < 0.1 and worst.y > 3.0 and 0.4 < worst.lam < 0.6
    _report("C8 members pass at grid 64; sine fails with re-evaluated margin > 0.5")


def test_c09_jet_vs_finite_differences():
    rng = random.Random(424242)
    h = 1e-4
    for entry in corpus_entries():
        e = parse(entry.expression)
        a, b = entry.interval.a, entry.interval.b
        for _ in range(100):
            x = rng.uniform(a + 2.0 * h, b - 2.0 * h)
            d2 = evaluate_jet2(e, x)[2]
            fd = second_derivative_fd(lambda t: evaluate(e, t), x, h)
            assert abs(d2 - fd) / max(1.0, abs(d2)) <= 1e-6, f"{entry.name} at x={x}"
    _report("C9 jet second derivatives match finite differences to 1e-6 relative")


def test_c10_hermite_hadamard():
    convex = ("quadratic", "quartic", "exponential", "cosh", "reciprocal")
    for name in convex:
        entry = _entry(name)
        rep = hermite_hadamard_check(parse(entry.expression), entry.interval)
        assert rep.holds, name
    rep = hermite_hadamard_check(parse("exp(x)"), Interval(0.0, 1.0))
    assert rep.lower == pytest.approx(1.648721, abs=1e-6)
    assert rep.mid == pytest.approx(1.718281, abs=1e-6)
    assert rep.upper == pytest.approx(1.859140, abs=1e-6)
    _report("C10 double inequality holds for all convex entries")


def test_c11_cli_sweep_determinism(tmp_path):
    argv_for = lambda name: [
        "sweep",
        "--fn",
        "x^2",
        "--a",
        "0",
        "--b",
        "1",
        "--lambda-grid",
        "0:1:0.25",
        "--q",
        "1,2",
        "--out",
        str(tmp_path / name),
    ]
    assert main(argv_for("one.csv")) == 0
    assert main(argv_for("two.csv")) == 0
    one = (tmp_path / "one.csv").read_bytes()
    assert one == (tmp_path / "two.csv").read_bytes()
    lines = one.decode().splitlines()
    assert lines[0] == "lambda,q,regime,lhs_abs,bound,ratio,membership"
    assert len(lines) == 11
    _report("C11 sweep emits 10 rows with the exact header, byte-identical across runs")

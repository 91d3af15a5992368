import math
from collections import Counter

import pytest

from glbounds import (
    Interval,
    QClassReport,
    Violation,
    check_godunova_levin,
    corpus_entries,
    evaluate,
    evaluate_jet2,
    membership_for_bound,
    nonneg_convex_witness,
    parse,
)

SINE_INTERVAL = Interval(0.000001, 3.141592)
COMPOSITE = "exp(x)*sin(x)+1/(x+2)"


def reference_scan(g, iv, grid_n=64, tol=1e-12):
    """The plain triple loop: g called at every triple, nothing shared."""
    n = grid_n
    width = iv.width
    xs = [iv.a + width * (i + 0.5) / n for i in range(n)]
    lams = [(k + 0.5) / n for k in range(n)]
    gx = [g(x) for x in xs]

    violations = []
    max_margin = -math.inf
    for x, gv in zip(xs, gx):
        if gv < -tol:
            rhs = gv / 0.5 + gv / 0.5
            violations.append(Violation(x, x, 0.5, gv, rhs))
            max_margin = max(max_margin, gv - rhs)

    for lam in lams:
        clam = 1.0 - lam
        left = [v / lam for v in gx]
        right = [v / clam for v in gx]
        cy = [clam * y for y in xs]
        for i in range(n):
            base = lam * xs[i]
            li = left[i]
            xi = xs[i]
            for j in range(n):
                lhs = g(base + cy[j])
                rhs = li + right[j]
                m = lhs - rhs
                if m > max_margin:
                    max_margin = m
                if m > tol:
                    violations.append(Violation(xi, xs[j], lam, lhs, rhs))

    unique = sorted(dict.fromkeys(violations), key=lambda v: (v.x, v.y, v.lam))
    return QClassReport(n * n * n, tuple(unique), max_margin, not unique)


def scan_points(iv, grid_n):
    """Every point the scan samples, keyed by float.hex so 0.0 and -0.0 differ."""
    n = grid_n
    xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
    points = {x.hex() for x in xs}
    for k in range(n):
        lam = (k + 0.5) / n
        clam = 1.0 - lam
        points.update((lam * xi + clam * xj).hex() for xi in xs for xj in xs)
    return points


def second_derivative_power(text, q):
    e = parse(text)
    return lambda x: abs(evaluate_jet2(e, x).d2) ** q


def same_report(one, two):
    """Bitwise equality, including the sign of a zero max_margin."""
    return one == two and math.copysign(1.0, one.max_margin) == math.copysign(1.0, two.max_margin)


class TestCheck:
    def test_constant_one_passes(self):
        rep = check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), grid_n=16)
        assert rep.passed
        assert rep.violations == ()
        assert rep.samples_checked == 16**3
        # 1 <= 1/lam + 1/(1-lam) always, since 1/(lam(1-lam)) >= 4
        assert rep.max_margin <= -3.0

    def test_square_passes(self):
        rep = check_godunova_levin(lambda x: x * x, Interval(0.0, 1.0), grid_n=16)
        assert rep.passed

    def test_zero_function_passes_with_zero_margin(self):
        rep = check_godunova_levin(lambda x: 0.0, Interval(0.0, 1.0), grid_n=8)
        assert rep.passed
        assert rep.max_margin == 0.0

    def test_sine_fails_with_large_margin(self, membership_report):
        rep = membership_report("sine", 1.0)
        assert not rep.passed
        assert rep.max_margin > 0.5
        worst = max(rep.violations, key=lambda v: v.margin)
        # the worst triple combines both near-endpoint samples through the middle
        assert worst.x < 0.1
        assert worst.y > 3.0
        assert 0.4 < worst.lam < 0.6
        assert worst.lhs > 0.9
        assert worst.rhs < 0.15

    def test_violations_sound_on_reevaluation(self, membership_report):
        rep = membership_report("sine", 1.0)
        e = parse("sin(x)")
        tol = 1e-12
        for v in rep.violations:
            lhs = evaluate(e, v.lam * v.x + (1.0 - v.lam) * v.y)
            rhs = evaluate(e, v.x) / v.lam + evaluate(e, v.y) / (1.0 - v.lam)
            assert lhs > rhs + tol
            assert lhs == v.lhs
            assert rhs == v.rhs

    def test_monotone_refinement_odd_factor(self):
        # midpoint grids nest under odd refinement factors, so every coarse
        # triple reappears bitwise in the fine scan
        g = lambda x: math.sin(x)
        coarse = check_godunova_levin(g, SINE_INTERVAL, grid_n=8)
        fine = check_godunova_levin(g, SINE_INTERVAL, grid_n=24)
        assert not coarse.passed
        coarse_triples = {(v.x, v.y, v.lam) for v in coarse.violations}
        fine_triples = {(v.x, v.y, v.lam) for v in fine.violations}
        assert coarse_triples <= fine_triples

    def test_negative_function_fails(self):
        rep = check_godunova_levin(lambda x: -1.0, Interval(0.0, 1.0), grid_n=8)
        assert not rep.passed
        assert rep.max_margin >= 3.0 - 1e-15

    def test_negative_region_recorded_at_degenerate_triple(self):
        rep = check_godunova_levin(lambda x: x, Interval(-1.0, 1.0), grid_n=8)
        assert not rep.passed
        degenerate = [v for v in rep.violations if v.x == v.y and v.lam == 0.5]
        assert degenerate
        for v in degenerate:
            assert v.lhs < 0.0

    def test_violations_sorted_canonically(self, membership_report):
        rep = membership_report("sine", 1.0)
        keys = [(v.x, v.y, v.lam) for v in rep.violations]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_passed_iff_no_violations(self, membership_report):
        for name, q in [("quadratic", 1.0), ("sine", 1.0)]:
            rep = membership_report(name, q)
            assert rep.passed == (len(rep.violations) == 0)
            if rep.passed:
                assert rep.max_margin <= 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), grid_n=1)
        with pytest.raises(ValueError):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), tol=0.0)


class TestAgainstPlainLoop:
    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("name", [entry.name for entry in corpus_entries()])
    def test_corpus_scans_match(self, membership_report, corpus_by_name, name, q):
        entry = corpus_by_name[name]
        g = second_derivative_power(entry.expression, q)
        ref = reference_scan(g, entry.interval)
        assert same_report(membership_report(name, q), ref)
        if (name, q) == ("sine", 1.0):
            assert len(ref.violations) == 3520

    @pytest.mark.parametrize(
        "g,iv",
        [
            (second_derivative_power(COMPOSITE, 2.0), Interval(0.123, 0.987)),
            (lambda x, e=parse(COMPOSITE): evaluate(e, x), Interval(0.123, 0.987)),
            (lambda x, e=parse("sin(x)"): evaluate(e, x), Interval(-3.7, 5.2)),
            (second_derivative_power("sin(x)", 1.0), Interval(0.0, 1e-9)),
        ],
        ids=["composite-fn-q2", "composite-g", "sin-g-wide", "sin-fn-window"],
    )
    def test_other_scans_match(self, g, iv):
        assert same_report(check_godunova_levin(g, iv), reference_scan(g, iv))

    def test_signed_zeros_kept_apart(self):
        # on this window both 0.0 and -0.0 are scan points, and they compare equal
        iv = Interval(-3e-323, 3e-323)
        points = scan_points(iv, 9)
        assert {(0.0).hex(), (-0.0).hex()} <= points
        g = lambda x: 2.0 + math.copysign(1.0, x)
        assert same_report(check_godunova_levin(g, iv, grid_n=9), reference_scan(g, iv, grid_n=9))

    @pytest.mark.parametrize(
        "iv,grid_n",
        [(SINE_INTERVAL, 64), (Interval(-1.0, 1.0), 64), (Interval(-3.7, 5.2), 31), (Interval(-3e-323, 3e-323), 9)],
    )
    def test_g_called_once_per_distinct_point(self, iv, grid_n):
        seen = Counter()

        def g(x):
            seen[x.hex()] += 1
            return math.sin(x) ** 2

        check_godunova_levin(g, iv, grid_n)
        assert set(seen) == scan_points(iv, grid_n)
        assert set(seen.values()) == {1}
        # far fewer calls than the grid_n^3 triples
        assert len(seen) <= 10 * grid_n * grid_n


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raises_naming_the_point(self, bad):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ValueError, match=r"not finite at x=0\.5625"):
            check_godunova_levin(lambda x: bad if x == 0.5625 else 1.0, iv, grid_n=8)

    def test_cancelled_overflow_is_rejected(self):
        # inf - inf is nan at every point: the scan used to report passed = True
        e = parse("(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)")
        with pytest.raises(ValueError, match=r"not finite at x=0\.53125"):
            check_godunova_levin(lambda x: evaluate(e, x), Interval(0.5, 1.0), grid_n=8)

    def test_membership_for_bound_rejects_nan_second_derivative(self):
        e = parse("(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)")
        with pytest.raises(ValueError, match="not finite"):
            membership_for_bound(e, Interval(0.5, 1.0), 1.0, grid_n=8)


class TestMembershipForBound:
    def test_exp_squared_passes(self):
        rep = membership_for_bound(parse("exp(x)"), Interval(0.0, 1.0), 2.0, grid_n=16)
        assert rep.passed

    def test_quartic_passes(self):
        rep = membership_for_bound(parse("x^4"), Interval(0.0, 1.0), 1.0, grid_n=16)
        assert rep.passed

    def test_negated_sine_second_derivative_fails(self):
        # f = -sin(x) has |f''| = sin, the known counterexample
        rep = membership_for_bound(parse("-sin(x)"), SINE_INTERVAL, 1.0, grid_n=16)
        assert not rep.passed

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            membership_for_bound(parse("x^2"), Interval(0.0, 1.0), 0.5)


class TestWitness:
    def test_constant_and_convex_pass(self):
        iv = Interval(0.0, 1.0)
        assert nonneg_convex_witness(lambda x: 2.0, iv)
        assert nonneg_convex_witness(lambda x: 12.0 * x * x, iv)
        assert nonneg_convex_witness(math.exp, iv)

    def test_concave_or_negative_fail(self):
        assert not nonneg_convex_witness(math.sin, Interval(0.1, 3.0))
        assert not nonneg_convex_witness(lambda x: -1.0, Interval(0.0, 1.0))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            nonneg_convex_witness(lambda x: 1.0, Interval(0.0, 1.0), grid_n=2)

import math

import pytest

from glbounds import Interval, Regime, coefficient_set, integrate_piecewise
from glbounds.coefficients import _high, _low

GRID = [i / 100.0 for i in range(101)]
LOW_HALF = Interval(0.0, 0.5)
HIGH_HALF = Interval(0.5, 1.0)


def _first_half_abs_kernel(lam):
    return lambda t: abs(t * (t - lam))


def _second_half_abs_kernel(lam):
    return lambda t: abs((1.0 - t) * (1.0 - lam - t))


def _first_half_over_t(lam):
    # removable singularity at t = 0: the quotient tends to lam
    def f(t):
        if t == 0.0:
            return lam
        return abs(t * (t - lam)) / t

    return f


def _second_half_over_one_minus_t(lam):
    def f(t):
        if t == 1.0:
            return lam
        return abs((1.0 - t) * (1.0 - lam - t)) / (1.0 - t)

    return f


def _first_half_over_one_minus_t(lam):
    return lambda t: abs(t * (t - lam)) / (1.0 - t)


def _second_half_over_t(lam):
    return lambda t: abs((1.0 - t) * (1.0 - lam - t)) / t


def _cuts(lam):
    return [lam, 0.5, 1.0 - lam]


class TestPaperAnchors:
    # frozen specialization constants, each within 1e-12 of the implementation
    @pytest.mark.parametrize(
        "lam,expected",
        [(0.0, 1.0 / 24.0), (1.0 / 3.0, 1.0 / 81.0), (1.0, 1.0 / 12.0)],
    )
    def test_moment(self, lam, expected):
        assert abs(coefficient_set(lam).m - expected) <= 1e-12

    @pytest.mark.parametrize(
        "lam,expected",
        [(0.0, 1.0 / 8.0), (1.0, 3.0 / 8.0), (1.0 / 3.0, 5.0 / 72.0)],
    )
    def test_coeff_a(self, lam, expected):
        assert abs(coefficient_set(lam).a_coef - expected) <= 1e-12

    @pytest.mark.parametrize(
        "lam,expected",
        [
            (0.0, math.log(2.0) - 5.0 / 8.0),
            (1.0, 1.0 / 8.0),
            (1.0 / 3.0, (2.0 / 3.0) * math.log(8.0 / 9.0) + 7.0 / 72.0),
        ],
    )
    def test_coeff_b(self, lam, expected):
        assert abs(coefficient_set(lam).b_coef - expected) <= 1e-12

    @pytest.mark.parametrize(
        "lam,expected",
        [
            (0.0, math.log(2.0) - 0.5),
            (1.0, 0.5),
            (0.5, 0.5 - 0.5 * math.log(2.0)),
            (1.0 / 3.0, (2.0 / 3.0) * math.log(8.0 / 9.0) + 1.0 / 6.0),
        ],
    )
    def test_coeff_total_q1(self, lam, expected):
        assert abs(coefficient_set(lam).c_q1 - expected) <= 1e-12

    def test_total_q1_at_zero_matches_quarter_prefactor_form(self):
        # the midpoint-rule bound is also printed with a (b-a)^2/4 prefactor
        assert abs(coefficient_set(0.0).c_q1 - 0.5 * math.log(4.0 / math.e)) <= 1e-12


class TestBranchContinuity:
    def test_all_four_at_half(self):
        # M, A, B and C_q1 of each branch, component by component
        for low, high in zip(_low(0.5), _high(0.5), strict=True):
            assert abs(low - high) <= 1e-12

    def test_values_at_half(self):
        assert abs(coefficient_set(0.5).m - 1.0 / 48.0) <= 1e-12
        assert abs(coefficient_set(0.5).a_coef - 1.0 / 8.0) <= 1e-12
        assert abs(coefficient_set(0.5).b_coef - (3.0 / 8.0 + 0.5 * math.log(0.5))) <= 1e-12
        assert abs(coefficient_set(0.5).c_q1 - (0.5 - 0.5 * math.log(2.0))) <= 1e-12

    def test_half_uses_low_regime(self):
        assert coefficient_set(0.5).regime is Regime.LOW
        assert coefficient_set(0.5 + 1e-12).regime is Regime.HIGH


class TestOracleEquivalence:
    # the anti-algebra-error suite: every closed form against the quadrature
    # oracle, in both symmetric-half formulations

    @pytest.mark.parametrize("lam", GRID)
    def test_moment_both_halves(self, lam):
        m = coefficient_set(lam).m
        first = integrate_piecewise(_first_half_abs_kernel(lam), LOW_HALF, _cuts(lam))
        second = integrate_piecewise(_second_half_abs_kernel(lam), HIGH_HALF, _cuts(lam))
        assert abs(m - first) <= 1e-10
        assert abs(m - second) <= 1e-10

    @pytest.mark.parametrize("lam", GRID)
    def test_coeff_a_both_halves(self, lam):
        a = coefficient_set(lam).a_coef
        first = integrate_piecewise(_first_half_over_t(lam), LOW_HALF, _cuts(lam))
        second = integrate_piecewise(_second_half_over_one_minus_t(lam), HIGH_HALF, _cuts(lam))
        assert abs(a - first) <= 1e-10
        assert abs(a - second) <= 1e-10

    @pytest.mark.parametrize("lam", GRID)
    def test_coeff_b_both_halves(self, lam):
        # the half swap is exactly why the second radical exchanges A and B
        b = coefficient_set(lam).b_coef
        first = integrate_piecewise(_first_half_over_one_minus_t(lam), LOW_HALF, _cuts(lam))
        second = integrate_piecewise(_second_half_over_t(lam), HIGH_HALF, _cuts(lam))
        assert abs(b - first) <= 1e-10
        assert abs(b - second) <= 1e-10


class TestAlgebraicInvariants:
    def test_total_is_sum_on_grid(self):
        for lam in GRID:
            assert abs(coefficient_set(lam).c_q1 - (coefficient_set(lam).a_coef + coefficient_set(lam).b_coef)) <= 1e-12

    def test_positivity_on_grid(self):
        for lam in GRID:
            cs = coefficient_set(lam)
            assert cs.m > 0.0
            assert cs.a_coef > 0.0
            assert cs.b_coef > 0.0
            assert cs.c_q1 > 0.0

    def test_low_coeff_a_completed_square(self):
        for lam in [i / 100.0 for i in range(51)]:
            square_form = (lam - 0.25) ** 2 + 1.0 / 16.0
            assert abs(coefficient_set(lam).a_coef - square_form) <= 1e-15
            assert coefficient_set(lam).a_coef >= 1.0 / 16.0 - 1e-15

    def test_regime_tags(self):
        assert coefficient_set(0.3).regime is Regime.LOW
        assert coefficient_set(0.7).regime is Regime.HIGH

    @pytest.mark.parametrize("lam", [-0.01, 1.01, math.nan, math.inf])
    def test_out_of_range_rejected(self, lam):
        with pytest.raises(ValueError):
            coefficient_set(lam)

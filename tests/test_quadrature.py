import inspect
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import (
    DepthExhaustedError,
    EvalBudgetError,
    Interval,
    NonFiniteValueError,
    integrate,
    integrate_piecewise,
)
from glbounds.expressions import compile_expression, parse
from glbounds.quadrature import ABS_TOL, MAX_EVALS, REL_TOL
from conftest import examples
from oracles import second_derivative_fd

# Independent oracle for the |t(t-0.3)| example: composite midpoint rule with
# 2^15 panels per smooth piece (error ~1e-12), frozen from a one-off run.
MIDPOINT_ORACLE_T_TM03 = 0.013166666668140602

# Exact integrals from their antiderivatives in 80-digit decimals, as
# bench/oracle.py computes them, rounded to double: the composite
# exp(x)*sin(x)+1/(x+2) on [0, 10] (3251.75073143982469652...; the most
# samples any benchmark request's integral takes), and exp on [30, 31] and
# on [700, 709]
COMPOSITE_0_10 = 3251.750731439825
EXP_30_31 = 18362375083722.965
EXP_700_709 = 8.217393229500237e307


def _counting(f):
    """f and a one-element list that counts its calls."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    return counted, calls


def _poly(coeffs):
    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return f


class TestInterval:
    def test_width_and_midpoint(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.midpoint == 2.0

    @pytest.mark.parametrize(
        "a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)]
    )
    def test_rejects_bad_endpoints(self, a, b):
        with pytest.raises(ValueError):
            Interval(a, b)


class TestIntegrate:
    def test_square(self):
        assert integrate(lambda x: x * x, Interval(0.0, 1.0)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sin_half_period(self):
        assert integrate(math.sin, Interval(0.0, math.pi)) == pytest.approx(2.0, abs=1e-10)

    def test_depth_exhausted(self):
        # 1/|x - 1/3| is not integrable: the panels next to the pole never
        # agree, down to the panel that can no longer be split
        f, calls = _counting(lambda x: 1.0 / abs(x - 1.0 / 3.0))
        with pytest.raises(DepthExhaustedError, match=r"^tolerance 1e-10 unreachable on \["):
            integrate(f, Interval(0.0, 1.0))
        assert calls[0] == 44917 <= MAX_EVALS

    def test_depth_panel_ends_print_apart(self):
        # the ends are printed in full: with :g both read 0.333333
        with pytest.raises(DepthExhaustedError) as info:
            integrate(lambda x: 1.0 / abs(x - 1.0 / 3.0), Interval(0.0, 1.0))
        lo, hi = re.search(r"on \[(.*), (.*)\]$", str(info.value)).groups()
        assert float(lo) < float(hi)
        assert abs(float(lo) - 1.0 / 3.0) < 1e-10

    def test_budget_ends_a_walk_that_cannot_converge(self):
        # 1.6e11 periods need far more panels than the budget pays for
        f, calls = _counting(lambda x: math.sin(1e12 * x))
        with pytest.raises(EvalBudgetError, match=r"^evaluation budget 131072 exhausted at tolerance 1e-10 on \["):
            integrate(f, Interval(0.0, 1.0))
        assert calls[0] == 130857 <= MAX_EVALS

    def test_exp_stall_converges(self):
        # adaptive Simpson to an absolute 1e-10 spent the whole budget here
        f, calls = _counting(math.exp)
        got = integrate(f, Interval(30.0, 31.0))
        assert abs(got - EXP_30_31) <= REL_TOL * EXP_30_31
        assert calls[0] == 217

    def test_budget_leaves_converging_results_alone(self):
        f, calls = _counting(compile_expression(parse("exp(x)*sin(x)+1/(x+2)"))[0])
        got = integrate(f, Interval(0.0, 10.0))
        assert abs(got - COMPOSITE_0_10) <= REL_TOL * COMPOSITE_0_10
        assert calls[0] == 2227  # 11,453 with adaptive Simpson

    def test_budget_counts_each_call_afresh(self):
        f = compile_expression(parse("exp(x)*sin(x)+1/(x+2)"))[0]
        first = integrate(f, Interval(0.0, 10.0))
        for _ in range(59):  # 60 x 2,227 samples would exceed one budget
            assert integrate(f, Interval(0.0, 10.0)) == first

    def test_first_panel_costs_seven_samples(self):
        # x^4 is within the Kronrod rule's degree: the first panel is accepted
        f, calls = _counting(lambda x: x**4)
        assert abs(integrate(f, Interval(-5.0, 5.0)) - 1250.0) <= REL_TOL * 1250.0
        assert calls[0] == 7

    def test_cancelling_integral_ends_on_the_first_panel(self):
        # the scale is that of the integral of |sin|, about 4, not of the integral's 0
        f, calls = _counting(math.sin)
        assert abs(integrate(f, Interval(0.0, 2.0 * math.pi))) <= 1e-15
        assert calls[0] == 7

    def test_one_huge_sample_does_not_set_the_scale(self):
        # f(0) = 1e150 made the first scale 2.6e148, at which a walk that
        # accepted 7.2e132 stopped; the walk is made again at the scale it found
        got = integrate(lambda x: 1.0 / math.sqrt(x + 1e-300), Interval(0.0, 1.0))
        assert abs(got - 2.0) <= ABS_TOL

    def test_a_deep_walk_needs_no_recursion(self):
        # f is 1e300 on [0, 1e-300] and 1/x above: the panels at 0 split about
        # 300 times, each 10.9 times narrower, into the subnormals; the walk
        # keeps no frame per level, so a stack 50 frames above this one is enough
        xs = []

        def f(x):
            xs.append(x)
            return min(1.0 / x, 1e300) if x > 0.0 else 0.0

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            got = integrate(f, Interval(0.0, 1.0))
        finally:
            sys.setrecursionlimit(limit)
        assert 0.0 < min(x for x in xs if x > 0.0) < 1e-308
        assert abs(got - (1.0 + 300.0 * math.log(10.0))) <= ABS_TOL

    def test_non_finite_value(self):
        def f(x):
            return math.inf if x == 0.5 else 1.0

        with pytest.raises(NonFiniteValueError):
            integrate(f, Interval(0.0, 1.0))

    def test_nan_value(self):
        with pytest.raises(NonFiniteValueError):
            integrate(lambda x: math.nan, Interval(0.0, 1.0))

    def test_overflowing_estimate_fails_at_once(self):
        # 1e308 + 1e308 overflows; no split mends a sum of values
        f, calls = _counting(lambda x: 1e308)
        with pytest.raises(
            NonFiniteValueError, match=r"^Lobatto-Kronrod estimate is not finite on \[0\.0, 1\.0\]$"
        ):
            integrate(f, Interval(0.0, 1.0))
        assert calls[0] == 7

    def test_values_below_half_the_float_range_keep_their_answer(self):
        # the weights, each at most 0.46, are applied before adding; Simpson's
        # fa + 4*fm + fb overflowed here
        assert integrate(lambda x: 3e307, Interval(0.0, 1.0)) == 3e307

    def test_integral_near_the_float_range_converges(self):
        # 672 * f(m) overflowed here before the weights were applied first
        got = integrate(math.exp, Interval(700.0, 709.0))
        assert abs(got - EXP_700_709) <= REL_TOL * EXP_700_709

    def test_scale_past_the_float_range_is_capped(self):
        # the integral of |f| is about 4.5e308; an infinite scale would accept
        # every panel whose rules differ by a finite amount, here the first
        # panel's estimate, 1.6e-4 off
        f = lambda x: 1e300 * math.sin(x / 1e8 + 1.0)
        exact = 1e308 * (math.cos(1.0) - math.cos(8.0))
        assert abs(integrate(f, Interval(0.0, 7e8)) - exact) <= REL_TOL * sys.float_info.max

    def test_overflowing_midpoint_fails_at_once(self):
        # 0.5*(a + b) is inf, though b - a is not
        with pytest.raises(NonFiniteValueError, match=r"^midpoint of \[1e\+308, 1\.7e\+308\] overflows$"):
            integrate(lambda x: 1.0, Interval(1e308, 1.7e308))

    def test_estimate_that_overflows_with_the_width_still_converges(self):
        # width * 6 * 2^511 overflows on the whole panel but not on its halves
        assert integrate(lambda x: 2.0**511, Interval(0.0, 2.0**511)) == 2.0**1022

    def test_integral_past_the_float_range_is_rejected(self):
        # every panel converges, and their sum 1e310 used to come back as inf
        with pytest.raises(NonFiniteValueError, match=r"^integral over \[0\.0, 10000000000\.0\] overflows: inf$"):
            integrate(lambda x: 1e300, Interval(0.0, 1e10))

    @settings(max_examples=examples(25), deadline=None)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    def test_linearity(self, c1, c2, alpha, beta):
        f, g = _poly(c1), _poly(c2)
        iv = Interval(0.0, 1.0)
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), iv)
        separate = alpha * integrate(f, iv) + beta * integrate(g, iv)
        assert abs(combined - separate) <= 2e-10

    @settings(max_examples=examples(25), deadline=None)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
        st.floats(0.1, 0.9),
    )
    def test_interval_additivity(self, coeffs, m):
        f = _poly(coeffs)
        whole = integrate(f, Interval(0.0, 1.0))
        parts = integrate(f, Interval(0.0, m)) + integrate(f, Interval(m, 1.0))
        assert abs(whole - parts) <= 2e-10

    @settings(max_examples=examples(50), deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_cubic_exactness(self, a, width):
        b = a + width
        got = integrate(lambda x: x**3, Interval(a, b))
        exact = (b**4 - a**4) / 4.0
        assert abs(got - exact) <= 1e-13 * abs(exact)


class TestIntegratePiecewise:
    def test_triangle_kink(self):
        got = integrate_piecewise(lambda t: abs(t - 0.25), Interval(0.0, 1.0), [0.25])
        assert got == pytest.approx(0.3125, abs=1e-12)

    def test_abs_quadratic_against_midpoint_oracle(self):
        f = lambda t: abs(t * (t - 0.3))
        got = integrate_piecewise(f, Interval(0.0, 0.5), [0.3])
        assert got == pytest.approx(MIDPOINT_ORACLE_T_TM03, abs=1e-10)
        assert got == pytest.approx(0.3**3 / 3.0 + (1.0 - 0.9) / 24.0, abs=1e-10)

    def test_kernel_closed_form(self):
        # antiderivative of both kernel branches gives 1/24 - lam/8
        lam = 0.2

        def k(t):
            if t <= 0.5:
                return 0.5 * t * (t - lam)
            return 0.5 * (1.0 - t) * (1.0 - lam - t)

        got = integrate_piecewise(k, Interval(0.0, 1.0), [lam, 0.5, 1.0 - lam])
        assert got == pytest.approx(1.0 / 24.0 - lam / 8.0, abs=1e-10)

    def test_sum_past_the_float_range_is_rejected(self):
        # each piece is 1e308, and the three used to add up to inf
        assert integrate_piecewise(lambda x: 1e300, Interval(0.0, 1e8), [5e7]) == 1e308
        with pytest.raises(NonFiniteValueError, match=r"^integral over \[0\.0, 300000000\.0\] overflows: inf$"):
            integrate_piecewise(lambda x: 1e300, Interval(0.0, 3e8), [1e8, 2e8])

    def test_empty_breakpoints_match_plain_integrate(self):
        f = lambda x: math.exp(x) * math.sin(3.0 * x)
        iv = Interval(0.0, 2.0)
        assert integrate_piecewise(f, iv, []) == integrate(f, iv)

    def test_out_of_range_breakpoints_dropped(self):
        f = lambda x: x * x
        iv = Interval(0.0, 1.0)
        got = integrate_piecewise(f, iv, [-1.0, 0.0, 0.5, 1.0, 7.0])
        assert got == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_duplicate_breakpoints_collapse(self):
        f = lambda t: abs(t - 0.5)
        iv = Interval(0.0, 1.0)
        assert integrate_piecewise(f, iv, [0.5, 0.5, 0.5]) == pytest.approx(0.25, abs=1e-12)

    def test_kink_integrand_meets_tolerance(self):
        # |t (t - lam)| integrands hit the tolerance once the kink is a cut
        for lam in (0.1, 0.3, 0.49):
            f = lambda t, lam=lam: abs(t * (t - lam))
            got = integrate_piecewise(f, Interval(0.0, 0.5), [lam])
            exact = lam**3 / 3.0 + (1.0 - 3.0 * lam) / 24.0
            assert abs(got - exact) <= 1e-10


class TestSecondDerivativeFd:
    def test_cubic(self):
        got = second_derivative_fd(lambda x: x**3, 2.0)
        assert abs(got - 12.0) / 12.0 <= 1e-6

    def test_exp_at_zero(self):
        assert second_derivative_fd(math.exp, 0.0) == pytest.approx(1.0, rel=1e-6)

    def test_constant(self):
        assert abs(second_derivative_fd(lambda x: 5.0, 0.7)) <= 1e-6

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            second_derivative_fd(math.exp, 0.0, h=0.0)

    def test_non_finite(self):
        with pytest.raises(NonFiniteValueError):
            second_derivative_fd(lambda x: math.inf, 0.0)

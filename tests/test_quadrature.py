import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import (
    DepthExhaustedError,
    Interval,
    NonFiniteValueError,
    integrate,
    integrate_piecewise,
)
from oracles import second_derivative_fd

# Independent oracle for the |t(t-0.3)| example: composite midpoint rule with
# 2^15 panels per smooth piece (error ~1e-12), frozen from a one-off run.
MIDPOINT_ORACLE_T_TM03 = 0.013166666668140602


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
        # a jump no panel can resolve: bisection reaches depth 50 at tolerance
        # 1e-10 / 2^50, which pins both ABS_TOL and MAX_DEPTH
        with pytest.raises(DepthExhaustedError, match=r"tolerance 8\.88178e-26 unreachable"):
            integrate(lambda x: 0.0 if x < 1.0 / 3.0 else 1.0, Interval(0.0, 1.0))

    def test_non_finite_value(self):
        def f(x):
            return math.inf if x == 0.5 else 1.0

        with pytest.raises(NonFiniteValueError):
            integrate(f, Interval(0.0, 1.0))

    def test_nan_value(self):
        with pytest.raises(NonFiniteValueError):
            integrate(lambda x: math.nan, Interval(0.0, 1.0))

    @settings(max_examples=25, deadline=None)
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

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
        st.floats(0.1, 0.9),
    )
    def test_interval_additivity(self, coeffs, m):
        f = _poly(coeffs)
        whole = integrate(f, Interval(0.0, 1.0))
        parts = integrate(f, Interval(0.0, m)) + integrate(f, Interval(m, 1.0))
        assert abs(whole - parts) <= 2e-10

    @settings(max_examples=50, deadline=None)
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

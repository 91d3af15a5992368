import math
import re

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
from glbounds.quadrature import MAX_EVALS
from conftest import examples
from oracles import second_derivative_fd

# Independent oracle for the |t(t-0.3)| example: composite midpoint rule with
# 2^15 panels per smooth piece (error ~1e-12), frozen from a one-off run.
MIDPOINT_ORACLE_T_TM03 = 0.013166666668140602

# integrate() of the composite exp(x)*sin(x)+1/(x+2) on [0, 10] before the
# evaluation budget existed: 11,453 samples, the most any benchmark request's
# successful integral takes
COMPOSITE_0_10 = 3251.7507314398244


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
        # a jump no panel can resolve: bisection reaches depth 50 at tolerance
        # 1e-10 / 2^50, which pins both ABS_TOL and MAX_DEPTH; the depth cap
        # binds long before the evaluation budget
        f, calls = _counting(lambda x: 0.0 if x < 1.0 / 3.0 else 1.0)
        with pytest.raises(DepthExhaustedError, match=r"tolerance 8\.88178e-26 unreachable"):
            integrate(f, Interval(0.0, 1.0))
        assert calls[0] == 155

    def test_depth_panel_ends_print_apart(self):
        # the ends are printed in full: with :g both read 0.333333
        with pytest.raises(DepthExhaustedError) as info:
            integrate(lambda x: 0.0 if x < 1.0 / 3.0 else 1.0, Interval(0.0, 1.0))
        lo, hi = re.search(r"on \[(.*), (.*)\]$", str(info.value)).groups()
        assert float(lo) < 1.0 / 3.0 < float(hi)

    def test_budget_ends_the_exp_stall(self):
        # an absolute 1e-10 on an integral near 1.8e13: about 3.0M samples
        # before the budget, and then the kernel side failed anyway
        f, calls = _counting(math.exp)
        with pytest.raises(EvalBudgetError) as info:
            integrate(f, Interval(30.0, 31.0))
        # 131,069 samples committed, less those of the right halves still due
        assert calls[0] == 131043 <= MAX_EVALS
        assert str(info.value) == (
            "evaluation budget 131072 exhausted at tolerance 4.65661e-20 "
            "on [30.24398963013664, 30.2439896306023]"
        )

    def test_budget_leaves_converging_results_alone(self):
        f, calls = _counting(compile_expression(parse("exp(x)*sin(x)+1/(x+2)"))[0])
        assert integrate(f, Interval(0.0, 10.0)) == COMPOSITE_0_10
        assert calls[0] == 11453

    def test_budget_counts_each_call_afresh(self):
        f = compile_expression(parse("exp(x)*sin(x)+1/(x+2)"))[0]
        for _ in range(12):  # 12 x 11,453 samples would exceed one budget
            assert integrate(f, Interval(0.0, 10.0)) == COMPOSITE_0_10

    def test_non_finite_value(self):
        def f(x):
            return math.inf if x == 0.5 else 1.0

        with pytest.raises(NonFiniteValueError):
            integrate(f, Interval(0.0, 1.0))

    def test_nan_value(self):
        with pytest.raises(NonFiniteValueError):
            integrate(lambda x: math.nan, Interval(0.0, 1.0))

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

import math
import re

import pytest

import glbounds.kernel
from glbounds import (
    DepthExhaustedError,
    DomainError,
    Interval,
    coefficient_set,
    integrate_piecewise,
    kernel_k,
    lhs_functional,
    parse,
    rhs_identity,
    verify_identity,
)
from glbounds.expressions import _compile_jet

UNIT = Interval(0.0, 1.0)

# same family the identity acceptance uses, plus sine per the module contract
IDENTITY_CASES = [
    ("x^2", Interval(0.0, 1.0)),
    ("x^4", Interval(0.0, 1.0)),
    ("exp(x)", Interval(0.0, 1.0)),
    ("sin(x)", Interval(0.0, 2.0)),
    ("1/(x+2)", Interval(0.0, 1.0)),
]


class TestKernel:
    def test_zero_at_origin(self):
        assert kernel_k(0.0, 0.7) == 0.0

    def test_midpoint_value(self):
        assert kernel_k(0.5, 0.2) == pytest.approx(0.075, abs=1e-15)

    def test_second_branch_value(self):
        assert kernel_k(0.75, 0.5) == pytest.approx(-0.03125, abs=1e-15)

    def test_rejects_t_outside_unit(self):
        with pytest.raises(ValueError):
            kernel_k(-0.1, 0.5)
        with pytest.raises(ValueError):
            kernel_k(1.1, 0.5)

    def test_branch_continuity_exact(self):
        # both branch formulas, evaluated at the joint, must agree bitwise
        for i in range(101):
            lam = i / 100.0
            low = 0.5 * 0.5 * (0.5 - lam)
            high = 0.5 * (1.0 - 0.5) * ((0.5 - lam) + (0.5 - 0.5))
            assert low - high == 0.0
            assert kernel_k(0.5, lam) == low

    def test_symmetry_on_dyadic_grid(self):
        # dyadic nodes make 1 - t exact, so the reflection is exact too
        for j in range(17):
            lam = j / 16.0
            for i in range(129):
                t = i / 128.0
                assert kernel_k(t, lam) == kernel_k(1.0 - t, lam)

    def test_symmetry_on_general_grid(self):
        for j in range(101):
            lam = j / 100.0
            for i in range(101):
                t = i / 100.0
                assert abs(kernel_k(t, lam) - kernel_k(1.0 - t, lam)) <= 1e-16

    def test_abs_kernel_integral_matches_moment(self):
        for i in range(101):
            lam = i / 100.0
            got = integrate_piecewise(
                lambda t: abs(kernel_k(t, lam)), UNIT, [lam, 0.5, 1.0 - lam]
            )
            assert abs(got - coefficient_set(lam).m) <= 1e-10


def _at(fn, lam):
    """fn at lam: kernel_k at t = 1/4, the others on x^2 over [0, 1]."""
    return fn(0.25, lam) if fn is kernel_k else fn(parse("x^2"), UNIT, lam)


LAMBDA_TAKERS = pytest.mark.parametrize(
    "fn", [kernel_k, lhs_functional, rhs_identity, verify_identity], ids=lambda fn: fn.__name__
)


class TestLambdaCheck:
    """lam is a float that every function of the module checks first, with
    the package's one lambda check."""

    @LAMBDA_TAKERS
    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_range_before_compiling(self, monkeypatch, fn, lam):
        def refused(e):
            raise AssertionError("f was compiled before lambda was checked")

        monkeypatch.setattr(glbounds.kernel, "_compile_value", refused)
        monkeypatch.setattr(glbounds.kernel, "_compile_jet", refused)
        with pytest.raises(ValueError, match=f"^{re.escape(f'lambda must be in [0, 1], got {lam!r}')}$"):
            _at(fn, lam)

    @LAMBDA_TAKERS
    @pytest.mark.parametrize("lam", [-0.0, 5e-324])
    def test_accepts_signed_zero_and_the_least_subnormal(self, fn, lam):
        assert _at(fn, lam) == pytest.approx(_at(fn, 0.0), abs=1e-15)


class TestErrorFunctional:
    # for f = x^2 on [0, 1] the functional is 1/12 - lam/4 by exact algebra
    @pytest.mark.parametrize("lam,expected", [(0.0, 1.0 / 12.0), (1.0, -1.0 / 6.0), (1.0 / 3.0, 0.0)])
    def test_square_closed_form(self, lam, expected):
        got = lhs_functional(parse("x^2"), UNIT, lam)
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam,expected", [(0.0, 1.0 / 12.0), (1.0, -1.0 / 6.0)])
    def test_rhs_square(self, lam, expected):
        got = rhs_identity(parse("x^2"), UNIT, lam)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_rhs_matches_lhs_for_exp(self):
        e = parse("exp(x)")
        assert abs(rhs_identity(e, UNIT, 0.3) - lhs_functional(e, UNIT, 0.3)) <= 1e-8


class TestIdentity:
    def test_quartic(self):
        rep = verify_identity(parse("x^4"), UNIT, 0.6)
        assert rep.abs_diff <= 1e-8
        assert rep.abs_diff == abs(rep.lhs - rep.rhs)

    def test_sine_on_wider_interval(self):
        rep = verify_identity(parse("sin(x)"), Interval(0.0, 2.0), 0.0)
        assert rep.abs_diff <= 1e-8

    def test_simpson_exact_on_quadratic(self):
        rep = verify_identity(parse("x^2"), UNIT, 1.0 / 3.0)
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 1e-10

    @pytest.mark.parametrize("text,iv", IDENTITY_CASES)
    def test_identity_suite(self, text, iv):
        e = parse(text)
        for i in range(11):
            rep = verify_identity(e, iv, i / 10.0)
            assert rep.abs_diff <= 1e-8, f"{text} at lambda={i / 10.0}"

    def test_halves_sample_kernel_k(self, monkeypatch):
        # verify_identity takes the kernel side as one integral over [0, 1]
        # cut at 1/2, and its integrand is kernel_k times f'', bit for bit, on
        # both sides of the cut and at it
        taken = []
        original = glbounds.kernel.integrate_piecewise

        def recorded(f, iv, breakpoints):
            taken.append((f, iv, breakpoints))
            return original(f, iv, breakpoints)

        monkeypatch.setattr(glbounds.kernel, "integrate_piecewise", recorded)
        e, iv = parse("exp(x)*sin(x)+1/(x+2)"), Interval(-0.7, 2.9)
        jet = _compile_jet(e)
        ts = [i / 256.0 for i in range(257)] + [math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
        for lam in (0.0, 0.3, 1.0 / 3.0, 0.5, 0.75, 1.0):
            taken.clear()
            rep = verify_identity(e, iv, lam)
            [(f, whole, cuts)] = taken
            assert (whole, cuts) == (UNIT, [0.5])
            assert rep.rhs == iv.width * iv.width * integrate_piecewise(f, UNIT, [0.5])
            for t in ts:
                assert f(t) == kernel_k(t, lam) * jet(t * iv.a + (1.0 - t) * iv.b)[2]

    @pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 0.75])
    @pytest.mark.parametrize("c", ["0.3", "0.25", "0.5"])
    def test_non_integrable_kernel_side_raises(self, c, lam):
        # the pole of f'' at t = 1 - c: off the bisection points, on a panel's
        # midpoint node, and on the cut at 1/2, where a half samples its end
        with pytest.raises((DepthExhaustedError, DomainError)):
            rhs_identity(parse(f"(x-{c})*ln(abs(x-{c}))"), UNIT, lam)

    def test_kernel_side_error_keeps_its_type_and_names_t(self):
        # f'' = 1/(x - 0.3) is not integrable: the t-panel next to its pole
        # can no longer be split
        with pytest.raises(DepthExhaustedError, match=r"^kernel integral over t in \[0, 1\]: tolerance "):
            rhs_identity(parse("(x-0.3)*ln(abs(x-0.3))"), UNIT, 0.5)

import math

import pytest

from glbounds import (
    DepthExhaustedError,
    Interval,
    RuleParams,
    integrate_piecewise,
    kernel_k,
    lhs_functional,
    moment,
    parse,
    rhs_identity,
    verify_identity,
)

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
        assert kernel_k(0.0, RuleParams(0.7)) == 0.0

    def test_midpoint_value(self):
        assert kernel_k(0.5, RuleParams(0.2)) == pytest.approx(0.075, abs=1e-15)

    def test_second_branch_value(self):
        assert kernel_k(0.75, RuleParams(0.5)) == pytest.approx(-0.03125, abs=1e-15)

    def test_rejects_t_outside_unit(self):
        with pytest.raises(ValueError):
            kernel_k(-0.1, RuleParams(0.5))
        with pytest.raises(ValueError):
            kernel_k(1.1, RuleParams(0.5))

    def test_branch_continuity_exact(self):
        # both branch formulas, evaluated at the joint, must agree bitwise
        for i in range(101):
            lam = i / 100.0
            low = 0.5 * 0.5 * (0.5 - lam)
            high = 0.5 * (1.0 - 0.5) * ((0.5 - lam) + (0.5 - 0.5))
            assert low - high == 0.0
            assert kernel_k(0.5, RuleParams(lam)) == low

    def test_symmetry_on_dyadic_grid(self):
        # dyadic nodes make 1 - t exact, so the reflection is exact too
        for j in range(17):
            p = RuleParams(j / 16.0)
            for i in range(129):
                t = i / 128.0
                assert kernel_k(t, p) == kernel_k(1.0 - t, p)

    def test_symmetry_on_general_grid(self):
        for j in range(101):
            p = RuleParams(j / 100.0)
            for i in range(101):
                t = i / 100.0
                assert abs(kernel_k(t, p) - kernel_k(1.0 - t, p)) <= 1e-16

    def test_abs_kernel_integral_matches_moment(self):
        for i in range(101):
            lam = i / 100.0
            p = RuleParams(lam)
            got = integrate_piecewise(
                lambda t: abs(kernel_k(t, p)), UNIT, [lam, 0.5, 1.0 - lam]
            )
            assert abs(got - moment(lam)) <= 1e-10


class TestRuleParams:
    @pytest.mark.parametrize("lam", [-0.1, 1.1, math.nan])
    def test_rejects_out_of_range(self, lam):
        with pytest.raises(ValueError):
            RuleParams(lam)


class TestErrorFunctional:
    # for f = x^2 on [0, 1] the functional is 1/12 - lam/4 by exact algebra
    @pytest.mark.parametrize("lam,expected", [(0.0, 1.0 / 12.0), (1.0, -1.0 / 6.0), (1.0 / 3.0, 0.0)])
    def test_square_closed_form(self, lam, expected):
        got = lhs_functional(parse("x^2"), UNIT, RuleParams(lam))
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam,expected", [(0.0, 1.0 / 12.0), (1.0, -1.0 / 6.0)])
    def test_rhs_square(self, lam, expected):
        got = rhs_identity(parse("x^2"), UNIT, RuleParams(lam))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_rhs_matches_lhs_for_exp(self):
        e = parse("exp(x)")
        p = RuleParams(0.3)
        assert abs(rhs_identity(e, UNIT, p) - lhs_functional(e, UNIT, p)) <= 1e-8


class TestIdentity:
    def test_quartic(self):
        rep = verify_identity(parse("x^4"), UNIT, RuleParams(0.6))
        assert rep.abs_diff <= 1e-8
        assert rep.abs_diff == abs(rep.lhs - rep.rhs)

    def test_sine_on_wider_interval(self):
        rep = verify_identity(parse("sin(x)"), Interval(0.0, 2.0), RuleParams(0.0))
        assert rep.abs_diff <= 1e-8

    def test_simpson_exact_on_quadratic(self):
        rep = verify_identity(parse("x^2"), UNIT, RuleParams(1.0 / 3.0))
        assert abs(rep.lhs) <= 1e-10
        assert abs(rep.rhs) <= 1e-10

    @pytest.mark.parametrize("text,iv", IDENTITY_CASES)
    def test_identity_suite(self, text, iv):
        e = parse(text)
        for i in range(11):
            rep = verify_identity(e, iv, RuleParams(i / 10.0))
            assert rep.abs_diff <= 1e-8, f"{text} at lambda={i / 10.0}"

    def test_kernel_side_error_keeps_its_type_and_names_t(self):
        # f'' = 1/(x - 0.3) is not integrable: the t-panel next to its pole
        # can no longer be split
        with pytest.raises(DepthExhaustedError, match=r"^kernel integral over t in \[0, 1\]: tolerance "):
            rhs_identity(parse("(x-0.3)*ln(abs(x-0.3))"), UNIT, RuleParams(0.5))

import math
import re

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import glbounds
import glbounds.enclosure
from glbounds import (
    BoundInput,
    Decision,
    Interval,
    Proposition,
    Regime,
    coefficient_set,
    corollary_bound_q1,
    evaluate_bound_report,
    evaluate_jet2,
    lhs_functional,
    membership_for_bound,
    parse,
    proposition_bound,
    sweep_rows,
    theorem_bound,
)
from glbounds.bounds import _weight_powers
from glbounds.kernel import functional_terms
from conftest import examples
from oracles import hermite_hadamard_check

UNIT = Interval(0.0, 1.0)

_BAD_INPUTS = [
    (-0.1, 1.0, 1.0, 1.0, "lambda must be in [0, 1], got -0.1"),
    (0.5, 0.9, 1.0, 1.0, "q must be finite and >= 1, got 0.9"),
    (0.5, 1.0, -1.0, 1.0, "g_a must be finite and >= 0, got -1.0"),
    (0.5, 1.0, 1.0, -1.0, "g_b must be finite and >= 0, got -1.0"),
    (0.5, math.inf, 1.0, 1.0, "q must be finite and >= 1, got inf"),
]

LAM_GRID = [i / 100.0 for i in range(0, 101, 5)]

PROP_SETTINGS = [
    (Proposition.MIDPOINT_Q1, 0.0, (1.0,)),
    (Proposition.TRAPEZOID_Q1, 1.0, (1.0,)),
    (Proposition.SIMPSON_Q1, 1.0 / 3.0, (1.0,)),
    (Proposition.MIDTRAP_Q1, 0.5, (1.0,)),
    (Proposition.MIDPOINT_PM, 0.0, (1.0, 2.0, 3.0)),
    (Proposition.TRAPEZOID_PM, 1.0, (1.0, 2.0, 3.0)),
    (Proposition.SIMPSON_PM, 1.0 / 3.0, (1.0, 2.0, 3.0)),
]


class TestTheoremBound:
    def test_q1_constant_second_derivative(self):
        got = theorem_bound(BoundInput(UNIT, 0.0, 1.0, 2.0, 2.0))
        assert got == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_q1_trapezoid_case(self):
        got = theorem_bound(BoundInput(UNIT, 1.0, 1.0, 2.0, 2.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_q2_midpoint_case(self):
        got = theorem_bound(BoundInput(UNIT, 0.0, 2.0, 2.0, 2.0))
        expected = 0.5 * math.sqrt(1.0 / 24.0) * 2.0 * math.sqrt(4.0 * (math.log(2.0) - 0.5))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_data_gives_zero(self):
        assert theorem_bound(BoundInput(UNIT, 0.3, 2.0, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize(
        "lam,q,ga,gb,message", _BAD_INPUTS, ids=[f"{lam}-{q}-{ga}-{gb}" for lam, q, ga, gb, _ in _BAD_INPUTS]
    )
    def test_input_validation(self, lam, q, ga, gb, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BoundInput(UNIT, lam, q, ga, gb)

    def test_overflowing_width_square_is_an_input_error(self):
        # w^2/2 = inf times a zero bracket used to give nan
        with pytest.raises(ValueError, match=r"^w\^2/2 overflows: the width of \[0\.0, 1e\+200\] is 1e\+200$"):
            theorem_bound(BoundInput(Interval(0.0, 1e200), 0.5, 1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"w\^2/2 overflows"):
            theorem_bound(BoundInput(Interval(0.0, 1e200), 0.5, 2.0, 1.0, 1.0))
        # the widest interval whose w^2/2 is finite still has its bound
        iv = Interval(0.0, 6.703903964971299e153)
        assert theorem_bound(BoundInput(iv, 0.5, 1.0, 0.0, 0.0)) == 0.0

    def test_oracles_reject_an_overflowing_width_square(self):
        # inf times zero weights used to give nan in both cross-check codings
        wide = Interval(0.0, 1e200)
        with pytest.raises(ValueError, match=r"^w\^2/2 overflows: the width of \[0\.0, 1e\+200\] is 1e\+200$"):
            corollary_bound_q1(wide, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^w\^2 overflows: the width of \[0\.0, 1e\+200\] is 1e\+200$"):
            proposition_bound(Proposition.MIDPOINT_Q1, wide, 1.0, 0.0, 0.0)
        for which, _, qs in PROP_SETTINGS:
            for q in qs:
                with pytest.raises(ValueError, match=r"^w\^2 overflows"):
                    proposition_bound(which, wide, q, 0.0, 0.0)
        # the widest intervals whose squares are finite still have their bounds
        assert corollary_bound_q1(Interval(0.0, 6.703903964971299e153), 0.5, 0.0, 0.0) == 0.0
        narrower = Interval(0.0, 1.3e154)  # w^2 is about 1.69e308
        assert all(proposition_bound(which, narrower, qs[-1], 0.0, 0.0) == 0.0 for which, _, qs in PROP_SETTINGS)

    def test_overflowing_bound_is_an_input_error(self):
        # w^2/2 and the weights' powers are finite, their product is not; it used to be inf
        with pytest.raises(ValueError, match=r"^bound overflows: g_a = 0\.0, g_b = 1e\+308 on \[0\.0, 10\.0\]$"):
            theorem_bound(BoundInput(Interval(0.0, 10.0), 0.0, 1.0, 0.0, 1e308))
        with pytest.raises(ValueError, match=r"^bound overflows: g_a = 0\.0, g_b = 1e\+150 on \[0\.0, 1e\+100\]$"):
            theorem_bound(BoundInput(Interval(0.0, 1e100), 0.5, 2.0, 0.0, 1e150))
        assert theorem_bound(BoundInput(Interval(0.0, 10.0), 0.0, 1.0, 0.0, 1e306)) < math.inf

    def test_a_nan_bound_is_an_input_error(self):
        # w^2/2 of a width of 1e-170 underflows to 0, and the bracket of the
        # weights 1.7e308 at lambda 1 and q = 100 overflows to inf: 0 * inf
        # used to give a nan bound, printed with exit 0, and so did the q = 1 oracles
        iv = Interval(0.0, 1e-170)
        message = r"^bound is nan \(0 times inf\): g_a = 1\.7e\+308, g_b = 1\.7e\+308 on \[0\.0, 1e-170\]$"
        with pytest.raises(ValueError, match=message):
            theorem_bound(BoundInput(iv, 1.0, 100.0, 1.7e308, 1.7e308))
        with pytest.raises(ValueError, match=message):
            corollary_bound_q1(iv, 1.0, 1.7e308, 1.7e308)
        for which, _, _ in PROP_SETTINGS[:4]:  # the q = 1 propositions, whose g_a + g_b overflows
            with pytest.raises(ValueError, match=message):
                proposition_bound(which, iv, 1.0, 1.7e308, 1.7e308)
        # weights a tenth as large keep the bracket finite, and the bound is 0
        assert theorem_bound(BoundInput(iv, 1.0, 100.0, 1.7e307, 1.7e307)) == 0.0

    def test_oracles_reject_an_overflowing_bound(self):
        iv, wide = Interval(0.0, 10.0), Interval(0.0, 1e100)
        message = r"^bound overflows: g_a = 0\.0, g_b = 1e\+308 on \[0\.0, 10\.0\]$"
        with pytest.raises(ValueError, match=message):
            corollary_bound_q1(iv, 0.5, 0.0, 1e308)
        for which, _, qs in PROP_SETTINGS:
            with pytest.raises(ValueError, match=message):
                proposition_bound(which, iv, 1.0, 0.0, 1e308)
            if 2.0 in qs:
                with pytest.raises(ValueError, match=r"^bound overflows: g_a = 0\.0, g_b = 1e\+150 on"):
                    proposition_bound(which, wide, 2.0, 0.0, 1e150)
        # a hundredth of the weight keeps every bound finite
        assert corollary_bound_q1(iv, 0.5, 0.0, 1e306) < math.inf
        assert all(proposition_bound(which, iv, 1.0, 0.0, 1e306) < math.inf for which, _, _ in PROP_SETTINGS)

    def test_overflowing_weight_powers_are_rescaled(self):
        """|f''(300)| of exp is 1.9e130, and its cube passes 1.8e308: the
        bracket takes the powers of g/max(g_a, g_b), as it does where they
        underflow, where it used to raise "g_a^q overflows"."""
        g_a, g_b = math.exp(300.0), math.exp(301.0)
        iv = Interval(300.0, 301.0)
        bound = theorem_bound(BoundInput(iv, 0.0, 3.0, g_a, g_b))
        assert bound == pytest.approx(g_b * theorem_bound(BoundInput(iv, 0.0, 3.0, g_a / g_b, 1.0)), rel=1e-14)
        rescaled = proposition_bound(Proposition.MIDPOINT_PM, UNIT, 3.0, 1.0, g_a)
        assert rescaled == pytest.approx(g_a * proposition_bound(Proposition.MIDPOINT_PM, UNIT, 3.0, 0.0, 1.0))
        # e^1000 overflows; the bound of exp on [0, 1] at q = 1000 is finite
        assert theorem_bound(BoundInput(UNIT, 0.5, 1000.0, 1.0, math.e)) == pytest.approx(0.0566905, rel=1e-6)

    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.sampled_from(LAM_GRID),
        st.floats(1.0, 8.0),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    def test_symmetric_in_endpoint_data(self, lam, q, ga, gb):
        one = theorem_bound(BoundInput(UNIT, lam, q, ga, gb))
        two = theorem_bound(BoundInput(UNIT, lam, q, gb, ga))
        assert abs(one - two) <= 1e-15 * max(1.0, abs(one))

    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.sampled_from(LAM_GRID),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    def test_q1_collapse_matches_corollary(self, lam, ga, gb):
        general = theorem_bound(BoundInput(UNIT, lam, 1.0, ga, gb))
        collapsed = corollary_bound_q1(UNIT, lam, ga, gb)
        assert abs(general - collapsed) <= 1e-12

    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.sampled_from(LAM_GRID),
        st.floats(1.0, 8.0),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
        st.floats(0.01, 100.0),
    )
    def test_positive_homogeneity_in_data(self, lam, q, ga, gb, c):
        base = theorem_bound(BoundInput(UNIT, lam, q, ga, gb))
        scaled = theorem_bound(BoundInput(UNIT, lam, q, c * ga, c * gb))
        assert abs(scaled - c * base) <= 1e-12 * max(1.0, abs(c * base))

    @settings(max_examples=examples(150), deadline=None)
    @given(
        st.sampled_from(LAM_GRID),
        st.floats(1.0, 120.0),
        st.floats(0.01, 10.0),
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        st.integers(-300, 300),
    )
    def test_homogeneous_down_to_tiny_weights(self, lam, q, ga, gb, k):
        """Weights s*g_a and s*g_b give s times the bound, for s from 1e-300
        up to 1e300, also where (s*g)^q falls below the float range or past
        it: the bound of g_a = g_b = 1e-5 at q = 100 used to be 0, since
        (1e-5)^100 underflows, and that of g_a = g_b = 1e5 an error, since
        (1e5)^100 overflows."""
        s = 10.0**-k
        base = theorem_bound(BoundInput(UNIT, lam, q, ga, gb))
        scaled = theorem_bound(BoundInput(UNIT, lam, q, s * ga, s * gb))
        assert abs(scaled - s * base) <= 1e-12 * s * base

    @pytest.mark.parametrize(
        "which,lam",
        [(Proposition.MIDPOINT_PM, 0.0), (Proposition.SIMPSON_PM, 1.0 / 3.0), (Proposition.TRAPEZOID_PM, 1.0)],
    )
    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.floats(1.0, 120.0),
        st.floats(0.01, 10.0),
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        st.integers(0, 300),
    )
    def test_propositions_agree_at_tiny_weights(self, which, lam, q, ga, gb, k):
        """The power-mean propositions scale as theorem_bound does and agree with it."""
        s = 10.0**-k
        special = proposition_bound(which, UNIT, q, s * ga, s * gb)
        base = proposition_bound(which, UNIT, q, ga, gb)
        assert abs(special - s * base) <= 1e-12 * s * base
        general = theorem_bound(BoundInput(UNIT, lam, q, s * ga, s * gb))
        assert abs(special - general) <= 1e-12 * general


class TestCorollary:
    def test_midpoint_matches_quarter_prefactor_form(self):
        got = corollary_bound_q1(UNIT, 0.0, 2.0, 2.0)
        assert got == pytest.approx(0.25 * math.log(4.0 / math.e) * 4.0, abs=1e-12)
        assert got == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_simpson_value(self):
        got = corollary_bound_q1(UNIT, 1.0 / 3.0, 1.0, 1.0)
        assert got == pytest.approx((2.0 / 3.0) * math.log(8.0 / 9.0) + 1.0 / 6.0, abs=1e-12)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            corollary_bound_q1(UNIT, 1.5, 1.0, 1.0)


class TestPropositions:
    @pytest.mark.parametrize("which,lam,qs", PROP_SETTINGS)
    def test_agree_with_general_path(self, which, lam, qs):
        for q in qs:
            for ga, gb in [(2.0, 2.0), (1.0, 0.0), (0.3, 2.7), (5.0, 1.0)]:
                special = proposition_bound(which, UNIT, q, ga, gb)
                general = theorem_bound(BoundInput(UNIT, lam, q, ga, gb))
                assert abs(special - general) <= 1e-12, (which, q, ga, gb)

    def test_trapezoid_q1_value(self):
        assert proposition_bound(Proposition.TRAPEZOID_Q1, UNIT, 1.0, 2.0, 2.0) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_midpoint_pm_matches_theorem_at_q2(self):
        special = proposition_bound(Proposition.MIDPOINT_PM, UNIT, 2.0, 2.0, 2.0)
        general = theorem_bound(BoundInput(UNIT, 0.0, 2.0, 2.0, 2.0))
        assert abs(special - general) <= 1e-12
        assert special == pytest.approx(0.179419, abs=1e-6)

    def test_simpson_pm_at_q1_collapses(self):
        pm = proposition_bound(Proposition.SIMPSON_PM, UNIT, 1.0, 1.0, 1.0)
        q1 = proposition_bound(Proposition.SIMPSON_Q1, UNIT, 1.0, 1.0, 1.0)
        assert abs(pm - q1) <= 1e-12

    def test_q1_variants_reject_other_q(self):
        for which in (
            Proposition.MIDPOINT_Q1,
            Proposition.TRAPEZOID_Q1,
            Proposition.SIMPSON_Q1,
            Proposition.MIDTRAP_Q1,
        ):
            with pytest.raises(ValueError):
                proposition_bound(which, UNIT, 2.0, 1.0, 1.0)

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            proposition_bound(Proposition.MIDPOINT_PM, UNIT, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            proposition_bound(Proposition.MIDPOINT_PM, UNIT, 2.0, -1.0, 1.0)


class TestBoundReport:
    def test_square_midpoint_worked_numbers(self):
        rep = evaluate_bound_report(parse("x^2"), UNIT, 0.0, 1.0)
        assert rep.lhs_abs == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert rep.bound == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
        assert rep.ratio == pytest.approx((1.0 / 12.0) / (2.0 * math.log(2.0) - 1.0), abs=1e-6)
        assert rep.regime is Regime.LOW
        assert rep.q_membership == Decision(True, 1, 0)  # |f''| is constant: the one cell proves it

    def test_square_simpson_is_exact(self):
        rep = evaluate_bound_report(parse("x^2"), UNIT, 1.0 / 3.0, 1.0)
        assert rep.q_membership.passed
        assert rep.lhs_abs <= 1e-10
        assert rep.ratio == pytest.approx(0.0, abs=1e-9)

    def test_exp_checked_pass_and_bounded(self):
        rep = evaluate_bound_report(parse("exp(x)"), UNIT, 1.0, 2.0)
        assert rep.q_membership == Decision(True, 8, 0)  # e^2 > 4: the coarse cells prove it
        assert rep.lhs_abs <= rep.bound

    def test_sine_checked_fail_still_reports(self):
        rep = evaluate_bound_report(parse("sin(x)"), Interval(0.000001, 3.141592), 0.0, 1.0)
        assert rep.q_membership == Decision(False, 63, 1)  # the first pair of the grid's cells violates
        assert rep.lhs_abs > 0.0
        assert rep.bound > 0.0

    def test_skip_mode_reports_unchecked(self):
        rep = evaluate_bound_report(parse("x^2"), UNIT, 0.0, 1.0, skip_membership=True)
        assert rep.q_membership is None

    def test_zero_second_derivative_gives_undefined_ratio(self):
        rep = evaluate_bound_report(parse("x"), UNIT, 0.3, 1.0)
        assert rep.q_membership.passed
        assert rep.bound == 0.0
        assert rep.ratio is None
        assert rep.lhs_abs <= 1e-12


class TestSweepRows:
    @pytest.mark.parametrize(
        "text,iv",
        [("exp(x)*sin(x)+1/(x+2)", Interval(0.0, 3.0)), ("sin(x)", Interval(0.000001, 3.141592)), ("x", UNIT)],
    )
    def test_rows_equal_single_reports(self, text, iv):
        e = parse(text)
        lams = [0.0, 1.0 / 3.0, 0.5, 0.7, 1.0]
        qs = (1.0, 2.5)
        rows = sweep_rows(e, iv, lams, qs)
        assert [(r.lam, r.q) for r in rows] == [(lam, q) for lam in lams for q in qs]
        g_a, g_b = abs(evaluate_jet2(e, iv.a)[2]), abs(evaluate_jet2(e, iv.b)[2])
        passed = {q: membership_for_bound(e, iv, q).passed for q in qs}
        for r in rows:
            bound = theorem_bound(BoundInput(iv, r.lam, r.q, g_a, g_b))
            lhs_abs = abs(lhs_functional(e, iv, r.lam))
            assert (r.lhs_abs, r.bound, r.regime, r.q_membership.passed) == (
                lhs_abs, bound, coefficient_set(r.lam).regime, passed[r.q]
            )
            assert r.ratio == (lhs_abs / bound if bound > 0.0 else None)

    @settings(max_examples=examples(100), deadline=None)
    @given(
        st.sampled_from([
            ("0.00001*x^2/2", UNIT),  # (1e-5)^q is below the normal range from q = 62
            ("exp(x)", UNIT),  # e^q overflows from q = 710
            ("x^4", UNIT),  # g_a = 0
            ("x", UNIT),  # g_a = g_b = 0
            ("exp(x)*sin(x)+1/(x+2)", Interval(0.0, 3.0)),
            ("exp(x)", Interval(300.0, 301.0)),  # e^(300 q) overflows from q = 3
        ]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        st.lists(st.one_of(st.floats(1.0, 8.0), st.sampled_from([1.0, 62.0, 100.0, 710.0, 1000.0])),
                 min_size=1, max_size=4),
    )
    def test_rows_are_each_rows_own_bound_bit_for_bit(self, case, lams, qs):
        """Each row's bound is theorem_bound's for its row alone, and its
        lhs_abs is |E(lam)|, though the sweep takes each q's and each lam's
        parts once."""
        text, iv = case
        e = parse(text)
        q_list = tuple(qs)
        rows = sweep_rows(e, iv, lams, q_list, skip_membership=True)
        assert [(r.lam, r.q) for r in rows] == [(lam, q) for lam in lams for q in q_list]
        g_a, g_b = abs(evaluate_jet2(e, iv.a)[2]), abs(evaluate_jet2(e, iv.b)[2])
        terms = functional_terms(e, iv)
        rescaled = any(_weight_powers(g_a, g_b, q)[2] != 1.0 for q in q_list)
        event("weight powers rescaled" if rescaled else "not rescaled")
        for r in rows:
            assert r.bound.hex() == theorem_bound(BoundInput(iv, r.lam, r.q, g_a, g_b)).hex()
            assert r.lhs_abs.hex() == abs(terms.at(r.lam)).hex()

    @pytest.mark.parametrize(
        "text,iv,lams,q_list,message",
        [
            # w^2/2 of [-1e200, 1e200] overflows; a bad lambda of the first
            # row comes before it, one of a later lambda after it
            ("x", Interval(-1e200, 1e200), [1.5, 0.5], (1.0,), "lambda must be in [0, 1], got 1.5"),
            ("x", Interval(-1e200, 1e200), [0.5, 1.5], (1.0,), "w^2/2 overflows: the width of"),
            ("x", Interval(-1e200, 1e200), [0.5], (0.5, 1.0), "q must be finite and >= 1, got 0.5"),
            # the bound of 1e300*x^2 on [0, 1e10] overflows at every row; a bad
            # q comes before it in its own first row, after it in a later one
            ("1e300*x^2", Interval(0.0, 1e10), [0.5], (0.5, 1.0), "q must be finite and >= 1, got 0.5"),
            ("1e300*x^2", Interval(0.0, 1e10), [0.5], (1.0, 0.5), "bound overflows: g_a = 2e+300"),
            ("1e300*x^2", Interval(0.0, 1e10), [0.5, 1.5], (1.0,), "bound overflows: g_a = 2e+300"),
        ],
    )
    def test_first_error_is_the_first_of_a_row_by_row_check(self, text, iv, lams, q_list, message):
        """Errors come as checking each row in turn, lam-major, meets them:
        lambda, q, the width, then the bound."""
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            sweep_rows(parse(text), iv, lams, q_list)

    def test_coefficients_are_taken_once_per_lambda(self, monkeypatch):
        lams = [0.0, 0.25, 0.5, 0.75, 1.0]
        qs = (1.0, 2.0, 3.0)
        e = parse("exp(x)")
        expected = sweep_rows(e, UNIT, lams, qs, skip_membership=True)
        taken = []

        def counted(lam):
            taken.append(lam)
            return coefficient_set(lam)

        monkeypatch.setattr(glbounds.bounds, "coefficient_set", counted)
        assert sweep_rows(e, UNIT, lams, qs, skip_membership=True) == expected
        assert taken == lams

    def test_modes_without_a_scan_label_every_row(self, monkeypatch):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        monkeypatch.setattr(glbounds.qclass, "_decide", None)  # nor any decision
        # sine fails the scan, so a row labelled from one would read CheckedFail
        iv = Interval(0.000001, 3.141592)
        rows = sweep_rows(parse("sin(x)"), iv, [0.0, 0.5], (1.0, 2.0), skip_membership=True)
        assert [(r.lam, r.q) for r in rows] == [(0.0, 1.0), (0.0, 2.0), (0.5, 1.0), (0.5, 2.0)]
        assert all(r.q_membership is None for r in rows)

    def test_no_lambda_has_no_row_to_label(self, monkeypatch):
        """A sweep with no lambda has no row, so it checks no q and makes no
        membership decision: [], as checking each row in turn gives, decided
        or skipped."""
        monkeypatch.setattr(glbounds.qclass, "bound_memberships", None)  # no decision may start
        for skip in (False, True):
            assert sweep_rows(parse("x^2"), UNIT, [], (0.5,), skip) == []

    def test_every_label_is_decided_or_skipped(self):
        # no mode lets a caller vouch for membership: Certified returns only
        # with evidence behind it; a label is a decision record's passed, or
        # None where membership was skipped
        from glbounds.cli import _LABELS as labels

        assert [labels[True], labels[False], labels[None]] == ["CheckedPass", "CheckedFail", "Unchecked"]
        assert len(labels) == 3 and Decision._fields == ("passed", "cover", "pairs")
        for name in ("MembershipMode", "MembershipStatus"):
            assert not hasattr(glbounds, name)
            assert name not in glbounds.__all__


_PROVEN = [
    ("x^2", UNIT),
    ("exp(x)", UNIT),
    ("(exp(x)+exp(-x))/2", Interval(-1.0, 1.0)),
    ("1/(x+2)", UNIT),
    ("exp(x)*sin(x)+1/(x+2)", UNIT),
    # the three sin(x) windows of the benchmark's edge workload
    ("sin(x)", Interval(0.0, 1e-9)),
    ("sin(x)", Interval(0.9794975728318639, 0.9794975740611019)),
    ("sin(x)", Interval(1.4749804397726285, 1.474980974205062)),
]


class TestProvenMembership:
    """CHECK mode labels every report from the membership decision, which runs
    no scan and answers as the scan does."""

    @pytest.mark.parametrize("text,iv", _PROVEN)
    def test_proof_labels_without_a_scan(self, monkeypatch, text, iv):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        e = parse(text)
        for q in (1.0, 2.0, 3.0):
            rep = evaluate_bound_report(e, iv, 0.5, q)
            assert rep.q_membership.passed
        rows = sweep_rows(e, iv, [0.0, 0.5], (1.0, 2.0, 3.0))
        assert all(r.q_membership.passed for r in rows)

    # each case keeps the id it had when its label was an enum member
    @pytest.mark.parametrize(
        "text,iv,q,decision",
        [
            # |f''|^q = (12 x^2)^q grows past 4 g(x_0) within the first cell for q > 1
            pytest.param("x^4", UNIT, 2.0, Decision(True, 63, 1), id="x^4-iv0-2.0-MembershipStatus.CHECKED_PASS"),
            pytest.param("x^4", UNIT, 3.0, Decision(True, 63, 1), id="x^4-iv1-3.0-MembershipStatus.CHECKED_PASS"),
            *(
                pytest.param("sin(x)", Interval(0.000001, 3.141592), q, Decision(False, 63, 1),
                             id=f"sin(x)-iv{k}-{q}-MembershipStatus.CHECKED_FAIL")
                for k, q in ((2, 1.0), (3, 2.0), (4, 3.0))
            ),
        ],
    )
    def test_unproven_cases_reach_the_scan(self, monkeypatch, text, iv, q, decision):
        """Where pairs stay above the tolerance, the decision visits them on
        the grid's cells, and the label reaches the scan's verdict without a
        scan."""
        e = parse(text)
        with monkeypatch.context() as m:
            m.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
            assert evaluate_bound_report(e, iv, 0.5, q).q_membership == decision
        assert decision.passed is membership_for_bound(e, iv, q).passed

    def test_sweeps_share_one_cover(self, monkeypatch):
        calls = []
        original = glbounds.enclosure.compile_second_derivative

        def counted(e):
            bound = original(e)

            def each(cells):
                calls.append((e, len(cells)))
                return bound(cells)

            return each

        monkeypatch.setattr(glbounds.enclosure, "compile_second_derivative", counted)
        e = parse("exp(x)")
        sweep_rows(e, UNIT, [0.0, 0.5, 1.0], (1.0, 2.0, 3.0))
        # one enclosure on the one cell that holds the grid, which proves q = 1,
        # one on the 8 coarse cells, which prove q = 2, then one on the 63
        # cells of the default grid, for q = 3
        assert calls == [(e, 1), (e, 8), (e, 63)]


class TestHermiteHadamard:
    def test_square(self):
        rep = hermite_hadamard_check(parse("x^2"), UNIT)
        assert rep.holds
        assert rep.lower == pytest.approx(0.25, abs=1e-15)
        assert rep.mid == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert rep.upper == pytest.approx(0.5, abs=1e-15)

    def test_exp(self):
        rep = hermite_hadamard_check(parse("exp(x)"), UNIT)
        assert rep.holds
        assert rep.lower == pytest.approx(1.648721, abs=1e-6)
        assert rep.mid == pytest.approx(1.718281, abs=1e-6)
        assert rep.upper == pytest.approx(1.859140, abs=1e-6)

    def test_constant_equality_case(self):
        rep = hermite_hadamard_check(parse("3"), UNIT)
        assert rep.holds
        assert rep.lower == rep.upper == 3.0

    def test_rejects_non_convex(self):
        with pytest.raises(ValueError, match="convexity"):
            hermite_hadamard_check(parse("sin(x)"), Interval(0.1, 3.0))

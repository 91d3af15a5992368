import math
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import glbounds
import glbounds.ratio
from glbounds import (
    ExpectedMembership,
    Interval,
    QClassReport,
    Violation,
    check_godunova_levin,
    compile_expression,
    corpus_entries,
    evaluate,
    membership_for_bound,
    parse,
    sweep_rows,
)
from glbounds.cli import main
from glbounds.qclass import scan_proven_to_pass, second_derivative_cover, value_cover
from conftest import examples
from oracles import nonneg_convex_witness
from test_expressions import _tree_strategy

SINE_INTERVAL = Interval(0.000001, 3.141592)
UNIT_IV = Interval(0.0, 1.0)
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
    _, jet = compile_expression(parse(text))
    return lambda x: abs(jet(x)[2]) ** q


def value_of(text):
    """x -> f(x), compiled once: the reference scans call it n^3 times."""
    return compile_expression(parse(text))[0]


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
        # an infinite tolerance would pass every function
        with pytest.raises(ValueError, match="tol must be finite and positive, got inf"):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 1.0), tol=math.inf)
        with pytest.raises(ValueError, match="cover was built for another interval or grid"):
            check_godunova_levin(lambda x: 1.0, UNIT_IV, 16, cover=value_cover(parse("1"), UNIT_IV, 8))


def pruned_and_unpruned(text, iv, grid_n=64, q=None):
    """g, and the scan of it with no cover and with its cover: g = f for q None
    (qclass --g), else |f''|^q (qclass --fn). Asserts that the cover exists."""
    e = parse(text)
    if q is None:
        g, cover = value_of(text), value_cover(e, iv, grid_n)
        assert cover is not None
        return g, [check_godunova_levin(g, iv, grid_n), check_godunova_levin(g, iv, grid_n, cover=cover)]
    cover = second_derivative_cover(e, iv, grid_n)
    assert cover is not None
    reports = [membership_for_bound(e, iv, q, grid_n), membership_for_bound(e, iv, q, grid_n, cover=cover)]
    return second_derivative_power(text, q), reports


class TestAgainstPlainLoop:
    """Every scan, with its cover and without, is the plain loop's, bit for bit."""

    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("name", [entry.name for entry in corpus_entries()])
    def test_corpus_scans_match(self, membership_report, corpus_by_name, name, q):
        entry = corpus_by_name[name]
        e = parse(entry.expression)
        g = second_derivative_power(entry.expression, q)
        ref = reference_scan(g, entry.interval)
        assert same_report(membership_report(name, q), ref)
        cover = second_derivative_cover(e, entry.interval)
        assert cover is not None
        assert same_report(membership_for_bound(e, entry.interval, q, cover=cover), ref)
        if (name, q) == ("sine", 1.0):
            assert len(ref.violations) == 3520

    @pytest.mark.parametrize(
        "text,iv,grid_n,q",
        [
            (COMPOSITE, Interval(0.123, 0.987), 64, 2.0),
            (COMPOSITE, Interval(0.123, 0.987), 64, None),
            ("sin(x)", Interval(-3.7, 5.2), 64, None),
            ("sin(x)", Interval(0.0, 1e-9), 64, 1.0),
            # grids where only some lams have an exact mirror; odd ones have lam = 1/2
            ("sin(x)", SINE_INTERVAL, 31, None),
            ("sin(x)", SINE_INTERVAL, 101, None),
            ("x*x", Interval(-3.7, 5.2), 100, None),
            ("x^2", Interval(-3.7, 5.2), 128, None),
            ("x^2", Interval(-3.7, 5.2), 256, None),
            (COMPOSITE, Interval(0.123, 0.987), 9, None),
            # g < 0 on half the grid: no pair with a negative end is skipped
            ("x", Interval(-1.0, 1.0), 64, None),
            # g spans +-1e308, so g(x)/lam + g(y)/(1-lam) is inf + -inf, a NaN
            # margin, near lam = 1/2 (998 of the 64^3 triples, 110 of the 31^3)
            ("1e308*sin(x)", Interval(0.1, 6.2), 64, None),
            ("1e308*sin(x)", Interval(0.1, 6.2), 31, None),
        ],
        ids=[
            "composite-fn-q2",
            "composite-g",
            "sin-g-wide",
            "sin-fn-window",
            "sin-31",
            "sin-101",
            "square-100",
            "square-128",
            "square-256",
            "composite-9",
            "identity-negative",
            "nan-margins-64",
            "nan-margins-31",
        ],
    )
    def test_other_scans_match(self, text, iv, grid_n, q):
        g, reports = pruned_and_unpruned(text, iv, grid_n, q)
        ref = reference_scan(g, iv, grid_n)
        assert all(same_report(rep, ref) for rep in reports)

    def test_pairs_with_a_negative_end_are_kept(self, monkeypatch):
        kept = []
        original = glbounds.ratio.kept_columns

        def recorded(xs, gx, *args):
            kept.append((gx, original(xs, gx, *args)))
            return kept[-1][1]

        monkeypatch.setattr(glbounds.ratio, "kept_columns", recorded)
        pruned_and_unpruned("x", Interval(-1.0, 1.0))
        [(gx, keep)] = kept
        for i, cols in enumerate(keep):
            expected = range(64) if gx[i] < 0.0 else [j for j in range(64) if gx[j] < 0.0]
            assert set(expected) <= set(cols)
        assert sum(map(len, keep)) < 64 * 64  # and some pairs were skipped

    @pytest.mark.parametrize(
        "grid_n,mirrored", [(64, 64), (128, 128), (31, 8), (100, 34), (101, 30), (9, 2)]
    )
    def test_exact_mirror_counts(self, grid_n, mirrored):
        # the grids above cover all, some and (with lam = 1/2) odd mirror cases
        n = grid_n
        lams = [(k + 0.5) / n for k in range(n)]
        exact = [
            k
            for k in range(n)
            if k != n - 1 - k and 1.0 - lams[k] == lams[n - 1 - k] and 1.0 - lams[n - 1 - k] == lams[k]
        ]
        assert len(exact) == mirrored

    def test_signed_zeros_kept_apart(self):
        # on this window both 0.0 and -0.0 are scan points, and they compare equal
        iv = Interval(-3e-323, 3e-323)
        points = scan_points(iv, 9)
        assert {(0.0).hex(), (-0.0).hex()} <= points
        g = lambda x: 2.0 + math.copysign(1.0, x)
        assert same_report(check_godunova_levin(g, iv, grid_n=9), reference_scan(g, iv, grid_n=9))

    def test_signed_zero_maximum_keeps_the_visit_order(self):
        # All margins are <= 0. The first zero margins share the mirrored lam
        # (k = 3 of 23): (x_p, x_q, lam) gives -0.0 - 0.0 = -0.0, while
        # (x_q, x_p, lam) gives 0.0 - 0.0 = 0.0. The lam visits the first of
        # them first, its mirror the second, and the plain loop keeps -0.0.
        iv, n, k, p, q = Interval(1.1, 1.3), 23, 3, 9, 20
        xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
        lam, mirror = (k + 0.5) / n, (n - 1 - k + 0.5) / n
        assert 1.0 - lam == mirror and 1.0 - mirror == lam
        values = dict.fromkeys(scan_points(iv, n), -1.0)
        values.update((x.hex(), 1.0) for x in xs)
        values[xs[p].hex()] = values[xs[q].hex()] = 0.0
        values[(lam * xs[p] + (1.0 - lam) * xs[q]).hex()] = -0.0
        values[(lam * xs[q] + (1.0 - lam) * xs[p]).hex()] = 0.0
        g = lambda x: values[x.hex()]
        ref = reference_scan(g, iv, n)
        assert ref.max_margin == 0.0 and math.copysign(1.0, ref.max_margin) == -1.0
        assert same_report(check_godunova_levin(g, iv, n), ref)

    def test_sine_violations_come_in_mirror_pairs(self, membership_report):
        # at grid 64 every lam has an exact mirror, and (y, x, 1 - lam) is
        # the same inequality as (x, y, lam), with the same sides
        violations = membership_report("sine", 1.0).violations
        mirrored = {Violation(v.y, v.x, 1.0 - v.lam, v.lhs, v.rhs) for v in violations}
        assert mirrored == set(violations)
        assert any(v.lam < 0.5 for v in violations) and any(v.lam > 0.5 for v in violations)

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

    def test_membership_for_bound_rejects_overflowing_power(self):
        # |f''| of exp near 300 is about 2e130, and its cube passes 1.8e308
        with pytest.raises(ValueError, match=r"overflows at x=300\.125: \|f''\| = 2\.2\d*e\+130, q = 3\.0"):
            membership_for_bound(parse("exp(x)"), Interval(300.0, 301.0), 3.0, grid_n=4)

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

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_rejects_q_that_is_not_finite(self, q, monkeypatch):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        with pytest.raises(ValueError, match="q must be finite and >= 1"):
            membership_for_bound(parse("sin(x)"), SINE_INTERVAL, q)


def _counting_compile(monkeypatch, seen):
    """Make every jet compiled in qclass count its calls per point (by float.hex)."""
    original = glbounds.qclass.compile_expression

    def compile_counting(e):
        value, jet = original(e)

        def counted(x):
            seen[x.hex()] += 1
            return jet(x)

        return value, counted

    monkeypatch.setattr(glbounds.qclass, "compile_expression", compile_counting)


def _unshared(monkeypatch):
    """Give every scan of a sweep its own |f''|, as before they shared one."""
    monkeypatch.setattr(glbounds.bounds, "second_derivative_memo", glbounds.qclass._abs_second_derivative)


class TestSweepSharesSecondDerivative:
    def _sweep_points(self, monkeypatch):
        seen = Counter()
        _counting_compile(monkeypatch, seen)
        rows = sweep_rows(parse(COMPOSITE), Interval(0.0, 3.0), [0.0, 0.5, 1.0], (1.0, 2.0, 3.0))
        assert len(rows) == 9
        assert set(seen.values()) == {1}
        return set(seen)

    def test_jet_called_once_per_distinct_point(self, monkeypatch):
        # with the cover declined there is no proof, and every scan visits every pair
        monkeypatch.setattr(glbounds.bounds, "second_derivative_cover", lambda e, iv: None)
        assert self._sweep_points(monkeypatch) == scan_points(Interval(0.0, 3.0), 64)

    def test_covered_scans_skip_points(self, monkeypatch):
        assert self._sweep_points(monkeypatch) < scan_points(Interval(0.0, 3.0), 64)

    @pytest.mark.parametrize(
        "fn,a,b",
        [
            ("1/(x-0.5)", "0", "1"),  # a scan point lands on the pole
            ("exp(x)", "300", "301"),  # |f''|^3 overflows, |f''| does not
            ("abs(x-0.0859375)", "0", "1"),  # non-smooth at the scan point 11/128
        ],
    )
    def test_first_error_is_unchanged(self, fn, a, b, tmp_path, monkeypatch, capsys):
        argv = ["sweep", "--fn", fn, "--a", a, "--b", b, "--lambda-grid", "0:1:0.5", "--q", "1,2,3",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 2
        shared = capsys.readouterr()
        _unshared(monkeypatch)
        assert main(argv) == 2
        assert capsys.readouterr() == shared
        assert shared.err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_files_are_byte_identical(self, fmt, tmp_path, monkeypatch, capsys):
        def run(path):
            argv = ["sweep", "--fn", COMPOSITE, "--a", "0", "--b", "3", "--lambda-grid", "0:1:0.25",
                    "--q", "1,2,3", "--format", fmt, "--out", str(path)]
            assert main(argv) == 0
            return path.read_bytes()

        shared = run(tmp_path / "shared")
        _unshared(monkeypatch)
        assert run(tmp_path / "unshared") == shared
        assert b"CheckedPass" in shared and b"CheckedFail" in shared


def _window(a, width):
    return (a, a + width)


_PROOF_ENDS = st.one_of(
    st.sampled_from([(entry.interval.a, entry.interval.b) for entry in corpus_entries()]),
    st.builds(_window, st.floats(0.0, 3.0), st.floats(1e-9, 1e-6)),
    st.builds(_window, st.floats(1e3, 1e8), st.floats(1e-6, 1.0)),
)


class TestProof:
    """scan_proven_to_pass may only say True where the scan passes and raises nothing."""

    @settings(max_examples=examples(100), deadline=None)  # about 60 ms per proven example
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.floats(1.0, 3.0),
    )
    def test_a_proof_implies_the_scan_passes(self, e, ends, q):
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        if scan_proven_to_pass(e, iv, q, second_derivative_cover(e, iv)):
            assert membership_for_bound(e, iv, q).passed

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    def test_shared_second_derivative_gives_the_same_decision(self, q):
        e, iv = parse(COMPOSITE), Interval(0.0, 1.0)
        cover = second_derivative_cover(e, iv)
        shared = glbounds.qclass.second_derivative_memo(e)
        assert scan_proven_to_pass(e, iv, q, cover) is True
        assert scan_proven_to_pass(e, iv, q, cover, shared) is True

    def test_declines_without_a_cover_or_on_any_error(self):
        e = parse("x^2")
        assert second_derivative_cover(parse("1/x"), Interval(-1.0, 1.0)) is None
        assert scan_proven_to_pass(e, UNIT_IV, 1.0, None) is False
        cover = second_derivative_cover(e, UNIT_IV)
        assert scan_proven_to_pass(e, UNIT_IV, 1.0, cover) is True

        def broken(x):
            raise RuntimeError("boom")

        assert scan_proven_to_pass(e, UNIT_IV, 1.0, cover, broken) is False
        assert scan_proven_to_pass(e, UNIT_IV, 1.0, cover, lambda x: math.inf) is False

    @pytest.mark.parametrize(
        "iv",
        [
            UNIT_IV,
            Interval(-3.7, 5.2),
            Interval(0.0, 1e-9),
            Interval(1e8, 1e8 + 1e-6),  # grid spacing 1.6e-8, about one ulp and below delta
            Interval(-1e8 - 1e-6, -1e8),
        ],
    )
    def test_cells_hold_every_scan_point(self, iv):
        cover = second_derivative_cover(parse("x^2"), iv)
        xs, bounds, first, last = cover.xs, cover.bounds, cover.first, cover.last
        assert xs == [iv.a + iv.width * (i + 0.5) / 64 for i in range(64)]
        assert bounds == sorted(bounds) and len(bounds) == 65
        for k in range(64):
            lam = (k + 0.5) / 64
            clam = 1.0 - lam
            for i, xi in enumerate(xs):
                for j, xj in enumerate(xs):
                    z = lam * xi + clam * xj
                    lo, hi = first[min(i, j)], last[max(i, j)]
                    assert bounds[lo] <= z <= bounds[hi + 1]


def _outcome(scan, cover):
    """The report with the sign of its max_margin, or the exception's type and message."""
    try:
        rep = scan(cover)
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc), str(exc))
    return rep, math.copysign(1.0, rep.max_margin)


class TestPruning:
    """A cover changes no scan's report or error, and it does skip points."""

    @settings(max_examples=examples(60), deadline=None)
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.sampled_from([9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_a_cover_changes_no_outcome(self, e, ends, grid_n, q):
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        if q is None:  # qclass --g
            g = compile_expression(e)[0]
            cover = value_cover(e, iv, grid_n)
            scan = lambda cover: check_godunova_levin(g, iv, grid_n, cover=cover)
        else:  # qclass --fn
            cover = second_derivative_cover(e, iv, grid_n)
            scan = lambda cover: membership_for_bound(e, iv, q, grid_n, cover=cover)
        assert _outcome(scan, cover) == _outcome(scan, None)

    @pytest.mark.parametrize(
        "name", [e.name for e in corpus_entries() if e.membership is not ExpectedMembership.EXPECT_FAIL]
    )
    def test_passing_members_skip_points(self, corpus_by_name, name):
        entry = corpus_by_name[name]
        e, iv = parse(entry.expression), entry.interval
        seen = Counter()
        f, _ = compile_expression(e)

        def g(x):
            seen[x.hex()] += 1
            return f(x)

        rep = check_godunova_levin(g, iv, cover=value_cover(e, iv))
        assert rep.passed
        assert len(seen) < len(scan_points(iv, 64))


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

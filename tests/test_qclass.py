import bisect
import copy
import math
import pickle
import sys
from collections import Counter

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import glbounds
import glbounds.qclass
from glbounds import (
    BoundInput,
    ExpectedMembership,
    Interval,
    QClassReport,
    Violation,
    check_expression,
    check_godunova_levin,
    compile_expression,
    corpus_entries,
    evaluate,
    membership_for_bound,
    parse,
    sweep_rows,
)
from glbounds.cli import main
from glbounds.expressions import Bin, Const, DomainError, ExpressionError, NonSmoothError
from glbounds.enclosure import compile_second_derivative, compile_value, inf_power, sup_power
from glbounds.qclass import (
    DEFAULT_TOL,
    _cells,
    _bound_row,
    _decide,
    _point_lows,
    _PointMemo,
    _q_power,
    _row_keys,
    _row_parts,
    _scan_grid,
    _visits,
    _walk,
    bound_memberships,
)
from conftest import examples
from oracles import (
    EVERY,
    PlainReport,
    bound_rows,
    lam_major,
    nonneg_convex_witness,
    plain_report,
    plain_scan,
    ranked_pairs_eager,
    suffix_keys,
)
from test_expressions import _tree_strategy

SINE_INTERVAL = Interval(0.000001, 3.141592)
COINCIDING = Interval(1e8, 100000000.00000015)  # its 64 grid points are 11 floats
EDGE_SINE_WINDOW = Interval(1.8493089598931096, 1.8493095160393422)  # a window of the edge benchmark
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
    return PlainReport(n * n * n, tuple(unique), max_margin, not unique)


def enclosed(e, iv, grid_n, of_value=False):
    """The grid points of the scan of iv at grid_n, and the enclosure's bound
    of |f''| (of f where of_value) on each of their cells, as the scan reads
    it: inf where the enclosure declines."""
    xs = _scan_grid(iv, grid_n, DEFAULT_TOL)
    bound = compile_value if of_value else compile_second_derivative
    return xs, [high for _, high in bound(e)(_cells(xs))]


def powered(sup, q):
    """The cell bounds of |f''|^q from those of |f''|."""
    return [sup_power(s, q) for s in sup]


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
    """Bitwise equality of the four reported fields (oracles.plain_report),
    including the sign of a zero max_margin."""
    signs = math.copysign(1.0, one.max_margin), math.copysign(1.0, two.max_margin)
    return plain_report(one) == plain_report(two) and signs[0] == signs[1]


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
        coarse = check_godunova_levin(g, SINE_INTERVAL, grid_n=8, keep=EVERY)
        fine = check_godunova_levin(g, SINE_INTERVAL, grid_n=24, keep=EVERY)
        assert not coarse.passed
        coarse_triples = {(v.x, v.y, v.lam) for v in coarse.violations}
        fine_triples = {(v.x, v.y, v.lam) for v in fine.violations}
        assert coarse_triples <= fine_triples

    def test_negative_function_fails(self):
        rep = check_godunova_levin(lambda x: -1.0, Interval(0.0, 1.0), grid_n=8)
        assert not rep.passed
        assert rep.max_margin >= 3.0 - 1e-15

    def test_negative_region_recorded_at_degenerate_triple(self):
        rep = check_godunova_levin(lambda x: x, Interval(-1.0, 1.0), grid_n=8, keep=EVERY)
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
        # a bound must give one value per cell: 15 at grid 16
        for count in (7, 16):
            with pytest.raises(ValueError, match=f"bound gave {count} values for the 15 cells of the grid"):
                check_godunova_levin(lambda x: 1.0, UNIT_IV, 16, bound=lambda cells: [1.0] * count)

    def test_nan_cell_bounds_count_as_inf(self):
        # a NaN bound would fail every comparison, and drop its pairs from the
        # ranking: the failing sine scan would pass with no violation
        g = _q_power(parse("sin(x)"), 1.0)
        ref = reference_scan(g, SINE_INTERVAL)
        assert len(ref.violations) == 3520
        for nan_at in (lambda k: True, lambda k: k % 2 == 0):
            calls = []

            def bound(cells):  # |sin| lies in [0, 1]
                calls.append(len(cells))
                return [(math.nan, math.nan) if nan_at(k) else (0.0, 1.0) for k in range(len(cells))]

            rep = check_godunova_levin(g, SINE_INTERVAL, bound=bound, keep=EVERY)
            assert calls == [63]  # called once, on the 63 cells of grid 64
            assert same_report(rep, ref)

    def test_rejects_grid_points_past_the_float_range(self):
        # iv.a + width*(i + 0.5)/n: width*(n - 0.5) overflows at grid 8 once
        # the width passes 1.797e308/7.5, about 2.4e307
        assert check_godunova_levin(lambda x: 1.0, Interval(0.0, 2.3e307), 8).passed
        msg = r"the 8 grid points of \[0\.0, 2\.4e\+307\] overflow the float range"
        with pytest.raises(ValueError, match=msg):
            check_godunova_levin(lambda x: 1.0, Interval(0.0, 2.4e307), 8)
        with pytest.raises(ValueError, match="the 64 grid points"):
            membership_for_bound(parse("x^2"), Interval(-1e307, 1e307), 1.0)


class TestViolation:
    """A Violation is a tuple of five floats with a margin, and keeps the
    surface the dataclass it replaced had."""

    def test_fields_and_margin(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert Violation._fields == ("x", "y", "lam", "lhs", "rhs")
        assert (v.x, v.y, v.lam, v.lhs, v.rhs) == (0.25, 0.75, 0.5, 3.0, 1.25)
        assert v.margin == 1.75
        assert Violation(0.0, 0.0, 0.5, 1.0, -math.inf).margin == math.inf

    def test_repr_is_the_dataclass_one(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert repr(v) == "Violation(x=0.25, y=0.75, lam=0.5, lhs=3.0, rhs=1.25)"

    def test_equality_and_hashing(self):
        v = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        same = Violation(0.25, 0.75, 0.5, 3.0, 1.25)
        assert v == same and hash(v) == hash(same) and len({v, same}) == 1
        assert v != Violation(0.75, 0.25, 0.5, 3.0, 1.25)
        # a tuple: it unpacks, orders and compares as the plain 5-tuple does
        assert tuple(v) == (0.25, 0.75, 0.5, 3.0, 1.25) and v == (0.25, 0.75, 0.5, 3.0, 1.25)
        assert v < Violation(0.25, 0.75, 0.625, 0.0, 0.0)
        with pytest.raises(AttributeError):
            v.x = 1.0


class TestScanRecord:
    """The scan counts each violation once, so the count that qclass prints
    is the number of violations, and keeps only the keep worst."""

    @pytest.mark.parametrize(
        "text,iv,grid_n,count",
        [
            # the check for negative values meets the walk's own (x, x, 1/2) at an odd grid
            ("x-0.5", UNIT_IV, 9, 356),
            # 11 distinct grid points of 64: the walk meets each violation once
            ("0-1", Interval(1e8, 100000000.00000015), 64, 7755),
        ],
        ids=["negative-values-at-an-odd-grid", "coinciding-grid-points"],
    )
    def test_repeats_are_recorded_once(self, text, iv, grid_n, count):
        rep = check_expression(parse(text), iv, grid_n, keep=EVERY)
        assert rep.count == len(rep.violations) == len(set(rep.violations)) == count
        assert same_report(rep, plain_scan(value_of(text), iv, grid_n))
        assert check_expression(parse(text), iv, grid_n).count == count

    def test_coinciding_grid_points_are_scanned_once(self):
        """At 1e8 the 64 grid points are 11 floats, and the scan runs on
        those 11: the enclosure is asked for their 10 cells, and the report,
        keeping the ten worst or all, is the plain loop's on all 64."""
        text = "x-100000000.0000001"  # negative at most grid points of COINCIDING
        e, iv = parse(text), COINCIDING
        assert len(set(_scan_grid(iv, 64, DEFAULT_TOL))) == 11
        asked = []
        bound = compile_value(e)
        rep = check_godunova_levin(value_of(text), iv, 64, DEFAULT_TOL,
                                   lambda cells: asked.append(len(cells)) or bound(cells), keep=EVERY)
        assert asked == [10]
        assert same_report(rep, plain_scan(value_of(text), iv))
        assert check_expression(e, iv, 64) == rep._replace(kept=rep.kept[:10])

    def test_a_report_with_cell_bounds_equals_one_without(self):
        """The cells prove most violations of the failing sine scan, and the
        report equals the same scan's without cell bounds, which proves
        nothing: every violation kept, or the ten worst. A report is a named
        tuple; assigning a field raises."""
        e = parse("sin(x)")
        rep = membership_for_bound(e, SINE_INTERVAL, 2.0, keep=EVERY)
        plain = check_godunova_levin(_q_power(e, 2.0), SINE_INTERVAL, keep=EVERY)
        assert rep == plain and len(rep.violations) == rep.count == 14852
        ten = membership_for_bound(e, SINE_INTERVAL, 2.0)
        assert ten == check_godunova_levin(_q_power(e, 2.0), SINE_INTERVAL) == rep._replace(kept=rep.kept[:10])
        with pytest.raises(AttributeError):
            rep.max_margin = 0.0

    def test_a_report_pickles_and_copies_as_its_fields(self):
        """A report is a named tuple of four fields: it copies and pickles
        into a report equal to it, and equals the plain tuple of its fields.
        worst and violations raise where asked for more than it kept."""
        rep = check_godunova_levin(math.sin, Interval(0.5, 9.0), 9)
        assert rep.count == 243 and rep._fields == ("samples_checked", "max_margin", "count", "kept")
        assert rep == tuple(rep) and len(rep.kept) == 10
        for twin in (pickle.loads(pickle.dumps(rep)), copy.copy(rep)):
            assert twin == rep and twin.worst(10) == rep.worst(10)
        with pytest.raises(AttributeError):
            rep.max_margin = 0.0
        with pytest.raises(ValueError, match="the scan kept 10 of 243 violations, not 11"):
            rep.worst(11)
        with pytest.raises(ValueError, match="the scan kept 10 of 243 violations, not 243"):
            rep.violations
        with pytest.raises(ValueError, match="keep must be >= 0, got -1"):
            check_godunova_levin(math.sin, Interval(0.5, 9.0), 9, keep=-1)

    @pytest.mark.parametrize("grid_n", [2, 9, 31, 64, 100, 101, 128])
    @pytest.mark.parametrize("q", [1.878, None], ids=["fn", "g"])
    def test_sine_records_each_violation_once(self, q, grid_n):
        e = parse("sin(x)")
        if q is None:
            scan = lambda keep: check_expression(e, SINE_INTERVAL, grid_n, keep=keep)
        else:
            scan = lambda keep: membership_for_bound(e, SINE_INTERVAL, q, grid_n, keep=keep)
        every, rep = scan(EVERY), scan(10)
        assert rep.count == every.count == len(every.violations) == len(set(every.violations))
        assert rep.kept == every.kept[:10] and len(rep.worst(10)) == min(10, rep.count)
        assert scan(0) == rep._replace(kept=())


class TestValidatingTypes:
    """Interval and BoundInput validate in a __new__ on a subclass of a named
    tuple, and keep the surface of the dataclasses they replaced: the repr
    that error messages quote, and no attribute to assign."""

    @pytest.mark.parametrize(
        "value,text",
        [
            (Interval(-2.5, 3.0), "Interval(a=-2.5, b=3.0)"),
            (Interval(-0.0, 5e-324), "Interval(a=-0.0, b=5e-324)"),  # the sign of 0 and a subnormal kept
            (
                BoundInput(Interval(0.0, 1.0), 0.25, 2.0, 1.0, 0.0),
                "BoundInput(iv=Interval(a=0.0, b=1.0), lam=0.25, q=2.0, g_a=1.0, g_b=0.0)",
            ),
        ],
    )
    def test_repr_names_every_field(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize(
        "value,field",
        [
            (Interval(0.0, 1.0), "a"),
            (BoundInput(Interval(0.0, 1.0), 0.5, 1.0, 1.0, 1.0), "lam"),
            (BoundInput(Interval(0.0, 1.0), 0.5, 1.0, 1.0, 1.0), "q"),
        ],
    )
    def test_immutable(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.75)
        with pytest.raises(AttributeError):
            value.extra = 1.0  # no __dict__ to put it in

    def test_tuples_that_unpack_compare_and_hash(self):
        a, b = Interval(0.0, 1.0)
        assert (a, b) == (0.0, 1.0)
        assert Interval(0.0, 1.0) == (0.0, 1.0) and hash(Interval(0.0, 1.0)) == hash((0.0, 1.0))


def record_taken(monkeypatch):
    """Make qclass.ranked_pairs hand its pairs (b, i, j) out one at a time, and
    record each pair a walk takes, one list per ranking, in the list returned.
    A walk visits every pair it takes, but for a last one with b at most the
    tolerance and below the largest margin, where it stops; only a scan
    with no negative value ranks such pairs (_walk's floor)."""
    taken = []
    original = glbounds.qclass.ranked_pairs

    def recorded(*args):
        taken.append([])
        for pair in original(*args):
            taken[-1].append(pair)
            yield pair

    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", recorded)
    return taken


def record_work(monkeypatch):
    """Record the work of every membership decision and scan in the dict
    returned: the number of cells of each enclosure of |f''| ("covers"), the
    evaluations of g = |f''|^q or g = f ("points"), the rankings started
    ("rankings") and the rows of pair bounds built ("rows")."""
    work = {"covers": [], "points": 0, "rankings": 0, "rows": 0}
    compile_d2 = glbounds.enclosure.compile_second_derivative
    q_power, value = glbounds.qclass._q_power, glbounds.qclass._compile_value
    rank, build = glbounds.qclass.ranked_pairs, glbounds.qclass._bound_row

    def counted_compile(e):
        bound = compile_d2(e)

        def each(cells):
            work["covers"].append(len(cells))
            return bound(cells)

        return each

    def counted_q_power(e, q):
        return counted(q_power(e, q))

    def counted_value(e):
        return counted(value(e))

    def counted(g):
        def point(x):
            work["points"] += 1
            return g(x)

        return point

    def counted_rank(*args):
        work["rankings"] += 1
        return rank(*args)

    def counted_build(*args):
        work["rows"] += 1
        return build(*args)

    monkeypatch.setattr(glbounds.enclosure, "compile_second_derivative", counted_compile)
    monkeypatch.setattr(glbounds.qclass, "_q_power", counted_q_power)
    monkeypatch.setattr(glbounds.qclass, "_compile_value", counted_value)
    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", counted_rank)
    monkeypatch.setattr(glbounds.qclass, "_bound_row", counted_build)
    return work


def cleared_triples(monkeypatch, text, iv, grid_n, q):
    """The report of the scan of qclass --g (q None) or --fn at q, keeping
    no violation, and each triple (p, r, lam, rhs) of a pair its walk visits
    whose point g was never read at and which is no violation: a triple its
    cell cleared (its cell proves the others)."""
    read = set()
    value, q_power = glbounds.qclass._compile_value, glbounds.qclass._q_power

    def recorded(g):
        def point(x):
            read.add(x.hex())
            return g(x)

        return point

    monkeypatch.setattr(glbounds.qclass, "_compile_value", lambda e: recorded(value(e)))
    monkeypatch.setattr(glbounds.qclass, "_q_power", lambda e, q: recorded(q_power(e, q)))
    taken = record_taken(monkeypatch)
    e = parse(text)
    if q is None:
        scan, g = check_expression(e, iv, grid_n, keep=0), value(e)
    else:
        scan, g = membership_for_bound(e, iv, q, grid_n, keep=0), q_power(e, q)
    xs = _scan_grid(iv, grid_n, DEFAULT_TOL)
    gx = [g(x) for x in xs]
    [pairs] = taken
    every = check_godunova_levin(g, iv, grid_n, keep=EVERY)
    if pairs and pairs[-1][0] <= DEFAULT_TOL and pairs[-1][0] < scan.max_margin:
        pairs = pairs[:-1]  # the pair the walk stops at, unvisited
    by_scan = set(read)  # with nothing kept, a proven violation reads no g
    violations = {(v.x, v.y, v.lam) for v in every.violations}
    cleared = []
    for _, i, j in pairs:
        for p, r in {(i, j), (j, i)}:
            for lam, _ in _visits(grid_n):
                z = lam * xs[p] + (1.0 - lam) * xs[r]
                if z.hex() not in by_scan and (xs[p], xs[r], lam) not in violations:
                    cleared.append((p, r, lam, gx[p] / lam + gx[r] / (1.0 - lam)))
    return scan, cleared


def decision_paths(e, iv, qs):
    """bound_memberships(e, iv, qs), or its error (_outcome), and the path
    that answered each q: "one cell" (the keys of the two ends of |f''| on
    the one cell that holds the grid, with no g evaluated), "coarse cells"
    (the keys of |f''| on the 8 coarse cells, with no g evaluated), "cells"
    (_decide on the cells of the grid, which passes) or "violation"
    (_decide, which fails); ["error"] where it raises."""
    decide, proves = glbounds.qclass._decide, glbounds.qclass._proves
    decided, proofs = {}, []

    def recorded(e, q, *args):
        decided[q] = decide(e, q, *args)
        return decided[q]

    def recorded_proof(ends):
        proofs.append((len(ends), proves(ends)))  # 1 cell for the hull, 63 for the coarse cells
        return proofs[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(glbounds.qclass, "_decide", recorded)
        m.setattr(glbounds.qclass, "_proves", recorded_proof)
        outcome = _outcome(lambda: bound_memberships(e, iv, qs))
    if not isinstance(outcome, dict):
        return outcome, ["error"]
    paths = []
    for q in outcome:  # the order the decision takes them in: a hull proof, then maybe a coarse one
        _, proved = proofs.pop(0)
        if not proved and proofs and proofs[0][0] > 1:
            _, proved = proofs.pop(0)
            paths.append("coarse cells" if proved else "cells" if decided[q] else "violation")
        else:
            paths.append("one cell" if proved else "cells" if decided[q] else "violation")
    assert not proofs
    return outcome, paths


def pruned_and_unpruned(text, iv, grid_n=64, q=None):
    """g, and the scan of it with no bound and with its enclosure: g = f for q None
    (qclass --g, check_expression), else |f''|^q (qclass --fn,
    membership_for_bound). Asserts that both give the plain loop's outcome
    (oracles.plain_scan), exceptions included."""
    e = parse(text)
    if q is None:
        g = ref_g = value_of(text)
        covered = lambda: check_expression(e, iv, grid_n, keep=EVERY)
    else:
        g, ref_g = _q_power(e, q), second_derivative_power(text, q)
        covered = lambda: membership_for_bound(e, iv, q, grid_n, keep=EVERY)
    plain = _outcome(lambda: plain_scan(g, iv, grid_n))
    outcomes = [_outcome(lambda: check_godunova_levin(g, iv, grid_n, keep=EVERY)), _outcome(covered)]
    assert outcomes == [plain, plain]
    return ref_g, [rep for rep, _ in outcomes]


class TestAgainstPlainLoop:
    """Every scan, with its enclosure and without, is the plain loop's, bit for bit."""

    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("name", [entry.name for entry in corpus_entries()])
    def test_corpus_scans_match(self, membership_report, corpus_by_name, name, q):
        entry = corpus_by_name[name]
        e = parse(entry.expression)
        g = second_derivative_power(entry.expression, q)
        ref = reference_scan(g, entry.interval)
        assert math.inf not in enclosed(e, entry.interval, 64)[1]  # every cell bounded
        assert same_report(membership_report(name, q), ref)
        assert same_report(check_godunova_levin(_q_power(e, q), entry.interval, keep=EVERY), ref)
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
            # partial enclosures: inf on the cells holding a pole or a kink
            ("1/x", Interval(-1.0, 1.0), 64, None),
            ("abs(x-0.3)", UNIT_IV, 128, None),
            ("abs(x-0.3)", UNIT_IV, 64, 2.0),
            # an exponent that depends on x, enclosed as exp(x * ln x)
            ("x^x", Interval(0.5, 2.0), 64, None),
            # 11 distinct floats among the 64 grid points, every scan point one
            # of them: a scan point's index position and its cell's float ends
            # come from different roundings
            ("0-1", COINCIDING, 64, None),
            ("sin(20000000*(x-100000000))", COINCIDING, 64, None),
            # lone visits, with no exact mirror, where the cells clear triples
            ("sin(x)", SINE_INTERVAL, 31, 2.0),
            ("sin(x)", SINE_INTERVAL, 101, 2.0),
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
            "pole-g",
            "kink-g-128",
            "kink-fn-q2",
            "power-of-x-g",
            "coinciding-violations",
            "coinciding-sine",
            "sin-fn-31",
            "sin-fn-101",
        ],
    )
    def test_other_scans_match(self, text, iv, grid_n, q):
        g, reports = pruned_and_unpruned(text, iv, grid_n, q)
        ref = reference_scan(g, iv, grid_n)
        assert all(same_report(rep, ref) for rep in reports)

    @pytest.mark.parametrize(
        "text,iv,grid_n,q,branch",
        [
            ("sin(x)", SINE_INTERVAL, 64, 2.0, "fails"),
            ("sin(x)", SINE_INTERVAL, 64, None, "fails"),
            (COMPOSITE, Interval(0.0, 3.0), 64, 1.2, "passes"),  # top <= tol
            ("sin(x)", SINE_INTERVAL, 31, 2.0, "lone"),
            ("sin(x)", SINE_INTERVAL, 101, 2.0, "lone"),
            ("1e308*sin(x)", Interval(0.1, 6.2), 64, None, "inf"),  # rhs = inf: u = -inf
        ],
    )
    def test_cells_clear_triples_of_visited_pairs(self, monkeypatch, text, iv, grid_n, q, branch):
        """Each branch of the per-triple skip fires: the walk leaves points
        of the pairs it visits unread, on failing and passing scans, at lone
        visits (lam with no exact mirror, lam = 1/2 among them) and where the
        right side is inf; the reports are the plain loop's (above)."""
        scan, cleared = cleared_triples(monkeypatch, text, iv, grid_n, q)
        assert cleared
        assert scan.passed is (branch == "passes")
        if branch == "lone":
            lone = {lam for lam, paired in _visits(grid_n) if not paired}
            assert 0.5 in lone and {lam for _, _, lam, _ in cleared} & lone
        if branch == "inf":
            assert any(rhs == math.inf for _, _, _, rhs in cleared)

    def test_a_point_outside_its_computed_cell_is_read(self):
        """On grid points that are not evenly spaced, the index position of a
        scan point names a cell that does not hold it for 377 of the 12^3
        triples; the check against that cell's own ends keeps the walk the
        lam-major loop's (without it, it records 150 of the 456 violations)."""
        e = parse("sin(3.14159265*x)^2+0.01")
        g = value_of("sin(3.14159265*x)^2+0.01")
        xs = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.9, 0.95, 1.0]
        n, cells = len(xs), _cells(xs)
        ends = compile_value(e)(cells)
        missed = 0
        for lam, _ in _visits(n):
            for p in range(n):
                for r in range(n):
                    k = min(p + math.floor((1.0 - lam) * (r - p)), n - 2)
                    missed += not cells[k][0] <= lam * xs[p] + (1.0 - lam) * xs[r] <= cells[k][1]
        assert missed == 377
        memo, worst, top, count = _PointMemo(g), [], -math.inf, 0
        # keyed from the cells' lows of g, as a decision keys its rows, before g is read
        for _, top, count in _walk(xs, n, cells, ends, memo, DEFAULT_TOL, top, _point_lows(ends), worst, EVERY):
            pass
        found = {(-x, -y, -lam, lhs, rhs): None for _, x, y, lam, lhs, rhs in worst}  # _keep's entries
        assert count == len(worst)
        # the lam-major loop on these points; g >= 0, so no negative value to check
        gx = [g(x) for x in xs]
        loop, loop_top = {}, -math.inf
        for (lam, mirror, paired), xi, points in lam_major(xs):
            for xj, gj, z in zip(xs, gx, points):
                lhs, rhs = g(z), g(xi) / lam + gj / (1.0 - lam)
                loop_top = max(loop_top, lhs - rhs)
                if lhs - rhs > DEFAULT_TOL:
                    loop[xi, xj, lam, lhs, rhs] = None
                    if paired:
                        loop[xj, xi, mirror, lhs, rhs] = None
        assert len(loop) == 456 and found == loop and top == loop_top
        assert len(memo) < len({z for _, _, points in lam_major(xs) for z in points})

    def test_pairs_with_a_negative_end_are_kept(self, monkeypatch):
        taken = record_taken(monkeypatch)
        check_expression(parse("x"), Interval(-1.0, 1.0))
        [pairs] = taken
        negative = range(32)  # g = x < 0 at the first half of the grid
        # such a pair has b = inf, so the walk visits it rather than stop there
        assert {(i, j) for i in negative for j in range(i, 64)} <= {(i, j) for _, i, j in pairs}
        assert all(b == math.inf for b, i, _ in pairs if i in negative)
        assert len(pairs) < 64 * 65 // 2  # and the walk stopped before its last pair

    @pytest.mark.parametrize(
        "text,iv,grid_n,pairs,rows",
        [
            ("-x^2-1", Interval(-1.0, 2.0), 64, 1849, 43),
            ("x-0.5", UNIT_IV, 9, 30, 4),
            ("x-0.5", UNIT_IV, 64, 1552, 32),
        ],
    )
    def test_negative_values_rank_only_pairs_above_the_tolerance(
        self, monkeypatch, text, iv, grid_n, pairs, rows
    ):
        """A negative value starts the largest margin above the tolerance,
        and it only grows, so the walk would stop at its first pair with
        b <= tol: the ranking leaves those pairs out (a row whose key is at
        most the tolerance is never built), and the walk ends with the pairs
        above the tolerance."""
        work = record_work(monkeypatch)
        taken = record_taken(monkeypatch)
        rep = check_expression(parse(text), iv, grid_n)
        [ranked] = taken
        assert rep.max_margin > DEFAULT_TOL
        assert len(ranked) == pairs and all(b > DEFAULT_TOL for b, _, _ in ranked)
        assert work["rows"] == rows

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

    def test_covered_signed_zero_maximum_keeps_the_visit_order(self):
        # The zeros of the test above, and one more, 0.0, at (x_r, x_t, lam')
        # with lam' (k' = 4) after lam: g there is the right side, 1/lam' +
        # 1/(1-lam'). The bound of g is 10 on the one cell holding that
        # point and by 1 elsewhere, so the walk visits the pair (r, t) before
        # (p, q) and meets 0.0 first; the plain loop still keeps -0.0.
        iv, n, k, p, q, k2, r, t = Interval(1.1, 1.3), 23, 3, 9, 20, 4, 2, 3
        xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
        lam, lam2 = (k + 0.5) / n, (k2 + 0.5) / n
        values = dict.fromkeys(scan_points(iv, n), -1.0)
        values.update((x.hex(), 1.0) for x in xs)
        values[xs[p].hex()] = values[xs[q].hex()] = 0.0
        values[(lam * xs[p] + (1.0 - lam) * xs[q]).hex()] = -0.0
        values[(lam * xs[q] + (1.0 - lam) * xs[p]).hex()] = 0.0
        z = lam2 * xs[r] + (1.0 - lam2) * xs[t]
        values[z.hex()] = 1.0 / lam2 + 1.0 / (1.0 - lam2)
        g = lambda x: values[x.hex()]
        bound = lambda cells: [(-math.inf, 10.0 if lo <= z <= hi else 1.0) for lo, hi in cells]
        sup = [high for _, high in bound(_cells(xs))]
        assert sup.count(10.0) == 1
        rows = bound_rows([g(x) for x in xs], sup)
        assert rows[r][t - r] > rows[p][q - p]
        ref = reference_scan(g, iv, n)
        assert ref.max_margin == 0.0 and math.copysign(1.0, ref.max_margin) == -1.0
        assert same_report(check_godunova_levin(g, iv, n, bound=bound), ref)

    def test_a_triple_tied_with_top_is_read(self):
        """The cell bound clears a triple only where u = fl(sup - rhs) is below
        top, not at it. g is 0 at x_3 and x_4 and -0.0 at the first triple
        (x_4, x_3, lam_0), of margin -0.0 - 0.0 = -0.0, the loop's maximum;
        their cell bounds g by 0, so u = 0.0 there. The walk meets 0.0 first,
        at (x_0, x_1, lam_1), where g is the right side and its cell's bound
        10 puts that pair first; with u <= top cleared, it would keep 0.0."""
        iv, n, p, q, r, t = Interval(1.1, 1.3), 9, 4, 3, 0, 1
        xs = [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
        lam, lam2 = 0.5 / n, 1.5 / n
        values = dict.fromkeys(scan_points(iv, n), -1.0)
        values.update((x.hex(), 1.0) for x in xs)
        values[xs[p].hex()] = values[xs[q].hex()] = 0.0
        values[(lam * xs[p] + (1.0 - lam) * xs[q]).hex()] = -0.0
        z = lam2 * xs[r] + (1.0 - lam2) * xs[t]
        values[z.hex()] = 1.0 / lam2 + 1.0 / (1.0 - lam2)
        g = lambda x: values[x.hex()]
        cells = _cells(xs)
        bound = lambda cs: [
            (-1.0, 10.0 if lo <= z <= hi else 0.0 if (lo, hi) == cells[q] else 1.0) for lo, hi in cs
        ]
        # each cell's bounds hold at every point of the scan in it
        for (lo, hi), (low, high) in zip(cells, bound(cells)):
            assert all(low <= v <= high for x, v in values.items() if lo <= float.fromhex(x) <= hi)
        ref = reference_scan(g, iv, n)
        assert ref.max_margin == 0.0 and math.copysign(1.0, ref.max_margin) == -1.0
        assert same_report(check_godunova_levin(g, iv, n, bound=bound), ref)

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

    def test_an_error_off_the_grid_is_the_first_in_lam_major_order(self, capsys):
        # g is finite at every grid point and raises at scan points near c:
        # the walk alone would meet -4.997523459242999e-05 first
        text = "sqrt((x-0.5393847733123374)^2-5e-05)"
        argv = ["qclass", "--g", text, "--a", "0", "--b", "1", "--grid", "31"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: sqrt of negative value -6.355248700360323e-06\n")
        plain = _outcome(lambda: plain_scan(value_of(text), UNIT_IV, 31))
        assert plain == (DomainError, "sqrt of negative value -6.355248700360323e-06")


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


def _counting_compile(monkeypatch, counters):
    """Make every jet compiled in qclass count its calls per point (by float.hex),
    one Counter per compiled jet, appended to counters."""
    original = glbounds.qclass._compile_jet

    def compile_counting(e):
        jet = original(e)
        seen = Counter()
        counters.append(seen)

        def counted(x):
            seen[x.hex()] += 1
            return jet(x)

        return counted

    monkeypatch.setattr(glbounds.qclass, "_compile_jet", compile_counting)


class TestSweepSharesSecondDerivative:
    """A sweep decides every q from one enclosure of |f''|, proof or pruned scan."""

    def test_covered_scans_skip_points(self, monkeypatch):
        counters = []
        _counting_compile(monkeypatch, counters)
        rows = sweep_rows(parse(COMPOSITE), Interval(0.0, 3.0), [0.0, 0.5, 1.0], (1.0, 2.0, 3.0))
        assert len(rows) == 9
        # each proof and each scan evaluates |f''| once per distinct point it visits
        assert counters and all(set(seen.values()) == {1} for seen in counters)
        assert set().union(*counters) < scan_points(Interval(0.0, 3.0), 64)

    # each sweep's first error, pinned byte for byte: every bound comes first,
    # then int_a^b f, then each q's proof or scan in turn
    @pytest.mark.parametrize(
        "fn,a,b,err",
        [
            # a scan point lands on the pole
            ("1/(x-0.5)", "0", "1", "error: division by zero at x=0.5\n"),
            # |f''|^3 overflows, |f''| does not
            ("exp(x)", "300", "301",
             "error: |f''(x)|^q overflows at x=300.0078125: |f''| = 1.9576610342755035e+130, q = 3.0\n"),
            # non-smooth at the scan point 11/128
            ("abs(x-0.0859375)", "0", "1", "error: abs is not differentiable where its argument is 0\n"),
        ],
        ids=["1/(x-0.5)-0-1", "exp(x)-300-301", "abs(x-0.0859375)-0-1"],
    )
    def test_first_error_is_unchanged(self, fn, a, b, err, tmp_path, capsys):
        argv = ["sweep", "--fn", fn, "--a", a, "--b", b, "--lambda-grid", "0:1:0.5", "--q", "1,2,3",
                "--out", str(tmp_path / "sweep.csv")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", err)


def _window(a, width):
    return (a, a + width)


_PROOF_ENDS = st.one_of(
    st.sampled_from([(entry.interval.a, entry.interval.b) for entry in corpus_entries()]),
    st.builds(_window, st.floats(0.0, 3.0), st.floats(1e-9, 1e-6)),
    st.builds(_window, st.floats(1e3, 1e8), st.floats(1e-6, 1.0)),
)


def _across_a_zero(name_and_zero, k, left, right):
    """sin or cos on a window around a zero of its f'' (k*pi for sin, pi/2 +
    k*pi for cos): g = |f''|^q vanishes inside, and the scan fails where the
    window also holds a hump of |f''| between two small values."""
    name, zero = name_and_zero
    at = zero + k * math.pi
    return parse(name), (at - left, at + right)


def _around_the_least(a, b, left, right):
    """a*e^x + b*e^-x, a cosh-like sum, on an interval around the least
    value of |f''| = f'' (at ln(b/a)/2), where interval dependency widens the
    one cell's |f''| too far for its two ends to prove q."""
    least = math.log(b / a) / 2
    return parse(f"{a!r}*exp(x)+{b!r}*exp(-x)"), (least - left, least + right)


_PROOF_CASES = st.one_of(
    st.tuples(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
    ),
    st.builds(
        _across_a_zero,
        st.sampled_from([("sin(x)", 0.0), ("cos(x)", math.pi / 2)]),
        st.integers(-2, 3),
        st.floats(0.01, 3.5),
        st.floats(0.01, 3.5),
    ),
    st.builds(
        _around_the_least, st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.05, 3.0), st.floats(0.05, 3.0)
    ),
)


def _scans(e, iv, qs):
    """What bound_memberships(e, iv, qs) must give: each q's scan passed, or
    the first error."""
    return _outcome(lambda: {q: membership_for_bound(e, iv, q).passed for q in qs})


class TestProof:
    """bound_memberships answers every input as the scans do, errors included,
    and runs no scan."""

    @settings(max_examples=examples(200), deadline=None)  # about 35 ms per scanned example
    @given(_PROOF_CASES, st.floats(1.0, 3.0))
    def test_a_proof_implies_the_scan_passes(self, case, q):
        """A decision, True or False, is the scan's passed, and an error the
        decision raises is the scan's. Where the one cell's two ends of |f''|
        prove q, or its ends on the 8 coarse cells do, the keys of g at the
        grid points under that bound pass too."""
        e, ends = case
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        decided, [path] = decision_paths(e, iv, (q,))
        event(f"path: {path}")
        assert decided == _scans(e, iv, (q,))
        if path in ("one cell", "coarse cells"):
            xs = _scan_grid(iv, 64, DEFAULT_TOL)
            cells = _cells(xs)
            width = 63 if path == "one cell" else 8
            covers = [(cells[k][0], cells[min(k + width - 1, 62)][1]) for k in range(0, 63, width)]
            sup = [sup_power(high, q) for _, high in compile_second_derivative(e)(covers)]
            gx = list(map(_q_power(e, q), xs))
            assert all(key <= DEFAULT_TOL for key in _row_keys(*_row_parts(gx, [sup[k // width] for k in range(63)])))

    @pytest.mark.parametrize(
        "text,iv,q,path",
        [
            ("sin(x)", EDGE_SINE_WINDOW, 1.34, "one cell"),  # the keys of the cell's two ends are at most the tolerance
            # e^2 > 4: the one cell fails the ratio lemma's factor 4, and an
            # eighth of [0, 1] keeps e^(2x) within it
            ("exp(x)", UNIT_IV, 2.0, "coarse cells"),
            ("sin(x)", SINE_INTERVAL, 1.0, "violation"),
            ("(exp(x)+exp(-x))/2", Interval(-1.0, 1.0), 1.2, "coarse cells"),  # cosh: its one cell is too wide
            ("exp(x)", UNIT_IV, 3.0, "cells"),  # the coarse cells' keys leave rows above the tolerance
            # the first coarse cell's high, (12*(1/8)^2)^2, is far above g near 0
            ("x^4", UNIT_IV, 2.0, "cells"),
        ],
    )
    def test_each_path_answers_as_the_scan(self, text, iv, q, path):
        e = parse(text)
        assert decision_paths(e, iv, (q,)) == (_scans(e, iv, (q,)), [path])

    @pytest.mark.parametrize(
        "text,iv,qs",
        [("sin(x)", EDGE_SINE_WINDOW, (1.34,)), ("x^2", UNIT_IV, (1.0, 3.0))],
    )
    def test_one_cell_proves_with_no_pair_row(self, monkeypatch, text, iv, qs):
        """A proof on the one cell that holds the grid encloses |f''| once, on
        that cell, and evaluates no g, ranks no pair and builds no row of pair
        bounds."""
        work = record_work(monkeypatch)
        assert bound_memberships(parse(text), iv, qs) == dict.fromkeys(qs, True)
        assert work == {"covers": [1], "points": 0, "rankings": 0, "rows": 0}

    def test_cells_prove_what_the_hull_ends_cannot_with_no_pair_row(self, monkeypatch):
        # interval dependency widens cosh's |f''| to [0.37, 2.7] on the one
        # cell, against the true [1, 1.54], so its two ends prove nothing at
        # q = 1.2; each coarse cell's bound lies inside the one cell's, and
        # the keys of their lows under their highs keep no row to build, with
        # no g evaluated and no enclosure of the 63 cells
        work = record_work(monkeypatch)
        assert bound_memberships(parse("(exp(x)+exp(-x))/2"), Interval(-1.0, 1.0), (1.2,)) == {1.2: True}
        assert work == {"covers": [1, 8], "points": 0, "rankings": 0, "rows": 0}

    def test_one_cell_leaves_a_vanishing_g_to_the_cells(self, monkeypatch):
        # |sin| is near 0 at the left end of [0, 1e-9]: the ratio lemma's
        # factor 4 cannot cover the one cell's bound there, nor the first
        # coarse cell's; the keys of the 63 cells' lows leave no row to build
        work = record_work(monkeypatch)
        assert bound_memberships(parse("sin(x)"), Interval(0.0, 1e-9), (1.0,)) == {1.0: True}
        assert work == {"covers": [1, 8, 63], "points": 0, "rankings": 1, "rows": 0}

    def test_partial_covers_and_errors_are_the_scans(self, monkeypatch):
        # a pole leaves one cell unbounded, where g may raise; the scan fails
        pole, iv = parse("1/x"), Interval(-1.0, 1.0)
        assert math.inf in enclosed(pole, iv, 64)[1]
        assert _outcome(lambda: bound_memberships(pole, iv, (1.0,))) == _scans(pole, iv, (1.0,)) == {1.0: False}
        e = parse("x^2")

        def broken(*args):
            raise RuntimeError("boom")

        def unbounded(cells):
            return [(0.0, math.inf)] * len(cells)

        def same(e, iv, qs):
            decided = _outcome(lambda: bound_memberships(e, iv, qs))
            assert decided == _scans(e, iv, qs)
            return decided

        assert same(e, UNIT_IV, (1.0,)) == {1.0: True}
        # a jet that is not f's own has no enclosure: with the enclosure
        # declining on every cell, g is evaluated, and raises as in the scan
        with monkeypatch.context() as m:
            m.setattr(glbounds.enclosure, "compile_second_derivative", lambda e: unbounded)
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: broken)
            assert same(e, UNIT_IV, (1.0,)) == (RuntimeError, "boom")
        with monkeypatch.context() as m:
            m.setattr(glbounds.enclosure, "compile_second_derivative", lambda e: unbounded)
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: lambda x: (0.0, 0.0, math.inf))
            assert same(e, UNIT_IV, (1.0,)) == (ValueError, "g is not finite at x=0.0078125: inf")
        # sine's decision visits pairs above the tolerance; a jet that raises
        # off the grid points raises the scan's error there, rather than
        # answering False at the first violation
        sine = parse("sin(x)")
        assert same(sine, SINE_INTERVAL, (1.0,)) == {1.0: False}
        _, jet = compile_expression(sine)
        grid = set(_scan_grid(SINE_INTERVAL, 64, DEFAULT_TOL))
        with monkeypatch.context() as m:
            m.setattr(glbounds.qclass, "_compile_jet", lambda e: lambda x: jet(x) if x in grid else broken())
            assert same(sine, SINE_INTERVAL, (1.0,)) == (RuntimeError, "boom")

    def test_a_lazy_read_of_g_raises_the_first_grid_points_error(self):
        """|f''|^1000 of exp overflows from x = 0.7097 on, so the cells there
        are inf and the decision must read g at the grid points: it raises
        the overflow of the first grid point past it, as the scan does, not
        that of the first point in lam-major order (0.720947265625)."""
        e = parse("exp(x)")
        err = (ValueError, "|f''(x)|^q overflows at x=0.7109375: |f''| = 2.0358990195749382, q = 1000.0")
        assert _outcome(lambda: bound_memberships(e, UNIT_IV, (1000.0,))) == _scans(e, UNIT_IV, (1000.0,)) == err

    def test_unbounded_pairs_alone_decide_a_kink(self, monkeypatch):
        """|f''| of abs(x-0.3) is 0 wherever it is defined, so only the 855
        pairs that read the kink's unbounded cell are above the tolerance; the
        decision visits those and no other, and passes."""
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse("abs(x-0.3)"), UNIT_IV, (2.0,)) == {2.0: True}
        assert len(taken) == 1 and len(taken[0]) == 855 < 64 * 65 // 2
        assert all(b == math.inf for b, _, _ in taken[0])
        # the kink on a grid point's scan point: the scan's error, with no scan
        with pytest.raises(NonSmoothError, match="^abs is not differentiable where its argument is 0$"):
            bound_memberships(parse("abs(x-0.0859375)"), UNIT_IV, (1.0,))

    def test_a_violation_ends_the_decision_without_a_scan(self, monkeypatch):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        assert bound_memberships(parse("-sin(x)"), SINE_INTERVAL, (1.0,)) == {1.0: False}
        # x^4 keeps one pair above the tolerance at each q, its diagonal at the
        # first grid point, and that pair does not violate
        assert bound_memberships(parse("x^4"), UNIT_IV, (2.0, 3.0)) == {2.0: True, 3.0: True}

    @pytest.mark.parametrize(
        "text,iv,qs",
        [("2^x", UNIT_IV, (1.5,)), ("x^x", Interval(0.5, 2.0), (1.0, 2.0, 3.0))],
    )
    def test_exponents_that_depend_on_x_are_proven_with_no_pair(self, monkeypatch, text, iv, qs):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse(text), iv, qs) == dict.fromkeys(qs, True)
        assert not any(taken)

    # pairs each decision below takes: the composite's hottest pairs straddle
    # the steep rise of |f''|^q near 3 and hold, so its first violation comes
    # at pair 54 (q = 2) and 540 (q = 3)
    PAIRS_TAKEN = {
        ("sin(x)", 1.0): 1,
        ("sin(x)", 2.5): 1,
        (COMPOSITE, 1.0): 7,
        (COMPOSITE, 2.0): 54,
        (COMPOSITE, 3.0): 540,
        ("x^4", 2.0): 1,
    }

    @pytest.mark.parametrize(
        "text,iv,q",
        [
            ("sin(x)", SINE_INTERVAL, 1.0),  # fails at the first hot pair
            ("sin(x)", SINE_INTERVAL, 2.5),
            (COMPOSITE, Interval(0.0, 3.0), 1.0),  # passes
            (COMPOSITE, Interval(0.0, 3.0), 2.0),  # fails deep in the list
            (COMPOSITE, Interval(0.0, 3.0), 3.0),
            ("x^4", UNIT_IV, 2.0),  # one hot pair, which holds
        ],
    )
    def test_a_decision_answers_after_the_pair_that_violates(self, monkeypatch, text, iv, q):
        """The decision is the scan's passed; a False one takes no pair after
        the first that holds a violation of the scan, and each takes the
        pinned number of pairs, hottest first."""
        e = parse(text)
        taken = record_taken(monkeypatch)
        xs = _scan_grid(iv, 64, DEFAULT_TOL)
        cells = _cells(xs)
        decided = _decide(e, q, xs, cells, compile_second_derivative(e)(cells))
        rep = membership_for_bound(e, iv, q, keep=EVERY)
        assert decided is rep.passed
        violating = {frozenset((v.x, v.y)) for v in rep.violations}
        holds = [frozenset((xs[i], xs[j])) in violating for _, i, j in taken[0]]
        if decided:
            assert not any(holds)
        else:
            assert holds[-1] and not any(holds[:-1])
        assert len(taken[0]) == self.PAIRS_TAKEN[text, q]

    # the work of passing decisions that neither the one cell nor the 8
    # coarse cells prove: the coupled row keys (_row_keys) put at most a few
    # rows above the tolerance where |f''|^q rises to the right, so x^4
    # builds the one row it takes its pair from (45 and 50 of the 64 with
    # keys from the largest bound right of each row) and the composite 23
    # (48) to take 14 pairs; g is read at the 64 grid points only where some
    # row is built, and at the points of those pairs that their own cell does
    # not clear (POINTS; the composite's 14 pairs read 843 points with every
    # point of a pair read), and cosh's keys from the cells' lows build none
    POINTS = {"x^4": 64, "(exp(x)+exp(-x))/2": 0, COMPOSITE: 140}

    @pytest.mark.parametrize(
        "text,iv,q,rows,pairs",
        [
            ("x^4", UNIT_IV, 2.0, 1, 1),
            ("x^4", UNIT_IV, 3.0, 1, 1),
            ("(exp(x)+exp(-x))/2", Interval(-1.0, 2.0), 2.0, 0, 0),  # cosh
            (COMPOSITE, Interval(0.0, 3.0), 1.2, 23, 14),
        ],
    )
    def test_passing_decisions_build_rows_for_few_pairs(self, monkeypatch, text, iv, q, rows, pairs):
        work = record_work(monkeypatch)
        taken = record_taken(monkeypatch)
        assert bound_memberships(parse(text), iv, (q,)) == {q: True}
        assert work == {"covers": [1, 8, 63], "points": self.POINTS[text], "rankings": 1, "rows": rows}
        assert [len(t) for t in taken] == [pairs]

    def test_a_zero_margin_walks_every_pair(self, monkeypatch):
        """|f''| of abs(x-0.3) is 0 off its kink, so the largest margin, top,
        is 0.0. The 855 pairs that read the kink's cell have b = inf, and
        rounding leaves the other 1,225 a subnormal above 0, so no b falls
        below top and the scan walks all 2,080 pairs: a baseline that
        ROADMAP open item 4 is expected to lower."""
        taken = record_taken(monkeypatch)
        rep = membership_for_bound(parse("abs(x-0.3)"), UNIT_IV, 2.0)
        assert rep.passed and rep.max_margin == 0.0
        [pairs] = taken
        assert len(pairs) == 64 * 65 // 2
        assert Counter(b == math.inf for b, _, _ in pairs) == {True: 855, False: 1225}
        assert all(0.0 < b < sys.float_info.min for b, _, _ in pairs if b < math.inf)

    @pytest.mark.parametrize(
        "text,iv,qs",
        [
            ("x^2", UNIT_IV, (1.0, 2.0)),  # proven
            ("x^4", UNIT_IV, (1.0, 2.0, 3.0)),  # its one hot pair holds at every q
            ("sin(x)", SINE_INTERVAL, (1.0, 2.5)),  # fails at the first hot pair
            (COMPOSITE, Interval(0.0, 3.0), (1.0, 2.0, 3.0)),  # passes, then fails deep in the list
            ("1/x", Interval(-1.0, 1.0), (1.0,)),  # a pole's cell is inf; the scan fails
            ("abs(x-0.3)", UNIT_IV, (1.0, 2.0)),  # a kink's cell is inf; the scan passes
            ("abs(x-0.0859375)", UNIT_IV, (1.0,)),  # the scan raises at the kink
            ("exp(x)", Interval(300.0, 301.0), (1.0, 3.0)),  # decided at q = 1; |f''|^3 overflows in the scan
        ],
    )
    def test_memberships_equal_the_scans(self, text, iv, qs):
        e = parse(text)
        decided = _outcome(lambda: bound_memberships(e, iv, qs))
        scanned = _outcome(lambda: {q: membership_for_bound(e, iv, q).passed for q in qs})
        assert decided == scanned

    def test_a_pole_leaves_only_its_cell_unbounded(self):
        xs, sup = enclosed(parse("1/x"), Interval(-1.0, 1.0), 64)
        unbounded = [k for k, s in enumerate(sup) if s == math.inf]
        assert unbounded == [31]  # cell 31 joins x_31 = -1/64 and x_32 = 1/64
        lo, hi = _cells(xs)[31]
        assert lo < 0.0 < hi

    @pytest.mark.parametrize(
        "iv",
        [
            UNIT_IV,
            Interval(-3.7, 5.2),
            Interval(0.0, 1e-9),
            Interval(1e8, 1e8 + 1e-6),  # grid spacing 1.6e-8 at grid 64, about one ulp and below delta
            Interval(-1e8 - 1e-6, -1e8),
        ],
    )
    def test_cells_hold_every_scan_point(self, iv):
        """At grids 9, 31 and 64: the pair (x_i, x_j), i < j, reads cells i to
        j-1, and some cell of them holds each of its scan points; the diagonal
        pair of x_i reads the smaller bound of cells i-1 and i, and each of
        them holds its points."""
        for n in (9, 31, 64):
            xs = _scan_grid(iv, n, DEFAULT_TOL)
            # cell k is [lows[k], highs[k]]
            lows, highs = map(list, zip(*_cells(xs)))
            assert xs == [iv.a + iv.width * (i + 0.5) / n for i in range(n)]
            assert lows == sorted(lows) and highs == sorted(highs) and len(lows) == n - 1
            for k in range(n):
                lam = (k + 0.5) / n
                clam = 1.0 - lam
                for i, xi in enumerate(xs):
                    for j, xj in enumerate(xs):
                        z = lam * xi + clam * xj
                        lo, hi = min(i, j), max(i, j)
                        if lo == hi:
                            cells = [c for c in (lo - 1, lo) if 0 <= c < n - 1]
                            assert cells and all(lows[c] <= z <= highs[c] for c in cells)
                            continue
                        # of cells lo to hi-1, the last that starts at or below z ends highest
                        c = bisect.bisect_right(lows, z, lo, hi) - 1
                        assert c >= lo and z <= highs[c]

    @settings(max_examples=examples(50), deadline=None)
    @given(
        st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
        _PROOF_ENDS,
        st.sampled_from([9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_every_scan_margin_is_within_its_pair_bound(self, e, ends, grid_n, q):
        """For g = f (q None) and g = |f''|^q: every float margin the scan
        computes for a pair of grid points is at most the pair's bound. A
        pair with b = inf reads a cell where g may raise, and is skipped."""
        assume(ends[0] < ends[1])
        iv, n = Interval(*ends), grid_n
        xs, sup = enclosed(e, iv, n, of_value=q is None)
        if q is not None:
            sup = powered(sup, q)
        # g at each point, zeros kept by sign, as the scan keeps it
        memo = _PointMemo(compile_expression(e)[0] if q is None else _q_power(e, q))
        try:
            gx = [memo[x] for x in xs]
        except (ExpressionError, ValueError, ArithmeticError):
            return  # the scan raises before it ranks
        bound = bound_rows(gx, sup)
        for k in range(n):
            lam = (k + 0.5) / n
            clam = 1.0 - lam
            for i, xi in enumerate(xs):
                for j, xj in enumerate(xs):
                    lo, hi = min(i, j), max(i, j)
                    b = bound[lo][hi - lo]
                    if b < math.inf:
                        m = memo[lam * xi + clam * xj] - (gx[i] / lam + gx[j] / clam)
                        assert not m > b, (xi, xj, lam)

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_quartic_keeps_at_most_one_hot_pair(self, q):
        # |f''|^q = (12x^2)^q rises 9^q-fold from x_0 to x_1, and the one cell
        # x_0 reads reaches x_1, so its diagonal pair may stay above the tolerance
        e = parse("x^4")
        xs, sup = enclosed(e, UNIT_IV, 64)
        gx = [_q_power(e, q)(x) for x in xs]
        hot = sum(b > DEFAULT_TOL for row in bound_rows(gx, powered(sup, q)) for b in row)
        assert hot <= 1


def _outcome(scan):
    """The report with the sign of its max_margin (any other result as it is),
    or the exception's type and message."""
    try:
        rep = scan()
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc), str(exc))
    if isinstance(rep, (QClassReport, PlainReport)):
        return plain_report(rep), math.copysign(1.0, rep.max_margin)
    return rep


class TestBoundedReport:
    """A scan keeps the count, max_margin and the ten worst violations, not
    every violation: its memory is the memo of g and ten entries."""

    @settings(max_examples=examples(60), deadline=None)
    @given(
        st.one_of(
            # g < 0 on part of the grid, or all of it, and g or |f''|^q that fail
            st.sampled_from([parse(t) for t in ("x-0.5", "0.1-x^2", "0-1", "sin(x)", "exp(-100*(x-0.5)^2)",
                                                "sin(20000000*(x-100000000))")]),
            _tree_strategy(),
        ),
        st.one_of(
            _PROOF_ENDS,
            st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (0.000001, 3.141592)]),
            # at 1e8 grid points coincide: the 64 of the first window are 11 floats
            st.sampled_from([(1e8, 100000000.00000015), (1e8, 100000001.0)]),
        ),
        st.sampled_from([2, 9, 31, 64]),  # odd grids have lam = 1/2
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_the_default_report_is_the_plain_loops_count_and_ten_worst(self, e, ends, grid_n, q):
        """count, max_margin (with the sign of a zero) and worst(10) of the
        report of qclass --g (q None) or --fn at q, which keeps ten, are the
        plain loop's number of violations, largest margin and first ten of
        its violations sorted by (-margin, x, y, lam); errors are the
        loop's."""
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        if q is None:
            g, scan = compile_expression(e)[0], lambda: check_expression(e, iv, grid_n)
        else:
            g, scan = _q_power(e, q), lambda: membership_for_bound(e, iv, q, grid_n)

        def summary(rep, worst):
            return rep.samples_checked, rep.max_margin, math.copysign(1.0, rep.max_margin), worst

        def plain():
            ref = plain_scan(g, iv, grid_n)
            worst = sorted(ref.violations, key=lambda v: (-v.margin, v.x, v.y, v.lam))[:10]
            return summary(ref, worst) + (len(ref.violations),)

        def scanned():
            rep = scan()
            return summary(rep, rep.worst(10)) + (rep.count,)

        got, want = _outcome(scanned), _outcome(plain)
        assert got == want
        event("error" if len(want) == 2 else "passes" if not want[-1] else
              "fails, 1 to 10 violations" if want[-1] <= 10 else "fails, more than 10 violations")

    def test_a_proven_violation_that_ties_the_least_kept_margin_is_kept(self):
        """g = -1 with its exact bound (-1, -1) on every cell: each violation
        is proven and its u is its margin. The 27 of grid 3 share three
        margins, nine each, so the tenth kept is one of nine whose u equals
        the least margin kept (at grid 8 the floor reaches top instead)."""
        g, iv = lambda x: -1.0, Interval(0.0, 1.0)
        rep = check_godunova_levin(g, iv, 3, 1e-12, lambda cells: [(-1.0, -1.0)] * len(cells))
        ref = plain_scan(g, iv, 3)
        assert rep.kept == tuple(sorted(ref.violations, key=lambda v: (-v.margin, v.x, v.y, v.lam))[:10])

    def test_a_failing_scan_holds_the_memo_and_ten_violations(self):
        """Under tracemalloc, the failing grid-64 bump scan (61,716
        violations) peaks below 1 MB: its memo of g and the ten worst (a
        record of every violation took 7.1 MB)."""
        import tracemalloc

        e = parse("exp(-100*(x-0.5)^2)")
        check_expression(e, UNIT_IV, 8)  # the modules a scan loads, loaded untraced
        tracemalloc.start()
        try:
            rep = check_expression(e, UNIT_IV)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.count == 61716 and len(rep.kept) == 10
        assert peak < 1_000_000


class TestPruning:
    """An enclosure changes no scan's report or error, and it does skip points."""

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
            pruned = lambda: check_expression(e, iv, grid_n, keep=EVERY)
        else:  # qclass --fn
            g = _q_power(e, q)
            pruned = lambda: membership_for_bound(e, iv, q, grid_n, keep=EVERY)
        plain = _outcome(lambda: plain_scan(g, iv, grid_n))
        assert _outcome(pruned) == _outcome(lambda: check_godunova_levin(g, iv, grid_n, keep=EVERY)) == plain

    @staticmethod
    def _scan_kinds(e, q):
        """g and the bound of qclass --g (q None: g = f, bounded by
        compile_value's (low, high) of f) or --fn (g = |f''|^q, bounded by
        the powers of the (low, high) of |f''|, as membership_for_bound
        gives them)."""
        if q is None:
            return compile_expression(e)[0], compile_value(e)
        d2 = compile_second_derivative(e)
        return _q_power(e, q), lambda cells: [(inf_power(low, q), sup_power(high, q)) for low, high in d2(cells)]

    @settings(max_examples=examples(60), deadline=None)
    @given(
        _PROOF_CASES,  # with sin and cos across a zero of f'', which fail
        st.sampled_from([2, 9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    def test_the_cell_bounds_change_no_scan(self, case, grid_n, q):
        """check_godunova_levin with the enclosure's (low, high) cell bounds,
        which clear triples and prove violations in the pairs it visits, is
        check_godunova_levin with none, which reads every point of every
        pair: report and error, bit for bit, keeping the ten worst or every
        violation."""
        e, ends = case
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        g, bound = self._scan_kinds(e, q)

        def record(bound):
            reps = [check_godunova_levin(g, iv, grid_n, DEFAULT_TOL, bound, keep=keep) for keep in (10, EVERY)]
            return reps, math.copysign(1.0, reps[0].max_margin)

        proved, read = _outcome(lambda: record(bound)), _outcome(lambda: record(None))
        assert proved == read
        event("error" if isinstance(read[0], type) else "passes" if read[0][0].passed else "fails")

    @pytest.mark.parametrize(
        "text,iv,grid_n,q,kind",
        [
            ("sin(x)", SINE_INTERVAL, 31, 2.0, "proves"),
            ("sin(x)", SINE_INTERVAL, 64, None, "proves"),
            (COMPOSITE, Interval(0.0, 3.0), 64, 3.0, "proves"),
            ("1/x", Interval(-1.0, 1.0), 64, None, "proves"),  # the pole leaves a cell unbounded
            ("x^2", UNIT_IV, 64, 2.0, "passes"),
            ("sqrt((x-0.5393847733123374)^2-5e-05)", UNIT_IV, 31, None, "raises"),
        ],
    )
    def test_list_pairs_scan_as_tuples(self, text, iv, grid_n, q, kind):
        """bound gives one pair (low, high) per cell, and a list of the two
        floats is as good a pair as a tuple: report, points read and error,
        bit for bit. Where the cells prove violations, keeping every one reads
        g at points that keeping none leaves unread."""
        g, bound = self._scan_kinds(parse(text), q)

        def record(bound, keep):
            read = set()

            def point(x):
                read.add(x.hex())
                return g(x)

            rep = check_godunova_levin(point, iv, grid_n, DEFAULT_TOL, bound, keep=keep)
            return rep, math.copysign(1.0, rep.max_margin), read

        as_lists = _outcome(lambda: record(lambda cells: [list(pair) for pair in bound(cells)], EVERY))
        as_tuples = _outcome(lambda: record(bound, EVERY))
        assert as_lists == as_tuples
        if kind == "raises":
            assert len(as_tuples) == 2 and issubclass(as_tuples[0], Exception)
        else:
            rep, _, read = as_tuples
            assert (read > record(bound, 0)[2]) is (kind == "proves") and rep.passed is (kind == "passes")

    @settings(max_examples=examples(60), deadline=None)
    @given(
        _PROOF_CASES,  # with sin and cos across a zero of f'', which fail
        st.sampled_from([9, 31, 64]),
        st.one_of(st.none(), st.floats(1.0, 3.0)),
    )
    # 11 distinct grid points of 64, each scanned once
    @example((parse("x-100000000.0000001"), (COINCIDING.a, COINCIDING.b)), 64, None)
    def test_every_kept_violation_violates_with_its_sides(self, case, grid_n, q):
        """Each violation the scan keeps, proven by its cell or read, holds
        the lhs and rhs that g gives at its triple, and violates; the ten
        kept by default are the first ten of every one kept."""
        e, ends = case
        assume(ends[0] < ends[1])
        iv = Interval(*ends)
        g, bound = self._scan_kinds(e, q)
        try:
            rep = check_godunova_levin(g, iv, grid_n, DEFAULT_TOL, bound, keep=EVERY)
        except (ExpressionError, ValueError, ArithmeticError):
            return
        assert rep.count == len(rep.kept)
        for x, y, lam, lhs, rhs in rep.kept:
            assert (lhs, rhs) == (g(lam * x + (1.0 - lam) * y), g(x) / lam + g(y) / (1.0 - lam))
            assert lhs - rhs > DEFAULT_TOL
        assert check_godunova_levin(g, iv, grid_n, DEFAULT_TOL, bound).kept == rep.kept[:10]
        event(f"violations: {'some' if rep.count else 'none'}")

    @pytest.mark.parametrize(
        "argv,points",
        [
            (["qclass", "--fn", "sin(x)", "--q", "2", "--a", "0.000001", "--b", "3.141592"], 439),
            (["qclass", "--g", "sin(x)", "--a", "0.000001", "--b", "3.141592"], 171),
        ],
        ids=["fn-q2", "g"],
    )
    def test_failing_sine_scans_read_only_uncleared_points(self, monkeypatch, capsys, argv, points):
        """The g evaluations of the failing sine scans at grid 64, grid points
        and the reads of the proven violations that may be among the ten
        worst included: 431 (--fn) and 167 (--g) keeping none, 5,378 and
        1,725 keeping every violation, and 10,177 and 4,195 with every point
        of each visited pair read."""
        work = record_work(monkeypatch)
        assert main(argv) == 1
        assert work["points"] == points

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

        rep = check_godunova_levin(g, iv, bound=compile_value(e))
        assert rep.passed
        assert len(seen) < len(scan_points(iv, 64))

    def test_a_partial_cover_skips_points(self):
        # abs declines on the one cell holding its kink: the walk visits the
        # pairs that read it, and still stops before most of the rest
        e, n = parse("abs(x-0.3)"), 128
        assert enclosed(e, UNIT_IV, n, of_value=True)[1].count(math.inf) == 1
        seen = Counter()
        f, _ = compile_expression(e)

        def g(x):
            seen[x.hex()] += 1
            return f(x)

        assert check_godunova_levin(g, UNIT_IV, n, bound=compile_value(e)).passed
        assert len(seen) < len(scan_points(UNIT_IV, n))


_RANKED = (
    st.one_of(_tree_strategy(), st.sampled_from([parse(e.expression) for e in corpus_entries()])),
    _PROOF_ENDS,
    st.sampled_from([2, 9, 31, 64]),
    st.one_of(st.none(), st.floats(1.0, 3.0)),
)
# a rising |f''|^q, x^k on [0, b], where the coupled term keys rows more often
_RISING = st.tuples(
    st.integers(3, 8).map(lambda k: parse(f"x^{k}")),
    st.floats(0.5, 4.0).map(lambda b: (0.0, b)),
    st.sampled_from([2, 9, 31, 64]),
    st.floats(1.0, 3.0),
)


class TestRanking:
    """qclass.ranked_pairs hands out the pairs in the order of the eager sort,
    and sorts only the rows the walk takes a pair from."""

    @staticmethod
    def _ranked(e, iv, grid_n, q):
        """g at the grid points, its cell bounds and the cells' lower bounds
        of g at the grid points (_point_lows), for g = f (q None) or
        g = |f''|^q on iv, inf (and -inf or 0) on a cell where the enclosure
        declines; None where g raises at a grid point."""
        xs, sup = enclosed(e, iv, grid_n, of_value=q is None)
        ends = (compile_value if q is None else compile_second_derivative)(e)(_cells(xs))
        if q is not None:
            sup = powered(sup, q)
            ends = [(inf_power(low, q), high) for low, high in ends]
        try:
            g = compile_expression(e)[0] if q is None else _q_power(e, q)
            gx = [g(x) for x in xs]
        except (ExpressionError, ValueError, ArithmeticError):
            return None  # the scan raises before it ranks
        return gx, sup, _point_lows(ends)

    @classmethod
    def _both(cls, e, iv, grid_n, q, floor):
        """The lazy rankings of the pairs of _ranked, keyed first from g and
        from the cells' lows, and the eager one; None where g raises at a
        grid point. Each lazy ranking reads g once, where it builds a row."""
        ranked = cls._ranked(e, iv, grid_n, q)
        if ranked is None:
            return None
        gx, sup, lows = ranked
        lazy = []
        for first in (gx, lows):
            reads = []
            lazy.append(list(glbounds.qclass.ranked_pairs(first, sup, floor, lambda: reads.append(gx) or gx)))
            assert len(reads) <= 1
        return (*lazy, ranked_pairs_eager(gx, sup, floor))

    @settings(max_examples=examples(100), deadline=None)
    @given(*_RANKED, st.sampled_from([-math.inf, DEFAULT_TOL]), st.sampled_from([0.0, 0.5]))
    def test_lazy_order_is_the_eager_sort(self, e, ends, grid_n, q, floor, shift):
        """shift, taken off g = f, gives some examples rows with b = inf."""
        assume(ends[0] < ends[1])
        if q is None and shift:
            e = Bin("-", e, Const(shift))
        both = self._both(e, Interval(*ends), grid_n, q, floor)
        if both is not None:
            lazy, from_lows, eager = both
            assert lazy == from_lows == eager
            # ties of b, 0.0 against -0.0 among them, keep the sign the eager sort keeps
            assert [math.copysign(1.0, b) for b, _, _ in lazy] == [math.copysign(1.0, b) for b, _, _ in eager]

    @pytest.mark.parametrize("floor", [-math.inf, DEFAULT_TOL])
    @pytest.mark.parametrize(
        "text,iv,grid_n,q",
        [
            ("x", Interval(-1.0, 1.0), 64, None),  # half the rows have b = inf
            ("x^2-0.25", UNIT_IV, 31, None),  # a negative middle
            ("sin(x)", SINE_INTERVAL, 64, 2.0),
            ("1e308*sin(x)", Interval(0.1, 6.2), 64, None),
            ("1", UNIT_IV, 9, None),  # every pair of a row tied
            (COMPOSITE, Interval(0.0, 3.0), 128, 3.0),
        ],
    )
    def test_lazy_order_on_chosen_rows(self, text, iv, grid_n, q, floor):
        lazy, from_lows, eager = self._both(parse(text), iv, grid_n, q, floor)
        assert lazy == from_lows == eager

    @settings(max_examples=examples(100), deadline=None)
    @given(st.one_of(st.tuples(*_RANKED), _RISING), st.sampled_from([0.0, 0.5]))
    def test_keys_bound_their_rows(self, case, shift):
        """key_i is at least every b of row i, and inf where some g_j (j >= i)
        is negative; shift, taken off g = f, gives some examples such a g.
        It is at most the suffix key (oracles.suffix_keys), and where it is
        below, the coupled term alone is the key and bounds the row. Keys
        from any lower bounds of g, the cells' lows here, are at least the
        keys from g, and so bound the rows too."""
        e, ends, grid_n, q = case
        assume(ends[0] < ends[1])
        if q is None and shift:
            e = Bin("-", e, Const(shift))
        ranked = self._ranked(e, Interval(*ends), grid_n, q)
        if ranked is None:
            return
        gx, sup, lows = ranked
        parts = _row_parts(gx, sup)
        keys, suffix = _row_keys(*parts), suffix_keys(*parts)
        from_lows = _row_keys(*_row_parts(lows, sup))
        rows = bound_rows(gx, sup)
        coupled = [i for i, (key, bound) in enumerate(zip(keys, suffix)) if key < bound]
        event(f"rows keyed by the coupled term: {'some' if coupled else 'none'}")
        assert all(key <= bound for key, bound in zip(keys, suffix))
        assert all(low >= key >= max(row) for low, key, row in zip(from_lows, keys, rows))
        assert all(key == math.inf for i, key in enumerate(keys) if any(not v >= 0.0 for v in gx[i:]))

    def test_coupled_keys_bound_zero_and_subnormal_roots(self):
        """Row keys straight from parts with roots 0, subnormal and tiny, one
        inf cell and a negative g (a None root): rows 0 and 1 read the inf
        cell 1 or the negative g_0 and key inf; every other key is finite, at
        least every b of its row and at most the suffix key, and the coupled
        term alone keys some of them."""
        sup_in = [1.0, math.inf, 4.0, 1e-300, 5e-324, 9.0, 16.0, 2.0, 17.0]
        sup, alone, _ = _row_parts([1.0] * 10, sup_in)
        roots = [None, 2.0, 0.0, 5e-324, 1e-310, 3.0, 1e-160, 0.0, 4.0, 1.5]
        keys = _row_keys(sup, alone, roots)
        rows = [_bound_row(i, sup, alone, roots) for i in range(10)]
        assert keys[:2] == [math.inf, math.inf] and all(math.isfinite(key) for key in keys[2:])
        assert all(key >= max(row) for key, row in zip(keys, rows))
        suffix = suffix_keys(sup, alone, roots)
        assert all(key <= bound for key, bound in zip(keys, suffix))
        assert any(key < bound for key, bound in zip(keys, suffix))

    @pytest.mark.parametrize("floor", [-math.inf, DEFAULT_TOL])
    @pytest.mark.parametrize(
        "text,iv,q",
        [
            ("sin(x)", EDGE_SINE_WINDOW, 1.34),  # every key at most the tolerance
            ("exp(x)", UNIT_IV, 2.0),
            ("sin(x)", SINE_INTERVAL, 1.0),
            ("x^2-0.25", UNIT_IV, None),  # a negative middle
        ],
    )
    def test_lazy_order_under_one_cell(self, text, iv, q, floor):
        """Every cell bound equal, as the one cell that holds the grid gives
        them: the keys of all rows are close, and the order is still the sort's."""
        e = parse(text)
        xs = _scan_grid(iv, 64, DEFAULT_TOL)
        cells = _cells(xs)
        bound = (compile_value if q is None else compile_second_derivative)(e)
        [hull] = bound([(cells[0][0], cells[-1][1])])
        sup = [hull[1] if q is None else sup_power(hull[1], q)] * len(cells)  # f's or |f''|'s (low, high)
        gx = [(compile_expression(e)[0] if q is None else _q_power(e, q))(x) for x in xs]
        assert list(glbounds.qclass.ranked_pairs(gx, sup, floor, lambda: gx)) == ranked_pairs_eager(gx, sup, floor)

    def test_a_negative_g_right_of_the_diagonal_keys_its_row_inf(self):
        # 0.25 - x is negative from x_2 = 0.2777... on: every row keys inf, rows
        # 0 and 1 too, though their own g is not negative
        e, iv = parse("0.25-x"), UNIT_IV
        xs, sup = enclosed(e, iv, 9, of_value=True)
        gx = [0.25 - x for x in xs]
        keys = _row_keys(*_row_parts(gx, sup))
        assert [key == math.inf for key in keys] == [True] * 9
        assert [v >= 0.0 for v in gx] == [True, True] + [False] * 7
        for floor in (-math.inf, DEFAULT_TOL):
            assert list(glbounds.qclass.ranked_pairs(gx, sup, floor, lambda: gx)) == ranked_pairs_eager(gx, sup, floor)

    def test_a_passing_scan_builds_only_the_rows_its_keys_reach(self, monkeypatch, capsys):
        """x^2 on [0, 1] takes 2 pairs, both from row 0, at grids 64 and 128;
        the coupled keys of the other rows are at most the tolerance, so 1
        row of pair bounds is built (32 and 64 with keys from the largest
        bound right of each row)."""
        for grid_n in ("64", "128"):
            with monkeypatch.context() as m:
                work = record_work(m)
                taken = record_taken(m)
                assert main(["qclass", "--g", "x^2", "--a", "0", "--b", "1", "--grid", grid_n]) == 0
            assert work["rows"] == 1 and [i for _, i, _ in taken[0]] == [0, 0]

    def test_a_passing_scan_sorts_only_the_rows_it_takes_from(self, monkeypatch, capsys):
        taken = record_taken(monkeypatch)
        rows = []

        def recorded_sorted(pairs, **kwargs):
            if kwargs:  # the report's sort of its violations, keyed on (x, y, lam)
                return sorted(pairs, **kwargs)
            # with floor -inf a row's list holds every (b, j), from j = i on
            rows.append(min(j for _, j in pairs))
            return sorted(pairs)

        monkeypatch.setattr(glbounds.qclass, "sorted", recorded_sorted, raising=False)
        assert main(["qclass", "--g", "x^2", "--a", "-3.7", "--b", "5.2", "--grid", "64"]) == 0
        [pairs] = taken
        assert sorted(rows) == sorted({i for _, i, _ in pairs})
        assert len(rows) < 64


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

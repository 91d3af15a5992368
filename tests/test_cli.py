import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import glbounds
import glbounds.enclosure
from glbounds import (
    BoundInput,
    Interval,
    Violation,
    check_expression,
    coefficient_set,
    evaluate_jet2,
    lhs_functional,
    membership_for_bound,
    parse,
    rhs_identity,
    theorem_bound,
)
from glbounds.cli import _COMMANDS, _parser, _read, _sweep_content, main
from glbounds.expressions import MAX_NESTING
import cli_cases
from conftest import examples
from oracles import DEEP_SHAPES, EVERY, sweep_csv, sweep_json

# E(0.3, exp) on [20, 20.01] and on [30, 31], from the closed form in 80-digit
# decimals by bench/oracle.py, rounded to double
E_EXP_20 = 203.16418691097877
E_EXP_30 = 68763880758.238

CSV_HEADER = "lambda,q,regime,lhs_abs,bound,ratio,membership"


def _check_case(case, tmp_path, monkeypatch, capsys):
    """Run a row of cli_cases.py through main, in tmp_path, and check it."""
    monkeypatch.chdir(tmp_path)
    code = main(case.argv)
    captured = capsys.readouterr()
    assert cli_cases.mismatches(case, code, captured.out, captured.err, str(tmp_path)) == []


def _check_row(argv, tmp_path, monkeypatch, capsys):
    """Check the one row of cli_cases.py whose argv is argv: a test that keeps
    its name runs its row, so its pin is still written once, in the row."""
    (case,) = [case for case in cli_cases.CASES if case.argv == argv]
    _check_case(case, tmp_path, monkeypatch, capsys)


class TestVerifyIdentity:
    def test_same_bytes_on_every_python(self, capsys):
        # each integral adds its panels left to right, and the rhs its two
        # halves; sum() would compensate from Python 3.12 on. Both sides are
        # within 2 ulps of the exact E = -125/3 (abs_diff was 0 with adaptive
        # Simpson, 1.42109e-14 with Lobatto-Kronrod and four kernel pieces)
        assert main(["verify-identity", "--fn", "x^2", "--a", "-10", "--b", "10", "--lambda", "0.75"]) == 0
        assert capsys.readouterr().out == "lhs      = -41.6667\nrhs      = -41.6667\nabs_diff = 7.10543e-15\n"
        e, iv, lam = parse("x^2"), Interval(-10.0, 10.0), 0.75
        assert abs(lhs_functional(e, iv, lam) + 125.0 / 3.0) <= 1.5e-14
        assert abs(rhs_identity(e, iv, lam) + 125.0 / 3.0) <= 1.5e-14

    # lhs_rel: E adds terms near 4.9e8 up to 203 on [20, 20.01], near 1.8e13
    # up to 6.9e10 on [30, 31]; a few ulps of those terms is its rounding
    @pytest.mark.parametrize(
        "a,b,exact,lhs_rel",
        [("20", "20.01", E_EXP_20, 1e-8), ("30", "31", E_EXP_30, 1e-12)],
        ids=["20-20.01", "30-31"],
    )
    def test_exp_stall_converges(self, a, b, exact, lhs_rel, capsys):
        # adaptive Simpson to an absolute 1e-10 failed both: the f side spent
        # the whole budget on [30, 31], the kernel side hit its depth cap on
        # both. Each side now answers; the identity still fails on its
        # absolute tol of 1e-8, below the rounding of an E near 203 or 6.9e10
        code = main(["verify-identity", "--fn", "exp(x)", "--a", a, "--b", b, "--lambda", "0.3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        fields = dict(line.split(" = ") for line in captured.out.splitlines())
        for side in ("lhs     ", "rhs     "):
            assert float(fields[side]) == pytest.approx(exact, rel=1e-5)  # 6 printed digits
        e, iv, lam = parse("exp(x)"), Interval(float(a), float(b)), 0.3
        assert abs(lhs_functional(e, iv, lam) - exact) <= lhs_rel * exact
        assert abs(rhs_identity(e, iv, lam) - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("fn", ["1", "sin(x)", "x^2", "exp(x)"])
    def test_overflowing_midpoint_is_an_input_error(self, fn, tmp_path, monkeypatch, capsys):
        # whatever f, the overflowing midpoint is the error
        argv = ["verify-identity", "--fn", fn, "--a", "1e308", "--b", "1.7e308", "--lambda", "0.5"]
        _check_row(argv, tmp_path, monkeypatch, capsys)


class TestCoeffs:
    def test_json_keys_and_values(self, capsys):
        assert main(["coeffs", "--lambda", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["M", "A", "B", "C_q1", "regime"]
        assert payload["M"] == 1.0 / 24.0
        assert payload["A"] == 0.125
        assert payload["B"] == pytest.approx(math.log(2.0) - 0.625, abs=1e-15)
        assert payload["C_q1"] == pytest.approx(math.log(2.0) - 0.5, abs=1e-15)
        assert payload["regime"] == "Low"

    def test_trapezoid_values(self, capsys):
        assert main(["coeffs", "--lambda", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == pytest.approx(1.0 / 12.0, abs=1e-15)
        assert payload["A"] == 0.375
        assert payload["B"] == 0.125
        assert payload["C_q1"] == 0.5
        assert payload["regime"] == "High"

    def test_out_of_range(self, tmp_path, monkeypatch, capsys):
        _check_row(["coeffs", "--lambda", "1.5"], tmp_path, monkeypatch, capsys)


class TestLambdaError:
    """Every command that takes one --lambda checks it with the package's one
    lambda check: an input error with the same stderr line."""

    ARGVS = {
        "verify-identity": ["verify-identity", "--fn", "x^2", "--a", "0", "--b", "1"],
        "coeffs": ["coeffs"],
        "bound": ["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--q", "1"],
        "bound skipped": ["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--q", "1", "--skip-membership"],
    }

    @pytest.mark.parametrize("lam", ["1.5", "nan"])
    @pytest.mark.parametrize("argv", ARGVS.values(), ids=ARGVS.keys())
    def test_out_of_range_is_one_input_error(self, argv, lam, tmp_path, monkeypatch, capsys):
        _check_row([*argv, "--lambda", lam], tmp_path, monkeypatch, capsys)


class TestBound:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 1 (verdicts that know their error): E of a linear f is 0, "
        "but the float E is 1.11022e-16 of rounding noise against a bound of 0, so exit 1",
    )
    def test_linear_function_holds_its_zero_bound(self, capsys):
        assert main(["bound", "--fn", "x", "--a", "0.5", "--b", "1", "--lambda", "0.3", "--q", "1"]) == 0

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 17 (membership verdicts that do not depend on the units of f): "
        "the absolute tolerance passes 2^-50*sin, which prints CheckedPass and ratio = 180445, exit 1",
    )
    def test_a_scaled_member_keeps_the_verdict_of_its_function(self, capsys):
        """The class is a cone, so f and c*f (c > 0) owe one verdict."""
        interval = ["--a", "1e-6", "--b", "3.141592653589793", "--lambda", "0.5", "--q", "1"]
        assert main(["bound", "--fn", "sin(x)", *interval]) == 3
        assert main(["bound", "--fn", "8.881784197001252e-16*sin(x)", *interval]) == 3

    def test_integral_beyond_simpsons_budget_answers(self, capsys):
        # an absolute 1e-10 on an integral near 1.8e13 needed about 3.0M Simpson
        # samples: 7 to 10 s, then an exhausted budget (exit 2); 17 now
        argv = ["--fn", "exp(x)", "--a", "30", "--b", "31", "--lambda", "0.3", "--q", "1"]
        assert main(["bound", *argv, "--skip-membership"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lhs_abs = float(captured.out.splitlines()[0].split(" = ")[1])
        assert lhs_abs == pytest.approx(E_EXP_30, rel=1e-5)  # 6 printed digits

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--fn", "sin(1e308*x)", "--a", "0.5", "--b", "1.5", "--lambda", "0.3", "--q", "1.5"],
            ["bound", "--fn", "sin(1e308*x)", "--a", "0.5", "--b", "1.5", "--lambda", "0.3", "--q", "1.5",
             "--skip-membership"],
        ],
    )
    def test_non_finite_endpoint_weight_is_an_input_error(self, argv, tmp_path, monkeypatch, capsys):
        # decided or skipped, the weight's own error
        _check_row(argv, tmp_path, monkeypatch, capsys)


def _run_sweep(path, fmt=None, fn="x^2", a="0", b="1"):
    argv = [
        "sweep",
        "--fn",
        fn,
        "--a",
        a,
        "--b",
        b,
        "--lambda-grid",
        "0:1:0.25",
        "--q",
        "1,2",
        "--out",
        str(path),
    ]
    if fmt:
        argv += ["--format", fmt]
    return main(argv)


# numbers at the ends of the float range and where the two renderers'
# texts could part: signed zeros, the least subnormal and the largest float
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 1e-7])
_FINITE = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_REPORT = st.builds(
    glbounds.bounds.BoundReport,
    lam=_FINITE,
    q=_FINITE,
    lhs_abs=_FINITE,
    bound=_FINITE,
    ratio=st.one_of(st.none(), _FINITE, _NOT_FINITE),
    regime=st.sampled_from(glbounds.Regime),
    q_membership=st.sampled_from(glbounds.MembershipStatus),
)


@st.composite
def _reports(draw):
    """1 to 6 sweep rows; in half the lists, one row's lhs_abs or bound is not finite."""
    rows = draw(st.lists(_REPORT, min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i]._replace(**{draw(st.sampled_from(["lhs_abs", "bound"])): draw(_NOT_FINITE)})
    return rows


class TestSweep:
    def test_csv_schema_and_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert _run_sweep(out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11  # header + 5 lambdas x 2 qs
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == "1"
        assert first[2] == "Low"
        assert first[4].startswith("0.38629436111989")
        assert first[6] == "CheckedPass"

    def test_deterministic_bytes(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        assert _run_sweep(one) == 0
        assert _run_sweep(two) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_grid_is_literal(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert _run_sweep(out) == 0
        lams = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
        assert lams == {"0", "0.25", "0.5", "0.75", "1"}

    def test_rows_recompute_from_their_inputs(self, tmp_path, capsys):
        membership = {1.0: "CheckedPass", 2.0: "CheckedPass"}
        self._check_rows_recompute(tmp_path, "x^2", "0", "1", 2.0, 2.0, membership)

    def test_composite_rows_recompute_from_their_inputs(self, tmp_path, capsys):
        fn, iv = "exp(x)*sin(x)+1/(x+2)", Interval(0.0, 3.0)
        e = parse(fn)
        g_a = abs(evaluate_jet2(e, iv.a)[2])
        g_b = abs(evaluate_jet2(e, iv.b)[2])
        membership = {
            q: "CheckedPass" if membership_for_bound(e, iv, q).passed else "CheckedFail"
            for q in (1.0, 2.0)
        }
        self._check_rows_recompute(tmp_path, fn, "0", "3", g_a, g_b, membership)

    @staticmethod
    def _check_rows_recompute(tmp_path, fn, a, b, g_a, g_b, membership):
        out = tmp_path / "sweep.csv"
        assert _run_sweep(out, fn=fn, a=a, b=b) == 0
        e = parse(fn)
        iv = Interval(float(a), float(b))
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == 10
        for line in lines:
            lam_s, q_s, regime, lhs_s, bound_s, ratio_s, status = line.split(",")
            lam, q = float(lam_s), float(q_s)
            lhs_abs = abs(lhs_functional(e, iv, lam))
            bound = theorem_bound(BoundInput(iv, lam, q, g_a, g_b))
            assert format(lhs_abs, ".17g") == lhs_s
            assert format(bound, ".17g") == bound_s
            assert format(lhs_abs / bound, ".17g") == ratio_s
            assert coefficient_set(lam).regime.value == regime
            assert status == membership[q]

    def test_repeated_q_gives_one_row(self, tmp_path, capsys):
        once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
        assert _run_sweep(once) == 0
        argv = ["sweep", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda-grid", "0:1:0.25",
                "--q", "2,1,1.0,2", "--out", str(repeated)]
        assert main(argv) == 0
        assert repeated.read_bytes() == once.read_bytes()  # 5 lambdas x 2 qs, each once

    def test_integral_taken_once_per_sweep(self, tmp_path, monkeypatch, capsys):
        calls = []
        original = glbounds.quadrature.integrate

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        # patch every module that imported it by name
        for module in (glbounds.quadrature, glbounds.kernel, glbounds.bounds, glbounds):
            if getattr(module, "integrate", None) is original:
                monkeypatch.setattr(module, "integrate", counted)
        assert _run_sweep(tmp_path / "sweep.csv", fn="exp(x)*sin(x)+1/(x+2)", a="0", b="3") == 0
        assert calls == [Interval(0.0, 3.0)]

    @pytest.mark.parametrize(
        "argv,counts",
        [
            (["sweep", "--fn", "exp(x)", "--a", "0", "--b", "1", "--lambda-grid", "0:1:0.01", "--q", "1,2,3",
              "--out", "sweep.csv"], (3, 101, 101)),
            (["bound", "--fn", "exp(x)", "--a", "0", "--b", "1", "--lambda", "0.3", "--q", "2"], (1, 1, 1)),
        ],
        ids=["sweep-101x3", "bound"],
    )
    def test_work_is_done_once_per_q_and_per_lambda(self, argv, counts, tmp_path, monkeypatch, capsys):
        """The weight powers are taken once per q, the coefficients and E(lambda) once per lambda."""
        monkeypatch.chdir(tmp_path)
        calls = {"_weight_powers": 0, "coefficient_set": 0, "at": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def count(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, count)

        counted(glbounds.bounds, "_weight_powers")
        counted(glbounds.bounds, "coefficient_set")
        counted(glbounds.kernel.FunctionalTerms, "at")
        assert main(argv) == 0
        assert (calls["_weight_powers"], calls["coefficient_set"], calls["at"]) == counts

    @settings(max_examples=examples(300), deadline=None)
    @given(rows=_reports())
    def test_templates_write_what_the_oracle_renderers_write(self, rows):
        """Each format's rows, written from its template, are the bytes of
        the oracle's renderer (CSV cells through format(v, '.17g'), JSON
        through json.dumps), or raise the same ValueError: a change to json's
        float text or error in any Python that CI runs fails here."""

        def written(render):
            try:
                return render()
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert written(lambda: _sweep_content(rows, "csv")) == written(lambda: sweep_csv(rows))
        json_text = written(lambda: sweep_json(rows))
        event("JSON " + ("raises" if json_text.startswith("ValueError") else "written"))
        assert written(lambda: _sweep_content(rows, "json")) == json_text

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert _run_sweep(out, fmt="json") == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 10
        # every object's keys are the CSV header's columns, in order
        assert all(list(row) == CSV_HEADER.split(",") for row in payload)

    def test_overflowing_ratio_is_strict_json(self, tmp_path, capsys):
        """The bound of sin(x)^22 on [0, pi] is 2.5e-316 and |E| is 0.83: the
        CSV ratio reads inf, and the JSON one null, never Infinity."""
        argv = ["sweep", "--fn", "sin(x)^22", "--a", "0", "--b", "3.141592653589793",
                "--lambda-grid", "0:0:1", "--q", "1"]
        csv_out, json_out = tmp_path / "sweep.csv", tmp_path / "sweep.json"
        assert main([*argv, "--out", str(csv_out)]) == 0
        assert main([*argv, "--out", str(json_out), "--format", "json"]) == 0

        def reject(token):
            raise AssertionError(f"{token} is not strict JSON")

        (row,) = json.loads(json_out.read_text(), parse_constant=reject)
        assert 0.0 < row["bound"] < 1e-300 and row["ratio"] is None
        assert csv_out.read_text().splitlines()[1].split(",")[5] == "inf"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_bound_is_an_input_error(self, fmt, tmp_path, capsys):
        # CSV used to write a bound of inf, and JSON to fail in the json library
        out = tmp_path / f"sweep.{fmt}"
        argv = ["sweep", "--fn", "1e304*sin(100*x)", "--a", "0", "--b", "7", "--lambda-grid", "0:1:0.5",
                "--q", "1", "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", cli_cases.OVERFLOWING_BOUND_ERR)
        assert not out.exists()

    def test_linear_function_has_empty_ratio(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert _run_sweep(out, fn="x") == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4] == "0"  # bound is zero when f'' vanishes at both ends
        assert row[5] == ""
        out = tmp_path / "sweep.json"
        assert _run_sweep(out, fmt="json", fn="x") == 0
        assert all(row["bound"] == 0.0 and row["ratio"] is None for row in json.loads(out.read_text()))

    def test_unwritable_path(self, tmp_path, monkeypatch, capsys):
        covers = []
        original = glbounds.enclosure.compile_second_derivative

        def counted(e):
            bound = original(e)

            def each(cells):
                covers.append(cells)
                return bound(cells)

            return each

        monkeypatch.setattr(glbounds.enclosure, "compile_second_derivative", counted)
        sine = {"fn": "sin(x)", "a": "0.000001", "b": "3.141592"}
        assert _run_sweep(tmp_path / "missing" / "sweep.csv", **sine) == 4
        assert "cannot write" in capsys.readouterr().err
        # the path fails before any membership decision starts
        assert covers == []
        assert _run_sweep(tmp_path / "sweep.csv", **sine) == 0
        xs = glbounds.qclass._scan_grid(Interval(0.000001, 3.141592), 64, 1e-12)
        # the one cell that holds the grid proves nothing for sine, nor do the 8
        # coarse cells, each the union of 8 of its cells; then its 63 cells
        cells = glbounds.qclass._cells(xs)
        coarse = [(cells[k][0], cells[min(k + 7, 62)][1]) for k in range(0, 63, 8)]
        assert covers == [[(cells[0][0], cells[-1][1])], coarse, cells]

    OVERFLOW_ARGV = ["sweep", "--fn", "exp(x)", "--a", "300", "--b", "301", "--lambda-grid", "0:1:0.5",
                     "--q", "1,3"]

    def test_input_error_leaves_out_untouched(self, tmp_path, capsys):
        # |f''|^3 of exp(x) overflows in the membership decision, as in `bound`
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"keep me\n")
        absent = tmp_path / "absent.csv"
        for path in (existing, absent):
            assert main(self.OVERFLOW_ARGV + ["--out", str(path)]) == 2
            assert capsys.readouterr().err == cli_cases.OVERFLOWING_POWER_ERR
        assert existing.read_bytes() == b"keep me\n"
        assert not absent.exists()

    def test_overflow_fails_before_any_scan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        out = tmp_path / "sweep.csv"
        assert main(self.OVERFLOW_ARGV + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == cli_cases.OVERFLOWING_POWER_ERR
        assert not out.exists()

    def test_non_finite_endpoint_weight_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        # f'' = -1e616*sin(1e308*x) overflows at a: the weight's own error, as
        # in bound's rows, and no file is written
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--lambda-grid", "0:1:0.5", "--q", "1.5", "--out", "sweep.csv"]
        assert main([*argv, "--fn", "sin(1e308*x)", "--a", "0.5", "--b", "1.5"]) == 2
        assert capsys.readouterr() == ("", "error: |f''(x)| is not finite at x=0.5: inf\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_infinite_q_fails_before_any_scan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda-grid", "0:1:0.5", "--q", "1,inf",
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: q must be finite and >= 1, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid,qs",
        [
            ("0.5:0.2:0.1", "1"),
            ("0:1:-0.1", "1"),
            ("0:1:0.5", "0.5"),
            ("0:1.5:0.5", "1"),
            ("0:1", "1"),
            # more than 100,001 lambdas: 1e6 of them, and an infinite quotient
            ("0:1:5e-324", "1"),
            ("0:1:1e-6", "1"),
        ],
    )
    def test_bad_spec(self, tmp_path, grid, qs, monkeypatch, capsys):
        monkeypatch.setattr(glbounds.bounds, "sweep_rows", None)  # no row may be computed
        code = main(
            ["sweep", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda-grid", grid, "--q", qs, "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_step_is_named(self, tmp_path, monkeypatch, capsys):
        # the lambda 0 + 0*inf would be nan, which the user never wrote
        monkeypatch.setattr(glbounds.bounds, "sweep_rows", None)  # no row may be computed
        argv = ["sweep", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda-grid", "0:1:inf", "--q", "1",
                "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: lambda grid step must be positive and finite, got inf\n")


class TestQclass:
    def test_overflowing_power_is_an_input_error(self, capsys):
        code = main(["qclass", "--fn", "exp(x)", "--q", "3", "--a", "300", "--b", "301", "--grid", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: |f''(x)|^q overflows at x=300.125")

    @pytest.mark.parametrize("grid", ["257", "1000000000"])
    @pytest.mark.parametrize("source", [["--g", "x^2"], ["--fn", "x^2", "--q", "1"]])
    def test_grid_is_capped(self, grid, source, monkeypatch, capsys):
        def no_scan(iv):
            raise AssertionError("a scan started")

        # a scan reads the width first, to place its grid_n points
        monkeypatch.setattr(Interval, "width", property(no_scan))
        code = main(["qclass", *source, "--a", "-3.7", "--b", "5.2", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: grid_n must be in [2, 256], got {grid}\n"

    def test_infinite_q_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setattr(glbounds.qclass, "check_godunova_levin", None)  # no scan may start
        code = main(["qclass", "--fn", "sin(x)", "--q", "inf", "--a", "0.000001", "--b", "3.141592", "--grid", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: q must be finite and >= 1, got inf\n"


def _printed_violations(out):
    """The (x, y, lam, lhs, rhs) of each violation line, as floats (17 digits
    round-trip)."""
    return [
        tuple(float(field.split("=")[1]) for field in line.split()[1:])
        for line in out.splitlines()
        if line.startswith("violation:")
    ]


def _ten_worst(violations):
    return [tuple(v) for v in sorted(violations, key=lambda v: (-v.margin, v.x, v.y, v.lam))[:10]]


class TestQclassTopTen:
    """qclass prints the ten largest margins, ties in (x, y, lam) order."""

    @pytest.mark.parametrize(
        "source",
        [["--g", "sin(x)"], ["--fn", "sin(x)", "--q", "1.878"], ["--fn", "sin(x)", "--q", "1"]],
    )
    def test_sine_reports(self, source, capsys):
        assert main(["qclass", *source, "--a", "0.000001", "--b", "3.141592"]) == 1
        printed = _printed_violations(capsys.readouterr().out)
        e, iv = parse("sin(x)"), Interval(0.000001, 3.141592)
        if source[0] == "--g":
            rep = check_expression(e, iv, keep=EVERY)
        else:
            rep = membership_for_bound(e, iv, float(source[3]), keep=EVERY)
        assert len(printed) == 10
        assert printed == _ten_worst(rep.violations)

    def test_tied_margins(self, monkeypatch, capsys):
        # g = -1: a margin depends on lam alone, so 128 violations tie at the
        # largest, and the cut at ten falls among them; every one is read
        self._tied_margins(monkeypatch, capsys, "0-1", 128, proven=False)

    def test_tied_margins_of_proven_entries(self, monkeypatch, capsys):
        # the cut at ten falls among three ties of 15.046354166666667, and
        # cells prove some of the ten, whose g is read only to keep them
        self._tied_margins(monkeypatch, capsys, "abs(x-0.5)-1", 4, proven=True)

    @staticmethod
    def _tied_margins(monkeypatch, capsys, text, ties, proven):
        """qclass --g text on [0, 1] at grid 8 prints the ten worst of every
        violation, ties in (x, y, lam) order; ties of them share the tenth
        margin. Where proven, some printed points are read by no scan that
        keeps nothing."""
        iv = Interval(0.0, 1.0)
        every = check_expression(parse(text), iv, 8, keep=EVERY).violations
        assert main(["qclass", "--g", text, "--a", "0", "--b", "1", "--grid", "8"]) == 1
        printed = _printed_violations(capsys.readouterr().out)
        assert printed == _ten_worst(every)
        tenth = Violation(*printed[-1]).margin
        assert sum(v.margin == tenth for v in every) >= ties and sum(v.margin > tenth for v in every) < 10
        read = set()
        value = glbounds.qclass._compile_value

        def recorded(e):
            f = value(e)
            return lambda x: read.add(x) or f(x)

        monkeypatch.setattr(glbounds.qclass, "_compile_value", recorded)
        check_expression(parse(text), iv, 8, keep=0)
        unread = [v for v in map(Violation._make, printed) if v.lam * v.x + (1.0 - v.lam) * v.y not in read]
        assert bool(unread) is proven


def _rendering(rep):
    """What qclass prints of the report rep: its count, max_margin, verdict
    and ten largest margins."""
    lines = [
        f"samples_checked = {rep.samples_checked}",
        f"violations      = {len(rep.violations)}",
        f"max_margin      = {rep.max_margin:.17g}",
        f"passed          = {rep.passed}",
    ]
    lines += [
        f"violation: x={x:.17g} y={y:.17g} lambda={lam:.17g} lhs={lhs:.17g} rhs={rhs:.17g}"
        for x, y, lam, lhs, rhs in _ten_worst(rep.violations)
    ]
    return "".join(line + "\n" for line in lines)


_SINE = ["--a", "0.000001", "--b", "3.141592"]


class TestQclassReadsTheScan:
    """qclass prints, from the scan's record, what the public report holds."""

    @pytest.mark.parametrize(
        "source,count",
        [
            # at grid 9 the check for negative values meets the walk's (x, x, 1/2)
            (["--g", "x-0.5", "--a", "0", "--b", "1", "--grid", "9"], 356),
            # 11 distinct grid points of 64: 262,208 tuples recorded, 7,755 distinct
            (["--g", "0-1", "--a", "100000000", "--b", "100000000.00000015"], 7755),
        ],
        ids=["negative-values-at-an-odd-grid", "coinciding-grid-points"],
    )
    def test_repeated_violations_count_once(self, source, count, capsys):
        assert main(["qclass", *source]) == 1
        out = capsys.readouterr().out
        assert f"violations      = {count}\n" in out
        iv = Interval(float(source[3]), float(source[5]))
        grid = int(source[7]) if len(source) > 6 else 64
        assert out == _rendering(check_expression(parse(source[1]), iv, grid, keep=EVERY))

    @pytest.mark.parametrize("grid", [2, 9, 31, 64, 100, 101, 128])
    @pytest.mark.parametrize("source", [["--fn", "sin(x)", "--q", "1.878"], ["--g", "sin(x)"]], ids=["fn", "g"])
    def test_sine_prints_the_report(self, source, grid, capsys):
        code = main(["qclass", *source, *_SINE, "--grid", str(grid)])
        e, iv = parse("sin(x)"), Interval(0.000001, 3.141592)
        if source[0] == "--g":
            rep = check_expression(e, iv, grid, keep=EVERY)
        else:
            rep = membership_for_bound(e, iv, 1.878, grid, keep=EVERY)
        assert (code, capsys.readouterr().out) == (0 if rep.passed else 1, _rendering(rep))

    def test_a_failing_scan_makes_ten_violations(self, monkeypatch, capsys):
        made = []
        make = Violation._make
        monkeypatch.setattr(Violation, "_make", classmethod(lambda cls, fields: made.append(1) or make(fields)))
        assert main(["qclass", "--fn", "sin(x)", "--q", "1.878", *_SINE]) == 1
        assert "violations      = 13512\n" in capsys.readouterr().out
        assert len(made) <= 10


class TestClosedStdout:
    """A reader that has gone away is an output I/O error (exit 4), not a
    verdict, and prints no traceback."""

    CORPUS = ["corpus"]
    QCLASS = ["qclass", "--fn", "sin(x)", "--q", "2", "--a", "0.000001", "--b", "3.141592", "--grid", "8"]

    @pytest.mark.parametrize(
        "argv,unbuffered",
        [
            (CORPUS, False),
            (CORPUS, True),
            (QCLASS, False),
            (QCLASS, True),
            (["--help"], False),
            (["--help"], True),
            (["qclass", "--help"], False),
            (["qclass", "--help"], True),
        ],
        ids=[
            "argv0-False", "argv0-True", "argv1-False", "argv1-True",
            "help-False", "help-True", "qclass-help-False", "qclass-help-True",
        ],
    )
    def test_exit_code_is_an_io_error(self, argv, unbuffered):
        # buffered, the short qclass report and the help meet the closed pipe
        # only when stdout is flushed; unbuffered, at their first line
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command starts, so every write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "glbounds", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (4, b"")


def _nesting_commands(fn, out):
    """Every command that parses an expression, on fn; '--fn=' keeps a leading '-' an argument."""
    iv = ["--a", "0.5", "--b", "1"]
    return {
        "verify-identity": ["verify-identity", f"--fn={fn}", *iv, "--lambda", "0.3"],
        "bound": ["bound", f"--fn={fn}", *iv, "--lambda", "0.3", "--q", "1"],
        "sweep": ["sweep", f"--fn={fn}", *iv, "--lambda-grid", "0:0:1", "--q", "1", "--out", out],
        "qclass --g": ["qclass", f"--g={fn}", *iv, "--grid", "8"],
        "qclass --fn": ["qclass", f"--fn={fn}", "--q", "1", *iv, "--grid", "8"],
    }


@pytest.mark.parametrize("command", list(_nesting_commands("x", "")))
@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_nesting_at_the_limit_and_past_it(shape, command, tmp_path, capsys):
    """At the parser's limit the command answers; a level deeper is an input
    error. A few hundred levels used to exhaust the stack in the parser or in
    the compiled closures: a RecursionError traceback, exit 1."""
    text, offset = DEEP_SHAPES[shape]
    out = str(tmp_path / "sweep.csv")
    assert main(_nesting_commands(text(MAX_NESTING), out)[command]) != 2
    assert "error" not in capsys.readouterr().err
    assert main(_nesting_commands(text(MAX_NESTING + 1), out)[command]) == 2
    err = f"error: nesting deeper than {MAX_NESTING} levels (offset {offset(MAX_NESTING + 1)})\n"
    assert capsys.readouterr() == ("", err)


def _argparse_reads(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits;
    what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv))
        except SystemExit:
            return None


TABLE_FLAGS = sorted({flag for _, _, options in _COMMANDS.values() for flag in options})
# forms that argparse reads and _read leaves to it
OTHER_FORMS = ["--lam", "--skip", "--form", "-h", "--help", "--", "--fn=x^2", "--lambda=0.5", "--a=-1"]
# values that begin with '-' (negative numbers by argparse's rule and not),
# empty, and values that float, int or --format's choices accept or reject
ARG_VALUES = ["0.5", "-1", "-.5", "-1e5", "-x^2", "-", "", "nan", "1_0", " 1", "abc", "x^2", "csv"]


@st.composite
def _argvs(draw):
    """A command or an unknown one with flags and values, then up to two
    changes: a value swapped for one of ARG_VALUES, a flag or pair dropped,
    or a flag, value or other form put in; in any order."""
    command = draw(st.sampled_from([*_COMMANDS, "no-such-command"]))
    options = _COMMANDS[command][2] if command in _COMMANDS else {}
    pieces = []
    for flag, kw in options.items():
        if kw.get("action") == "store_true":
            pieces += [[flag]] if draw(st.booleans()) else []
        elif kw.get("required") or draw(st.booleans()):
            # a value that the flag's type and choices take
            pieces.append([flag, draw(st.sampled_from(kw.get("choices", ["1", "-1", "-.5", " 2", "1_0"])))])
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["swap", "drop", "put"]))
        pairs = [piece for piece in pieces if len(piece) == 2]
        if change == "swap" and pairs:
            draw(st.sampled_from(pairs))[1] = draw(st.sampled_from(ARG_VALUES))
        elif change == "drop" and pieces:
            pieces.remove(draw(st.sampled_from(pieces)))
        else:
            pieces.append(
                draw(
                    st.one_of(
                        st.tuples(st.sampled_from(TABLE_FLAGS), st.sampled_from(ARG_VALUES)).map(list),
                        st.sampled_from(TABLE_FLAGS + OTHER_FORMS + ARG_VALUES).map(lambda token: [token]),
                    )
                )
            )
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _joined(argv):
    """argv with each flag's value that _read takes joined to its flag as
    '--flag=value', the form in which argparse takes a value that begins
    with '-'."""
    options = _COMMANDS[argv[0]][2] if argv and argv[0] in _COMMANDS else {}
    out = list(argv[:1])
    i = 1
    while i < len(argv):
        kw = options.get(argv[i])
        if (
            kw is None
            or kw.get("action") == "store_true"
            or i + 1 == len(argv)
            or argv[i + 1].startswith("--")
            or argv[i + 1] == "-h"
        ):
            out.append(argv[i])
            i += 1
        else:
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
    return out


def _reprs(namespace):
    # by repr, since a value of nan is unequal to itself
    return {name: repr(value) for name, value in namespace.items()}


class TestCommandTable:
    """main reads plain argv from _COMMANDS itself and gives every other argv
    to argparse, which is built from the same table."""

    BOUND = ["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.5", "--q", "1"]
    SWEEP = ["sweep", "--fn", "x", "--a", "0", "--b", "1", "--lambda-grid", "0:1:1", "--q", "1", "--out", "s.csv"]
    PLAIN = {
        "verify-identity": ["verify-identity", "--fn", "x^2", "--a", "-1", "--b", "1", "--lambda", "0.3",
                            "--tol", "1e-6"],
        "coeffs": ["coeffs", "--lambda", "0.25", "--json"],
        "bound": ["bound", "--fn", "exp(x)", "--a", "0", "--b", "1", "--lambda", ".5", "--q", "2",
                  "--skip-membership"],
        "sweep": ["sweep", "--fn", "x", "--a", "0", "--b", "1", "--lambda-grid", "0:1:1", "--q", "1,2", "--out",
                  "s.json", "--format", "json"],
        "qclass": ["qclass", "--g", "x^2", "--a", "-.5", "--b", "1", "--grid", "8"],
        "corpus": ["corpus"],
        # values that begin with '-', which argparse takes only as --flag=value
        "option-like value": ["bound", "--fn", "-x^2", *BOUND[3:]],
        "exponent not a negative number to argparse": ["coeffs", "--lambda", "-1e5"],
        "a value argparse takes though it begins with '-'": ["bound", "--fn", "- x", *BOUND[3:]],
        "lone dash": ["bound", "--fn", "-", *BOUND[3:]],
    }
    OTHER = {
        "empty": [],
        "unknown command": ["no-such-command"],
        "help": ["coeffs", "--lambda", "0.5", "--help"],
        "abbreviation": ["coeffs", "--lam", "0.5"],
        "flag=value": ["coeffs", "--lambda=0.5"],
        "double dash": ["coeffs", "--", "--lambda", "0.5"],
        "no value": ["coeffs", "--lambda"],
        "extra argument": ["coeffs", "--lambda", "0.5", "0.5"],
        "required flag left out": BOUND[:-2],
        "value that is a long option": ["bound", "--fn", "--a", *BOUND[3:]],
        "value that is -h": ["bound", "--fn", "-h", *BOUND[3:]],
        "not a float": ["coeffs", "--lambda", "abc"],
        "not an int": ["qclass", "--g", "x", "--a", "0", "--b", "1", "--grid", "2.5"],
        "not a choice": [*SWEEP, "--format", "xml"],
        "switch with a value": ["coeffs", "--lambda", "0.5", "--json", "1"],
        "flag of another command": ["coeffs", "--lambda", "0.5", "--fn", "x"],
    }

    @pytest.mark.parametrize("argv", PLAIN.values(), ids=PLAIN.keys())
    def test_plain_argv_is_read_from_the_table(self, argv):
        got = _read(argv)
        assert got is not None
        assert vars(got) == _argparse_reads(_joined(argv))

    @pytest.mark.parametrize("argv", OTHER.values(), ids=OTHER.keys())
    def test_other_argv_is_left_to_argparse(self, argv):
        assert _read(argv) is None

    @settings(max_examples=examples(300), deadline=None)
    @given(st.one_of(st.just([]), _argvs()))
    def test_read_agrees_with_argparse(self, argv):
        """_read gives argparse's namespace for argv with each value it takes
        joined as --flag=value, or leaves argv to argparse, and leaves it
        every argv whose joined form argparse rejects."""
        want = _argparse_reads(_joined(argv))
        got = _read(argv)
        if want is None:
            assert got is None
        elif got is not None:
            assert _reprs(vars(got)) == _reprs(want)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "glbounds", "coeffs", "--lambda", "0", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["regime"] == "Low"

    def test_repeated_calls_give_the_same_results(self, capsys):
        # main() reads plain argv itself and keeps one argparse parser for the
        # rest, so no call may leave state for the next on either path
        argvs = [
            ["verify-identity", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.3"],
            ["verify-identity", "--fn=x^2", "--a", "0", "--b", "1", "--lam", "0.3"],
            ["bound", "--fn", "x^2"],
            ["coeffs", "--help"],
            ["coeffs", "--lambda", "0.25", "--json"],
            ["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0", "--q", "1", "--skip-membership"],
            ["bound", "--fn=x^2", "--a", "0", "--b", "1", "--lam", "0", "--q", "1", "--skip-membership"],
            ["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "2", "--q", "1"],
            ["qclass", "--g", "1", "--a", "0", "--b", "1", "--grid", "8"],
            ["no-such-command"],
            ["coeffs", "--lambda", "0"],
        ]
        passes = []
        for _ in range(2):
            results = []
            for argv in argvs:
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            passes.append(results)
        assert passes[0] == passes[1]
        assert [code for code, _, _ in passes[0]] == [0, 0, 2, 0, 0, 0, 0, 2, 0, 2, 0]
        # the forms argparse reads answer as the plain ones do
        assert passes[0][1] == passes[0][0]
        assert passes[0][6] == passes[0][5]


def _case_id(case):
    """The row's argv, with each token longer than 40 characters shortened."""
    return " ".join(t if len(t) <= 40 else f"{t[:12]}...({len(t)} chars)" for t in case.argv)


@pytest.mark.parametrize("case", cli_cases.CASES, ids=_case_id)
def test_cli_case(case, tmp_path, monkeypatch, capsys):
    """Each row of cli_cases.py through main, in process; CI runs the same
    rows through the installed glbounds, each in a fresh process."""
    _check_case(case, tmp_path, monkeypatch, capsys)


def test_no_two_cases_share_an_argv():
    """A pin is written once: a second row of the same argv would be a second
    place to change it."""
    argvs = [tuple(case.argv) for case in cli_cases.CASES]
    assert [argv for argv in set(argvs) if argvs.count(argv) > 1] == []


def test_cli_cases_runner_names_the_row_that_fails(tmp_path, monkeypatch, capsys):
    """cli_cases.main runs rows through the glbounds command on PATH, here a
    shim for python -m glbounds on src/; one changed expected byte fails the
    run and names its row alone."""
    shim = tmp_path / "glbounds"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m glbounds "$@"\n')
    shim.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    coeffs = next(case for case in cli_cases.CASES if case.argv[0] == "coeffs")
    # a non-ASCII argv and stderr, which cross the process boundary as UTF-8
    letter = next(case for case in cli_cases.CASES if "π" in (case.err or ""))
    assert cli_cases.main([coeffs, letter]) == 0
    assert capsys.readouterr().out == "ran 2 CLI cases, 0 with mismatches\n"
    changed = letter._replace(err=letter.err.replace("4", "5"))
    assert cli_cases.main([coeffs, changed]) == 1
    out = capsys.readouterr().out
    assert f"mismatch: glbounds {shlex.join(letter.argv)}\n" in out
    assert "mismatch: glbounds coeffs" not in out
    assert out.endswith("ran 2 CLI cases, 1 with mismatches\n")

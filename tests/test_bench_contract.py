"""The names the benchmark in bench/ reads from glbounds.

bench/tracer.py wraps every function in its TRACED table and raises when one
is missing, and its hooks read some arguments by position. A renamed or
dropped function, or a moved parameter, would otherwise show only when the
benchmark runs. The benchmark's own request streams also check that the
membership decision of bound and sweep changes no output byte.
"""

import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glbounds.bounds
import glbounds.enclosure
import glbounds.qclass
from glbounds.cli import main
from glbounds import Interval, parse
from glbounds.qclass import bound_memberships, membership_for_bound

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.fixture
def bench_on_path(monkeypatch):
    # the bench scripts import each other as top-level modules
    monkeypatch.syspath_prepend(str(BENCH))


def test_every_traced_function_exists(bench_on_path):
    traced = importlib.import_module("tracer").TRACED
    missing = [
        f"glbounds.{mod}.{fn}"
        for mod, fns in traced.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"glbounds.{mod}"), fn, None))
    ]
    assert missing == []


@pytest.mark.parametrize(
    "mod,fn,index,name",
    [
        ("quadrature", "integrate", 0, "f"),
        ("kernel", "lhs_functional", 1, "iv"),
        ("qclass", "check_godunova_levin", 2, "grid_n"),
        ("qclass", "membership_for_bound", 2, "q"),
    ],
)
def test_hooks_find_their_argument_by_position(mod, fn, index, name):
    func = getattr(importlib.import_module(f"glbounds.{mod}"), fn)
    param = list(inspect.signature(func).parameters.values())[index]
    assert param.name == name
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize(
    "source,scoped",
    [(["--g", "sin(x)"], 0), (["--fn", "sin(x)", "--q", "2"], 1)],
    ids=["g", "fn"],
)
def test_the_tracer_counts_the_scans_qclass_runs(bench_on_path, capsys, source, scoped):
    """qclass reaches the scan through the names bench/tracer.py wraps: one
    qclass.check_godunova_levin call per request, with its n^3 triples and
    its g evaluations counted, and one qclass.membership_for_bound call for
    --fn, so the traced qclass.* metrics read the scans."""
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        code = main(["qclass", *source, "--a", "0.000001", "--b", "3.141592"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 1  # sine fails the scan
    assert tracer.calls["qclass.check_godunova_levin"] == 1
    assert tracer.counts["qclass.check_godunova_levin.triples"] == 64**3
    assert tracer.counts["qclass.check_godunova_levin.g_evals"] > 0
    assert tracer.calls["qclass.membership_for_bound"] == scoped


@pytest.mark.parametrize(
    "argv,called",
    [
        (["coeffs", "--lambda", "0.5"], ["coefficients.coefficient_set"]),
        (["verify-identity", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.3"],
         ["expressions.parse", "kernel.verify_identity"]),
        (["bound", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.3", "--q", "1", "--skip-membership"],
         ["expressions.parse", "bounds.evaluate_bound_report"]),
    ],
    ids=["coeffs", "verify-identity", "bound"],
)
def test_the_tracer_counts_the_calls_each_handler_makes(bench_on_path, capsys, argv, called):
    """The handlers reach their modules on first use and call through names
    bench/tracer.py wraps, parse included though glbounds.expressions is never
    wrapped: the traced run of a request, after an untraced one as the
    benchmark's traced pass does, counts each call once."""
    main(argv)
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert {name: tracer.calls[name] for name in called} == dict.fromkeys(called, 1)


@pytest.mark.parametrize("module", ["checks", "oracle", "workloads"])
def test_bench_modules_import(bench_on_path, module):
    importlib.import_module(module)


def _outcomes(requests, capsys):
    """Exit code, stdout, stderr and sweep-file bytes of every request."""
    outcomes = []
    for argv in requests:
        rc = main(argv)
        out, err = capsys.readouterr()
        data = None
        if argv[0] == "sweep":
            path = Path(argv[argv.index("--out") + 1])
            data = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
        outcomes.append((rc, out, err, data))
    return outcomes


def test_proofs_leave_every_benchmark_byte_alone(bench_on_path, tmp_path, monkeypatch, capsys):
    """Every membership decision that the bound and sweep requests of one
    membership and one edge cycle take is the scans' outcome, errors
    included, so those requests give the bytes of a scan per q."""
    requests = []
    for workload in ("membership", "edge"):
        fixed, cycles = importlib.import_module("workloads").requests(workload, 1)
        requests += [argv for argv in fixed + next(cycles) if argv[0] in ("bound", "sweep")]
    monkeypatch.chdir(tmp_path)  # sweeps write sweep.csv / sweep.json here
    calls = []
    original = glbounds.qclass.bound_memberships

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(glbounds.bounds, "bound_memberships", recorded)
    _outcomes(requests, capsys)
    decided = set()
    for e, iv, q_list in calls:
        outcome = _outcome(lambda: original(e, iv, q_list))
        assert outcome == _outcome(lambda: {q: membership_for_bound(e, iv, q).passed for q in q_list})
        if isinstance(outcome, dict):
            decided.update(outcome.values())
    assert decided == {True, False}  # both outcomes were taken


def test_edge_sine_windows_are_proven_on_one_cell(bench_on_path, monkeypatch):
    """The membership-checked sin(x) bounds of three edge cycles at seeds 4242
    and 9001, on windows 5e-7 to 9e-7 wide and the verbatim 1.2e-9 one, are
    each proven by the two ends of |f''| on the one cell that holds the
    grid: one enclosure, no evaluation of g, no ranking and no row of pair
    bounds."""
    from test_qclass import record_work

    windows = set()
    for seed in (4242, 9001):
        _, cycles = importlib.import_module("workloads").requests("edge", seed)
        for _ in range(3):
            windows.update(
                (float(argv[4]), float(argv[6]), float(argv[10]))
                for argv in next(cycles)
                if argv[:3] == ["bound", "--fn", "sin(x)"] and "--skip-membership" not in argv
            )
    assert len(windows) == 7
    sine = parse("sin(x)")
    for a, b, q in sorted(windows):
        with monkeypatch.context() as m:
            work = record_work(m)
            assert bound_memberships(sine, Interval(a, b), (q,)) == {q: True}
        assert work == {"covers": [1], "points": 0, "rankings": 0, "rows": 0}, (a, b, q)


def _outcome(call):
    """The result, or the exception's type and message."""
    try:
        return call()
    except Exception as exc:  # the exception is the outcome being compared
        return (type(exc), str(exc))


def test_pruning_leaves_every_benchmark_byte_alone(bench_on_path, capsys, monkeypatch):
    """Every qclass request of one membership cycle, and its bound requests
    whose decision visits pairs (x^4 at q > 1 and sine), give the same bytes
    whether the walks, the scans' and the decisions', take their pairs
    hottest first and stop early, visit every pair, or run with an enclosure
    that is inf on every cell."""
    fixed, cycles = importlib.import_module("workloads").requests("membership", 1)
    requests = [
        argv
        for argv in fixed + next(cycles)
        if argv[0] == "qclass" or (argv[0] == "bound" and argv[2] in ("x^4", "sin(x)"))
    ]
    assert sum(argv[0] == "bound" for argv in requests) == 2
    taken = []

    def recording(rank):
        def recorded(gx, *args):
            taken.append([len(gx) * (len(gx) + 1) // 2, 0])  # [all pairs, pairs the walk took]
            for pair in rank(gx, *args):
                taken[-1][1] += 1
                yield pair

        return recorded

    def every_pair(gx, sup, floor):  # a bound of inf on every pair: no walk stops early
        return [(math.inf, i, j) for i in range(len(gx)) for j in range(i, len(gx))]

    ranked_pairs = glbounds.qclass.ranked_pairs
    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", recording(ranked_pairs))
    pruned = _outcomes(requests, capsys)
    # every scan ranked its pairs once, and each walk stopped before its last pair
    assert len(taken) == len(requests)
    assert all(count < pairs for pairs, count in taken)
    taken.clear()
    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", recording(every_pair))
    assert _outcomes(requests, capsys) == pruned
    assert len(taken) == len(requests)
    assert all(count == pairs for pairs, count in taken)
    taken.clear()
    monkeypatch.setattr(glbounds.qclass, "ranked_pairs", recording(ranked_pairs))

    def unbounded(declined):  # as if the enclosure declined on every cell
        return lambda e: lambda cells: [declined] * len(cells)

    monkeypatch.setattr(glbounds.enclosure, "compile_value", unbounded((-math.inf, math.inf)))
    monkeypatch.setattr(glbounds.enclosure, "compile_second_derivative", unbounded((0.0, math.inf)))
    assert _outcomes(requests, capsys) == pruned
    assert len(taken) == len(requests)
    assert all(count == pairs for pairs, count in taken)


def test_start_up_leaves_the_enclosure_unloaded():
    """The benchmark's set-up probe answers one coeffs request in a fresh
    interpreter; glbounds.enclosure, and heapq for the lazy ranking of the
    pairs, are for bound, sweep and qclass alone."""
    code = (
        "import sys\n"
        "from glbounds.cli import main\n"
        "main(['coeffs', '--lambda', '0.5'])\n"
        "sys.exit({'glbounds.enclosure', 'heapq'} & set(sys.modules) != set())\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr

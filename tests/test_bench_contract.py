"""The names the benchmark in bench/ reads from glbounds.

bench/tracer.py wraps every function in its TRACED table and raises when one
is missing, and its hooks read some arguments by position. A renamed or
dropped function, or a moved parameter, would otherwise show only when the
benchmark runs. The benchmark's own request streams also check that the
membership decision of bound and sweep changes no output byte.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glbounds.qclass
import glbounds.ratio
from glbounds.cli import main

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
    """bound and sweep requests of one membership and one edge cycle give the
    same bytes whether membership is decided by the ratio lemma or every scan
    runs."""
    requests = []
    for workload in ("membership", "edge"):
        fixed, cycles = importlib.import_module("workloads").requests(workload, 1)
        requests += [argv for argv in fixed + next(cycles) if argv[0] in ("bound", "sweep")]
    monkeypatch.chdir(tmp_path)  # sweeps write sweep.csv / sweep.json here
    decided = []
    original = glbounds.qclass._decide

    def counted(*args):
        decided.append(original(*args))
        return decided[-1]

    monkeypatch.setattr(glbounds.qclass, "_decide", counted)
    with_decisions = _outcomes(requests, capsys)
    monkeypatch.setattr(glbounds.qclass, "_decide", lambda *args: None)
    assert _outcomes(requests, capsys) == with_decisions
    assert True in decided and False in decided  # both fast outcomes were taken


def test_pruning_leaves_every_benchmark_byte_alone(bench_on_path, capsys, monkeypatch):
    """Every qclass request of one membership cycle, and its bound requests
    whose proof declines (x^4 at q > 1 and sine), give the same bytes whether
    the scans skip pairs or visit them all. Those bound requests are decided
    pair by pair without a scan, so the decision is turned off here to make
    them scan."""
    fixed, cycles = importlib.import_module("workloads").requests("membership", 1)
    requests = [
        argv
        for argv in fixed + next(cycles)
        if argv[0] == "qclass" or (argv[0] == "bound" and argv[2] in ("x^4", "sin(x)"))
    ]
    assert sum(argv[0] == "bound" for argv in requests) == 2
    monkeypatch.setattr(glbounds.qclass, "_decide", lambda *args: None)
    kept = []
    original = glbounds.ratio.kept_columns

    def counted(xs, *args):
        kept.append(original(xs, *args))
        return kept[-1]

    monkeypatch.setattr(glbounds.ratio, "kept_columns", counted)
    pruned = _outcomes(requests, capsys)
    keep_all = lambda xs, *args: [range(len(xs))] * len(xs)  # noqa: E731
    monkeypatch.setattr(glbounds.ratio, "kept_columns", keep_all)
    assert _outcomes(requests, capsys) == pruned
    # every scan had a cover, and each skipped pairs
    assert len(kept) == len(requests)
    assert all(sum(map(len, keep)) < len(keep) ** 2 for keep in kept)


def test_start_up_leaves_the_enclosure_unloaded():
    """The benchmark's set-up probe answers one coeffs request in a fresh
    interpreter; glbounds.enclosure and glbounds.ratio are for bound, sweep
    and qclass alone."""
    code = (
        "import sys\n"
        "from glbounds.cli import main\n"
        "main(['coeffs', '--lambda', '0.5'])\n"
        "sys.exit({'glbounds.enclosure', 'glbounds.ratio'} & set(sys.modules) != set())\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr

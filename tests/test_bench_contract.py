"""The names the benchmark in bench/ reads from glbounds.

bench/tracer.py wraps every function in its TRACED table and raises when one
is missing, and its hooks read some arguments by position. A renamed or
dropped function, or a moved parameter, would otherwise show only when the
benchmark runs.
"""

import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


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

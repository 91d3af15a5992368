"""What a fresh `glbounds` process loads: none of the modules that only some
commands need, none that the value types could do without, and no argparse
where main reads argv from its command table. The package's own modules
load as the command runs them, and its public names on first access."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import glbounds

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses brings inspect (and ast, dis and tokenize) with it; json is for
# the commands that write JSON; heapq and the enclosure for the scans; argparse
# for help, usage errors and the argv forms that main does not read itself
NOT_AT_START = ("dataclasses", "inspect", "json", "heapq", "glbounds.enclosure", "argparse")


def _fresh(code):
    """The stdout of code run in a fresh interpreter that imports glbounds from src."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout


def _modules_after(argv):
    """The modules a fresh interpreter holds after main(argv) answers 0."""
    code = (
        "import contextlib, io\n"
        "from glbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*sys.modules)\n"
    )
    return _fresh(code).split()


def _loaded_after(argv):
    """Which of NOT_AT_START a fresh interpreter holds after main(argv)."""
    loaded = _modules_after(argv)
    return [m for m in NOT_AT_START if m in loaded]


def test_coeffs_loads_none_of_them():
    assert _loaded_after(["coeffs", "--lambda", "0.5"]) == []


def test_coeffs_json_loads_json():
    assert _loaded_after(["coeffs", "--lambda", "0.5", "--json"]) == ["json"]


def test_verify_identity_loads_none_of_them():
    assert _loaded_after(["verify-identity", "--fn", "x^2", "--a", "0", "--b", "1", "--lambda", "0.3"]) == []


def test_help_loads_argparse():
    assert _loaded_after(["--help"]) == ["argparse"]


INTERVAL = ["--a", "0", "--b", "1"]


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["coeffs", "--lambda", "0.5"], {"coefficients"}),
        (["verify-identity", "--fn", "x^2", *INTERVAL, "--lambda", "0.3"],
         {"coefficients", "expressions", "kernel", "quadrature"}),
        (["qclass", "--g", "x^2", *INTERVAL], {"enclosure", "expressions", "qclass", "quadrature"}),
        (["corpus"], {"corpus", "quadrature"}),
        (["bound", "--fn", "x^2", *INTERVAL, "--lambda", "0.3", "--q", "1", "--skip-membership"],
         {"bounds", "coefficients", "expressions", "kernel", "qclass", "quadrature"}),
        (["bound", "--fn", "x^2", *INTERVAL, "--lambda", "0.3", "--q", "1"],
         {"bounds", "coefficients", "enclosure", "expressions", "kernel", "qclass", "quadrature"}),
    ],
    ids=["coeffs", "verify-identity", "qclass", "corpus", "bound-skip", "bound"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    loaded = {m for m in _modules_after(argv) if m.split(".")[0] == "glbounds"}
    assert loaded == {"glbounds", "glbounds.cli", *(f"glbounds.{m}" for m in modules)}


def test_import_loads_no_module_of_the_package():
    assert [m for m in _fresh("import glbounds\nprint(*sys.modules)").split() if m.startswith("glbounds.")] == []


def test_a_bare_import_reaches_each_module_by_name():
    code = "import glbounds\nprint(glbounds.qclass.check_expression.__module__)"
    assert _fresh(code).split() == ["glbounds.qclass"]


def test_each_public_name_is_its_home_modules_own():
    homes = {name: importlib.import_module(f"glbounds.{home}") for name, home in glbounds._HOMES.items()}
    assert [name for name in glbounds.__all__ if getattr(glbounds, name).__module__ != homes[name].__name__] == []
    assert [name for name in glbounds.__all__ if getattr(glbounds, name) is not getattr(homes[name], name)] == []


def test_all_lists_the_table_and_dir_holds_it():
    assert glbounds.__all__ == list(glbounds._HOMES)
    assert set(glbounds.__all__) <= set(dir(glbounds))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from glbounds import *", namespace)
    assert {name: namespace[name] for name in glbounds.__all__} == {
        name: getattr(glbounds, name) for name in glbounds.__all__
    }


def test_an_unknown_name_raises_the_usual_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'glbounds' has no attribute 'no_such_name'$"):
        glbounds.no_such_name  # noqa: B018
    assert not hasattr(glbounds, "__wrapped__")  # as inspect.unwrap and doctest probe

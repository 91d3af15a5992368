"""What a fresh `glbounds coeffs` process loads: none of the modules that only
some commands need, and none that the value types could do without."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses brings inspect (and ast, dis and tokenize) with it; json is for
# the commands that write JSON; heapq and the enclosure for the scans
NOT_AT_START = ("dataclasses", "inspect", "json", "heapq", "glbounds.enclosure")


def _loaded_after(argv):
    """Which of NOT_AT_START a fresh interpreter holds after main(argv)."""
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from glbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        f"print(*[m for m in {NOT_AT_START!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_coeffs_loads_none_of_them():
    assert _loaded_after(["coeffs", "--lambda", "0.5"]) == []


def test_coeffs_json_loads_json():
    assert _loaded_after(["coeffs", "--lambda", "0.5", "--json"]) == ["json"]

"""tools/code_lines.py counts the lines that hold code, and no docstring,
comment or blank line."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""A module docstring,
over two lines."""

import math  # a comment after code

# a comment alone


class Box:
    """A class docstring."""

    def area(self):
        """A function docstring,
        over two lines."""
        text = """a string that is
        not a docstring"""
        return math.pi * len(text)
'''


def test_only_code_lines_count(tmp_path, capsys):
    # import, class, def, the two lines of text and return
    assert code_lines.code_lines(MODULE) == 6
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == "6 a.py\n1 b.py\n7 total\n"

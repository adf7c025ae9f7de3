"""Tests for the repository tools under ``tools/``."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment-only line
class Shape:
    """Class docstring."""

    sides = 0

    def area(self):
        """Function docstring,

        with a blank line inside."""
        text = """a multi-line string
        that is not a docstring"""
        return (math.pi
                * 2)
'''


def test_counts_code_token_lines_only():
    # import, class, sides, def, the two string lines, return and its
    # continuation: eight lines.
    assert count_code_lines.code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    8 a.py", "    2 b.py", "   10 total",
    ]

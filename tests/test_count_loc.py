"""tools/count_loc.py counts code lines only: no docstrings, comments or blank lines."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "count_loc.py"


def _tool():
    spec = importlib.util.spec_from_file_location("count_loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module
docstring."""

import os  # a comment

# a comment line


class A:
    """Class docstring."""

    x = """not a
docstring"""

    def f(self):
        """One line."""
        return (1,
                2)
'''


def test_count_loc_skips_docstrings_comments_and_blank_lines():
    """Code lines: the import, class, both lines of the assigned string,
    def and both lines of the return."""
    assert _tool().count_loc(SOURCE) == 7


def test_count_loc_counts_the_package(capsys):
    """The tool's total is the sum of its per-module lines."""
    assert _tool().main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1]) > 0

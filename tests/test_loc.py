"""tools/loc.py: the code-only line count on a small fixture."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# code lines: import (1), def (1), the two-line statement (2), the
# two-line string expression (2), return (1), class (1) and z (1)
FIXTURE = '''"""Module docstring,
on two lines."""

# a comment line
import math  # a trailing comment


def f(x):
    """Function docstring."""
    y = (x
         + math.pi)
    """A string expression,
    not a docstring."""
    return y


class C:
    """Class docstring."""

    # an indented comment
    z = 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert loc.code_lines(FIXTURE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     9  a.py", "     1  b.py", "    10  total", ""]

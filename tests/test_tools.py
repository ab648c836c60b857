import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

#: One of each kind of line the count tells apart.  Of its 13 lines, the code
#: lines are 5, 8 and the four lines of the return expression, 10-13.
SOURCE = '''"""A module docstring
over two lines."""

# a comment line
x = 1  # a code line with a trailing comment


def f(a):
    """A function docstring."""
    return (
        a
        + 1
    )
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    assert _code_lines().count(SOURCE) == (13, 6)

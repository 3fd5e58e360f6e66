from _code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            math.pi)


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_lines_only():
    # the import, def, both lines of the assigned string, both lines of the
    # return, the class line and its attribute
    assert code_lines(SOURCE) == 8


def test_empty_source():
    assert code_lines("") == 0

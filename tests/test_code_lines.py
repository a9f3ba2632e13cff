"""tools/code_lines.py: which lines of a module count as code."""
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code counts


# a comment line
def f(x):
    """A function docstring."""
    y = (x +
         1)
    "a string statement that is no docstring"
    return y


class C:
    """A class docstring
    over two lines."""
    z = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, def, the two lines of y's statement, the string statement,
    # return, class and z
    assert code_lines.code_lines(SOURCE) == 8


def test_code_lines_print_one_row_per_module_and_their_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted(code_lines.SOURCE.glob("*.py"))
    assert [name for name, _ in rows[:-1]] == [path.stem for path in modules]
    assert [int(count) for _, count in rows[:-1]] == [
        code_lines.code_lines(path.read_text()) for path in modules]
    assert rows[-1] == ["total", str(sum(int(count) for _, count in rows[:-1]))]

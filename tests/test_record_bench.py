"""scripts/record_bench.py's count of code lines, and the order of its runs.

code_line_count counts the lines that hold a token of code: comments,
blank lines and the docstrings of modules, classes and functions do not
count, while a string that is no docstring does, on every line it spans,
and a line that holds a docstring and code counts once.

run_order runs each command in the parent and in the change back to back,
and alternates which of the two goes first from round to round.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"


def _record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
on two lines."""

import os  # a comment after code


class A:
    """A class docstring."""

    x = """a string that is no docstring,
    on two lines"""

    def f(self):
        """A function docstring,"""  """ and its second string."""
        # a comment line
        return os.sep

    async def g(self):
        """An async function docstring."""
        "an expression statement after it, which is code"


def h(): """A docstring with code on its line."""; return 2
'''


def test_code_lines_leave_out_comments_blank_lines_and_docstrings():
    record_bench = _record_bench()
    # import, class, x's two lines, def f, return, async def, the
    # expression statement and def h
    assert record_bench.code_line_count(SOURCE) == 9
    assert record_bench.code_line_count("") == 0
    assert record_bench.code_line_count('"""Only a docstring."""\n') == 0
    assert record_bench.code_line_count('x = 1\n"""No docstring: not first."""\n') == 2


def test_code_lines_count_each_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "joinmeet"
    package.mkdir(parents=True)
    (package / "a.py").write_text(SOURCE)
    (package / "b.py").write_text('"""Doc."""\n\nX = 1\n')
    got = _record_bench().code_lines(tmp_path)
    assert got == {"files": {"a.py": 9, "b.py": 1}, "total": 10}


def test_rounds_run_both_checkouts_back_to_back_and_alternate_the_first():
    order = _record_bench().run_order(4, ["a", "b"])
    assert order[:8] == [
        (0, "a", "parent"), (0, "a", "change"), (0, "b", "parent"), (0, "b", "change"),
        (1, "a", "change"), (1, "a", "parent"), (1, "b", "change"), (1, "b", "parent"),
    ]
    assert order[8:] == [(round_ + 2, name, side) for round_, name, side in order[:8]]
    assert _record_bench().run_order(0, ["a"]) == []

"""Command-line parsing: the one-command parser against the full argparse tree.

``cli.parse_args`` parses a command line with the parser of the command it
names alone, and builds the full tree of ``cli.build_parser`` only for a
line that parser cannot take whole.  Every line either path can see must
come out the same: the same Namespace, or the same exit code, stdout and
stderr.  The lines are those of tests/test_cli.py (read with ``ast``), the
``joinmeet`` lines of the CI workflow and its hash-seed transcript list, and
the bench's ``CLI_ARGV`` (read with ``ast``, never imported), each also with
``--format json``, as the bench runs it.
"""

import argparse
import ast
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from test_bench_must_call import CLI_ARGV

from joinmeet import cli

ROOT = Path(__file__).resolve().parent.parent
WORDS = {command.split(" ")[0] for command in cli.COMMANDS}


def _argv_of(node):
    """The command line an ast list or argument tuple spells: a string as
    written, ``str(DATA / name)`` as that data file, any other expression
    as "0"; a starred element is left out."""
    argv = []
    for element in node:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            argv.append(element.value)
        elif isinstance(element, ast.Call) and "DATA /" in ast.unparse(element):
            argv.append(str(ROOT / "data" / element.args[0].right.value))
        elif not isinstance(element, ast.Starred):
            argv.append("0")
    return argv


def _test_cli_lines():
    """Each list or ``run`` call of tests/test_cli.py that starts with a
    command and goes on with an option or, after "filtration", a word."""
    lines = []
    for node in ast.walk(ast.parse((ROOT / "tests" / "test_cli.py").read_text())):
        elements = None
        if isinstance(node, ast.List):
            elements = node.elts
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "run":
            elements = node.args[1:]
        if elements and isinstance(elements[0], ast.Constant) and elements[0].value in WORDS:
            argv = _argv_of(elements)
            if argv[1:2] in ([], ["verify"], ["search"]) or argv[1].startswith("-"):
                lines.append(argv)
    return lines


def _workflow_lines():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    lines = []
    for match in re.finditer(r"^\s*(?:timeout \d+ )?joinmeet (.*)$", text, re.M):
        words = shlex.split(match.group(1))
        cut = [i for i, word in enumerate(words) if word in ("||", "|", ">") or "2>" in word]
        lines.append(words[:cut[0]] if cut else words)
    seeded = text.split("cat > seeded.txt <<'EOF'\n")[1].split("EOF\n")[0]
    return lines + [shlex.split(line) for line in seeded.splitlines() if line.strip()]


LINES = _test_cli_lines() + _workflow_lines() + [list(argv) for argv in CLI_ARGV.values()]


def _outcome(parse, argv):
    """What parse does with argv: its Namespace or its exit code, with
    what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _tree(argv):
    return cli.build_parser().parse_args(argv)


def test_the_command_lines_were_read():
    assert len(_test_cli_lines()) >= 50
    assert ["filtration", "search", "--builtin", "divisor", "--n", "36"] in LINES
    assert ["colon", "--builtin", "diamond", "--j", "x - y", "--by", "2/5*z"] in LINES
    assert [] not in LINES


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_the_command_parser_gives_the_tree_namespace(argv):
    for line in (argv, argv + ["--format", "json"]):
        assert _outcome(cli.parse_args, line) == _outcome(_tree, line)


@pytest.fixture
def built(monkeypatch):
    """The prog of each ArgumentParser constructed while the test runs."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


def test_a_command_line_builds_one_parser(built):
    args = cli.parse_args(["filtration", "search", "--builtin", "divisor", "--n", "36"])
    assert (args.command, args.subcommand, args.n) == ("filtration", "search", 36)
    assert built == ["joinmeet filtration search"]
    built.clear()
    cli.build_parser()
    assert len(built) == 8


def test_every_line_of_the_workflow_and_bench_builds_one_parser(built):
    for argv in _workflow_lines() + list(CLI_ARGV.values()):
        built.clear()
        result = _outcome(cli.parse_args, list(argv))[0]
        if "-h" in argv or "--nope" in argv:  # the workflow's help and usage-error lines
            assert result == ("exit", 0 if "-h" in argv else 2), argv
        else:
            assert isinstance(result, argparse.Namespace) and len(built) == 1, argv


HELP_AND_ERRORS = [
    (["-h"], 0),
    (["check", "-h"], 0),
    (["ideal", "-h"], 0),
    (["colon", "-h"], 0),
    (["posetideals", "-h"], 0),
    (["filtration", "-h"], 0),
    (["filtration", "verify", "-h"], 0),
    (["filtration", "search", "-h"], 0),
    ([], 2),
    (["bogus"], 2),
    (["filtration"], 2),
    (["filtration", "bogus"], 2),
    (["filtration search", "--builtin", "diamond"], 2),
    (["check", "--builtin", "pentagon", "--nope"], 2),
    (["check", "--builtin", "pentagon", "--by", "x"], 2),
    (["filtration", "search", "--cap", "x"], 2),
    (["filtration", "verify", "--builtin", "diamond"], 2),
    (["colon", "--builtin", "pentagon"], 2),
    (["check", "--", "--builtin", "pentagon"], 2),
    (["check", "--buil", "pentagon"], None),
]


@pytest.mark.parametrize("argv, code", HELP_AND_ERRORS,
                         ids=[" ".join(argv) or "no command" for argv, _ in HELP_AND_ERRORS])
def test_help_and_errors_are_the_tree_texts(argv, code):
    fast = _outcome(cli.parse_args, argv)
    assert fast == _outcome(_tree, argv)
    if code is None:
        assert fast[0].builtin == "pentagon"
    else:
        assert fast[0] == ("exit", code)
        assert fast[1 if code == 0 else 2].startswith("usage: joinmeet")


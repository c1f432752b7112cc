"""Start-up: importing the CLI loads joinmeet's own modules and nothing else.

Every CLI run and every bench request imports joinmeet.cli in a fresh
interpreter, often with no bytecode cache, so a heavy standard-library
import (dataclasses pulls in inspect, ast and dis) costs each run
milliseconds.  The test imports the standard-library modules joinmeet uses
first, so what they import in turn, which varies with the Python version,
is not counted; a module added to this list is a decision about start-up.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

STDLIB_USED = (
    "__future__",
    "argparse",
    "fractions",
    "functools",
    "heapq",
    "itertools",
    "json",
    "math",
    "operator",
    "os",
    "re",
    "sys",
    "time",
    "warnings",
)

PROBE = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import {", ".join(STDLIB_USED)}
before = set(sys.modules)
import joinmeet.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_only_joinmeet_modules():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    new = json.loads(done.stdout.strip().splitlines()[-1])
    assert "joinmeet.cli" in new
    assert [name for name in new if name.split(".")[0] != "joinmeet"] == []

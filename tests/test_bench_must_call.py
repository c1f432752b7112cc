"""The benchmark's must-call layers are still reached by its CLI workloads.

``bench/run.py`` fails a traced run whose request never calls a layer that
``MUST_CALL`` names for its workload.  A change that takes such a layer to
zero calls (say, ideal_member, which span keys took from 369 calls to 69 on
``verify``) should fail here first.  This test runs each workload's fixed
command line (``CLI_ARGV`` in ``bench/workloads.py``) in-process, counts the
calls of every function with ``sys.setprofile``, and asserts that each
pinned layer is reached.  The bench files are read with ``ast`` and never
imported or run.  ``member`` has no command line: its layers are the read
path of ideal_member, which the other suites call directly.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from test_bench_pins import BENCH, RUN, TRACER, _assignments

import joinmeet.cli

WORKLOADS = _assignments(
    BENCH / "workloads.py",
    {"M3_ON_M3", "CLI_ARGV"},
    {"Path": Path, "str": str, "__file__": str(BENCH / "workloads.py")},
)
CLI_ARGV = WORKLOADS["CLI_ARGV"]


def _codes(name):
    """The code objects whose calls count as calls of the layer ``name``, as
    bench/tracer.py wraps them."""
    module, attr = name.split(".")
    mod = importlib.import_module(f"joinmeet.{module}")
    if name == "lattice.build":
        functions = [getattr(mod, b) for b in TRACER["_BUILD"]]
        functions += [mod.Lattice.__init__, mod.Lattice.from_covers.__func__]
    elif name == "lattice.poset_ideals":
        functions = [mod.Lattice.poset_ideals]
    else:
        functions = [getattr(mod, attr)]
    return {f.__code__ for f in functions}


def _reached(argv):
    """The code objects called while the CLI runs argv, and its JSON report."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out = io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out):
            code = joinmeet.cli.main(argv + ["--format", "json"])
    finally:
        sys.setprofile(previous)
    return called, code, json.loads(out.getvalue())


def test_the_command_lines_were_read():
    assert set(CLI_ARGV) == set(RUN["MUST_CALL"]) - {"member"}
    assert Path(WORKLOADS["M3_ON_M3"]).is_file()


@pytest.mark.parametrize("workload", sorted(CLI_ARGV))
def test_every_must_call_layer_is_reached(workload):
    called, code, doc = _reached(list(CLI_ARGV[workload]))
    assert code in (0, 1) and "result" in doc, (code, doc)
    idle = [name for name in RUN["MUST_CALL"][workload] if not _codes(name) & called]
    assert idle == []

"""The benchmark's pinned layers still exist in the package.

``bench/tracer.py`` imports every module in ``MODULES``, and ``bench/run.py``
reports or requires the layers named in ``CALLS``, ``SELF`` and
``MUST_CALL``.  A layer deleted or moved out of its module would leave a
metric idle or fail the traced run, so this test fails first.  The bench
files are read with ``ast`` and never imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _assignments(path, names, env=None):
    """Module-level assignments of ``names`` in ``path``, evaluated in order
    with no builtins (they are literals, names bound before them and ``+``),
    and with ``env`` for any other name they read."""
    tree = ast.parse(path.read_text())
    scope = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in names
        ):
            code = compile(ast.Expression(node.value), str(path), "eval")
            scope[node.targets[0].id] = eval(code, {"__builtins__": {}, **(env or {})}, scope)
    return scope


TRACER = _assignments(BENCH / "tracer.py", {"MODULES", "_BUILD"})
RUN = _assignments(BENCH / "run.py", {"CALLS", "SELF", "_ENGINE", "MUST_CALL"})
PINNED = sorted(
    set(RUN["CALLS"]) | set(RUN["SELF"]) | {n for names in RUN["MUST_CALL"].values() for n in names}
)


def test_the_bench_tables_were_read():
    assert TRACER["MODULES"] and TRACER["_BUILD"]
    assert RUN["CALLS"] and RUN["SELF"]
    assert set(RUN["MUST_CALL"]) == {"search-found", "search-none", "verify", "member"}


@pytest.mark.parametrize("module", TRACER["MODULES"])
def test_traced_module_imports(module):
    importlib.import_module(f"joinmeet.{module}")


@pytest.mark.parametrize("name", PINNED)
def test_pinned_layer_resolves(name):
    module, attr = name.split(".")
    assert module in TRACER["MODULES"], name
    mod = importlib.import_module(f"joinmeet.{module}")
    if name == "lattice.build":
        # every builtin constructor plus Lattice construction
        for builder in TRACER["_BUILD"]:
            assert inspect.isfunction(getattr(mod, builder)), builder
        assert callable(mod.Lattice.from_covers)
        return
    if name == "lattice.poset_ideals":
        assert inspect.isfunction(mod.Lattice.poset_ideals)
        return
    fn = getattr(mod, attr, None)
    # the tracer wraps only public functions defined in the module itself
    assert inspect.isfunction(fn), name
    assert fn.__module__ == mod.__name__, name
    assert not inspect.isgeneratorfunction(fn), name

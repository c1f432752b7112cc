"""In-memory span tracer for the benchmark's traced requests.

``Tracer.install`` wraps every public function of the joinmeet modules in
each namespace that binds it: the defining module, the modules that copy it
with ``from .groebner import ...``, and the package itself.  Lattice
construction, ``Lattice.poset_ideals`` and ``Ring.parse`` are wrapped on
their classes.  Each call records one span: name, parent span, start, end and
the time covered by its children, so a span's self time is its duration
minus that child time.  Spans stay in memory until ``write`` dumps them.
Times come from the clock the tracer is given, which may leave out time
spent outside the program (the benchmark's speed probes).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

MODULES = ("lattice", "poly", "groebner", "linalg", "hibi", "koszul", "cli")

# Every way of building a lattice counts as one layer, "lattice.build".
_BUILD = ("chain", "boolean", "divisor_lattice", "pentagon", "diamond")

# Per-call outcomes recorded beside the span (the ratio metrics need them).
_OUTCOMES = {
    "groebner.normal_form": lambda result: not result,
    "hibi.colon_in_H": lambda result: result.variable_generated,
}

# span record fields
NAME, PARENT, START, END, CHILD, OUTCOME = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._stack = []
        self._clock = clock

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = self._clock
        outcome = _OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, parent, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - record[START]
            if outcome is not None:
                record[OUTCOME] = bool(outcome(result))
            return result

        return traced

    def install(self, package):
        """Wrap the public functions of ``package``'s modules everywhere they
        are bound."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                name = "lattice.build" if short == "lattice" and attr in _BUILD else f"{short}.{attr}"
                wrappers[obj] = self.wrap(name, obj)
        for namespace in (package, *modules):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, attr, wrappers[obj])

        lattice_cls = package.lattice.Lattice
        lattice_cls.__init__ = self.wrap("lattice.build", lattice_cls.__init__)
        lattice_cls.from_covers = classmethod(
            self.wrap("lattice.build", lattice_cls.from_covers.__func__)
        )
        lattice_cls.poset_ideals = self.wrap("lattice.poset_ideals", lattice_cls.poset_ideals)
        ring_cls = package.poly.Ring
        ring_cls.parse = self.wrap("poly.parse", ring_cls.parse)

    def summary(self, scale=1.0):
        """Per span name: calls, self seconds (times ``scale``) and true
        outcomes; plus the number of ``buchberger`` spans whose parent is
        ``groebner_basis``."""
        spans = self.spans
        by_name = {}
        gb_misses = 0
        for record in spans:
            row = by_name.setdefault(record[NAME], [0, 0.0, 0])
            row[0] += 1
            row[1] += record[END] - record[START] - record[CHILD]
            if record[OUTCOME]:
                row[2] += 1
            if (
                record[NAME] == "groebner.buchberger"
                and record[PARENT] >= 0
                and spans[record[PARENT]][NAME] == "groebner.groebner_basis"
            ):
                gb_misses += 1
        layers = {
            name: {"calls": c, "self_s": s * scale, "true": k}
            for name, (c, s, k) in by_name.items()
        }
        return {"layers": layers, "gb_misses": gb_misses, "spans": len(spans)}

    def write(self, path):
        """One tab-separated line per span: index, name, parent, start, end,
        self seconds, outcome."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\tself_s\toutcome\n")
            for i, r in enumerate(self.spans):
                self_s = r[END] - r[START] - r[CHILD]
                fh.write(
                    f"{i}\t{r[NAME]}\t{r[PARENT]}\t{r[START]:.9f}\t{r[END]:.9f}\t"
                    f"{self_s:.9f}\t{'' if r[OUTCOME] is None else int(r[OUTCOME])}\n"
                )

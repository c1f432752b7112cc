"""How fast this machine runs exact polynomial arithmetic, sampled while the
benchmark's requests run.

The machine is shared: its speed for this process drifts by tens of percent
over minutes, and within a run too.  ``Speedometer`` samples it inside the
request process: every 25 ms a SIGALRM handler times one fixed probe, a
``Fraction`` reduction of a binomial by a small basis written here (tuples,
dictionaries and rationals, like joinmeet's engine, but none of its code, so
the probe's work stays the same whatever the program does).  Time spent in probes is subtracted
from every measured interval, and each time is rescaled by
``NOMINAL_PROBE_S / mean probe time``: seconds at the speed the probe
measured on a quiet machine.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Mean probe time on a quiet 2-vCPU Intel Xeon with Python 3.11.7.
NOMINAL_PROBE_S = 0.00025

_INTERVAL_S = 0.025
_BURST = 40


def _key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _binomials(n, twist):
    """x_i x_{j+1} - c x_{i+1} x_j for i < j, leading term first."""
    gens = []
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            a = [0] * n
            b = [0] * n
            a[i] += 1
            a[j + 1] += 1
            b[i + 1] += 1
            b[j] += 1
            c = Fraction(twist + i, twist + j)
            terms = [(tuple(a), Fraction(1)), (tuple(b), -c)]
            gens.append(sorted(terms, key=lambda t: _key(t[0]), reverse=True))
    return gens


def _probe_input():
    basis = [(g[0][0], g[0][1], g) for g in _binomials(6, 1)]
    f = {}
    for g in _binomials(6, 2)[:6]:
        for m, c in g:
            f[(m[0] + 1,) + m[1:]] = c
    return f, basis


def _reduce(f, basis):
    """Remainder of f (a dict) under division by basis."""
    f = dict(f)
    rest = {}
    while f:
        m = max(f, key=_key)
        c = f.pop(m)
        for lm, lc, g in basis:
            if all(x <= y for x, y in zip(lm, m)):
                q = tuple(x - y for x, y in zip(m, lm))
                k = c / lc
                for mg, cg in g[1:]:
                    mm = tuple(x + y for x, y in zip(q, mg))
                    v = f.get(mm, 0) - k * cg
                    if v:
                        f[mm] = v
                    else:
                        f.pop(mm, None)
                break
        else:
            rest[m] = c
    return rest


class Speedometer:
    """Probe samples of this process's speed, and a clock that leaves out the
    time the probes took."""

    def __init__(self):
        self.count = 0
        self.spent = 0.0
        self._input = _probe_input()

    def _probe(self, *_):
        # A collection started by the probe's allocations would time the
        # program's heap, not the machine.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _reduce(*self._input)
        self.spent += time.perf_counter() - start
        self.count += 1
        if collecting:
            gc.enable()

    def burst(self, n=_BURST):
        """Take n probes now."""
        for _ in range(n):
            self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Seconds on a monotonic clock, less the time spent in probes."""
        return time.perf_counter() - self.spent

    def factor(self):
        """Multiplier that turns a time measured now into nominal seconds."""
        return NOMINAL_PROBE_S * self.count / self.spent

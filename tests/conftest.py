import pytest

from joinmeet.lattice import (
    Lattice,
    boolean,
    chain,
    diamond,
    divisor_lattice,
    pentagon,
)


@pytest.fixture
def P():
    return pentagon()


@pytest.fixture
def D():
    return diamond()


def stacked_diamond():
    """M3 with a length-1 chain stacked on top: 7 elements, modular,
    non-distributive."""
    return Lattice.from_covers(
        ["e", "x", "y", "z", "f", "g", "h"],
        [
            ("e", "x"),
            ("e", "y"),
            ("e", "z"),
            ("x", "f"),
            ("y", "f"),
            ("z", "f"),
            ("f", "g"),
            ("g", "h"),
        ],
    )


def m3_on_m3():
    """Two diamonds M3 stacked top to bottom: e < x, y, z < f < p, q, r < t.
    9 elements, modular, non-distributive."""
    return Lattice.from_covers(
        ["e", "x", "y", "z", "f", "p", "q", "r", "t"],
        [("e", a) for a in "xyz"]
        + [(a, "f") for a in "xyz"]
        + [("f", a) for a in "pqr"]
        + [(a, "t") for a in "pqr"],
    )


def corpus():
    """The named small lattices used throughout the property suites."""
    return [
        chain(1),
        chain(2),
        chain(3),
        chain(4),
        chain(5),
        boolean(2),
        boolean(3),
        divisor_lattice(12),
        divisor_lattice(30),
        pentagon(),
        diamond(),
        stacked_diamond(),
    ]


def distributive_corpus():
    return [L for L in corpus() if L.is_distributive()]


def modular_corpus():
    return [L for L in corpus() if L.is_modular()]


def small_corpus(max_n=6):
    return [L for L in corpus() if L.n <= max_n]

import json
from pathlib import Path

import pytest

from joinmeet import groebner
from joinmeet.hibi import join_meet_ideal
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


def m_lattice(k):
    """M_k: a bottom o, k pairwise incomparable atoms a0, a1, ... and a top t.
    Modular, and not distributive for k >= 3 (M_3 is the diamond)."""
    atoms = [f"a{i}" for i in range(k)]
    return Lattice.from_covers(
        ["o"] + atoms + ["t"], [("o", a) for a in atoms] + [(a, "t") for a in atoms]
    )


DATA = Path(__file__).resolve().parent.parent / "data"


def data_lattice(name):
    """The lattice shipped as data/<name>.json."""
    doc = json.loads((DATA / f"{name}.json").read_text())
    return Lattice.from_covers(doc["elements"], doc["covers"])


def cold_copy(L):
    """L built again from its labels and covers: an equal lattice whose K[L],
    I_L and every reduced basis over that ring are built afresh, so a test
    on it starts with no cached basis, whatever ran before."""
    copy = Lattice(L.labels, L.covers)
    assert copy == L and not join_meet_ideal(copy).ring._bases
    return copy


def count_computed_colons(monkeypatch):
    """The list of colons the engine computes from here on, one entry per
    run of groebner._colon_by_linear_form: a colon kept on its ideal (see
    groebner.intersect) is read again, not computed."""
    runs = []
    real = groebner._colon_by_linear_form

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_colon_by_linear_form", counted)
    return runs


def enumerated_lattices(max_n):
    """Every lattice on at most max_n elements whose identity labeling is a
    linear extension, from the oracle's poset enumerator, labelled v0, v1, ..."""
    from oracles import naturally_labeled_posets, poset_covers, poset_is_lattice

    lattices = []
    for down in naturally_labeled_posets(max_n):
        if poset_is_lattice(down):
            labels = [f"v{i}" for i in range(len(down))]
            covers = [(labels[a], labels[b]) for a, b in poset_covers(down)]
            lattices.append(Lattice.from_covers(labels, covers))
    return lattices


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

"""The engine keeps integral coefficients as Python ints.

Every generator of I_L is a basic binomial with coefficients ±1, and every
division the engine makes from them (monic, S-polynomials, remainders,
exact quotients, colons) goes through poly.exact_quotient, which gives an
int when the divisor divides.  So on the corpus every coefficient of I_L,
of its reduced basis and of every colon basis a search or a poset-ideal
verification takes is an int, and a path that turned them back into
Fractions, or into floats, fails here.  Rational inputs mix ints and
Fractions, and must give the reduced bases and colons of test_colon_routes'
elimination reference, which computes on Fractions alone.  The bench's
searches compute as many colons as they did on Fraction coefficients.
"""

import random
from fractions import Fraction

import pytest

from conftest import cold_copy, corpus, count_computed_colons, data_lattice, m3_on_m3
from joinmeet import groebner
from joinmeet.groebner import GroebnerBasis, colon_element, groebner_basis, ideal
from joinmeet.hibi import join_meet_ideal, lattice_ring, residue_ideal
from joinmeet.koszul import poset_ideal_filtration, search_combinatorial, verify_filtration
from joinmeet.lattice import diamond, divisor_lattice, pentagon
from joinmeet.poly import exact_quotient
from test_colon_routes import (
    CORPUS,
    cases,
    elimination_colon,
    long_form_cases,
    reference_reduced_basis,
)


def _kinds(polys):
    return {type(c) for p in polys for _, c in p.terms}


def _colon_polys(colon):
    """The polynomials of a computed colon: a reduced basis, or an
    _Unreduced colon's degree-1 part and quotients."""
    if isinstance(colon, GroebnerBasis):
        return colon.basis
    return (*colon.degree1, *colon.higher)


def _computed_colons(monkeypatch):
    """The list of colons groebner._compute_colon returns from here on."""
    colons = []
    real = groebner._compute_colon

    def kept(*args, **kwargs):
        colon = real(*args, **kwargs)
        colons.append(colon)
        return colon

    monkeypatch.setattr(groebner, "_compute_colon", kept)
    return colons


def test_exact_quotient_never_gives_a_float():
    assert type(exact_quotient(6, 3)) is int and exact_quotient(6, 3) == 2
    assert exact_quotient(-6, 3) == -2 and exact_quotient(0, -5) == 0
    for a, b, want in [(1, 3, Fraction(1, 3)), (-2, 4, Fraction(-1, 2)),
                       (Fraction(6), 3, Fraction(2)), (2, Fraction(2, 3), Fraction(3))]:
        got = exact_quotient(a, b)
        assert type(got) is Fraction and got == want, (a, b)
    with pytest.raises(ZeroDivisionError):
        exact_quotient(1, 0)


def test_corpus_coefficients_stay_ints(monkeypatch):
    # I_L, its reduced basis, every colon the search, its replay and the
    # poset-ideal verification compute, and every basis cached on K[L]
    colons = _computed_colons(monkeypatch)
    for L in corpus():
        L = cold_copy(L)
        jm = join_meet_ideal(L)
        colons.clear()
        family = search_combinatorial(L)
        if family is not None:
            assert verify_filtration(L, family).passed
        if L.is_distributive():
            assert verify_filtration(L, poset_ideal_filtration(L)).passed
        assert colons or L.n == 1, L
        polys = [*jm.generators, *groebner_basis(jm.ideal).basis]
        polys += [p for colon in colons for p in _colon_polys(colon)]
        polys += [p for basis in jm.ring._bases.values() for p in basis.basis]
        assert _kinds(polys) <= {int}, L


# the CLI's colon --j ... --by ...: a lift of ints by a rational form
RATIONAL_COLONS = [
    (pentagon(), ["x"], "1/2*y - 3*z"),
    (diamond(), ["x - y"], "2/5*z"),
]
RATIONAL_FORM_LATTICES = ["pentagon", "diamond", "boolean3", "divisor12"]


def rational_form_cases(name):
    """test_colon_routes' random lifts and forms on a cold copy of
    CORPUS[name], each form scaled by 2/3 and its lift given a generator
    with a rational coefficient."""
    L = cold_copy(CORPUS[name])
    rng = random.Random(f"{L.labels}/ints")
    ring = lattice_ring(L)
    for I, f in cases(L, rng) + long_form_cases(L, rng):
        a, b = rng.sample(ring.gens(), 2)
        yield ideal(ring, I.generators + (Fraction(1, 2) * a - 3 * b,)), Fraction(2, 3) * f


@pytest.mark.parametrize("lattice, j, by", RATIONAL_COLONS)
def test_rational_colons_match_the_fraction_reference(lattice, j, by):
    L = cold_copy(lattice)
    J = residue_ideal(L, j)
    f = lattice_ring(L).parse(by)
    I = J.lift
    colon = colon_element(I, f)
    assert colon.generators == elimination_colon(I, f)
    assert groebner_basis(I).basis == reference_reduced_basis(I.generators, I.ring)
    assert _kinds(colon.generators) <= {int, Fraction}


@pytest.mark.parametrize("name", RATIONAL_FORM_LATTICES)
def test_rational_forms_match_the_fraction_reference(name):
    for I, f in rational_form_cases(name):
        assert groebner_basis(I).basis == reference_reduced_basis(I.generators, I.ring)
        colon = colon_element(I, f)
        assert colon.generators == elimination_colon(I, f), (I.generators, f)
        assert _kinds(colon.generators) <= {int, Fraction}


@pytest.mark.parametrize("lattice, searched", [
    (m3_on_m3, 15),
    (lambda: divisor_lattice(36), 14),
    (lambda: data_lattice("pentagon_c2"), 739),
], ids=["m3_on_m3", "divisor36", "pentagon_c2"])
def test_bench_searches_keep_ints_and_their_colon_counts(monkeypatch, lattice, searched):
    # the bench's search-none (M3-on-M3) and search-found (divisor(36))
    # lattices and pentagon x C2, whose colons include ones that are not
    # linear-generated: the search computes as many colons as with Fraction
    # coefficients, each of ints, and the replay of a found family none
    runs = count_computed_colons(monkeypatch)
    colons = _computed_colons(monkeypatch)
    L = cold_copy(lattice())
    family = search_combinatorial(L)
    assert len(runs) == searched
    runs.clear()
    if family is not None:
        assert verify_filtration(L, family).passed
    assert not runs
    assert _kinds(p for colon in colons for p in _colon_polys(colon)) == {int}

"""A linear-form ideal of H[L] is named by its span, checked against its basis.

I_L is generated by quadrics, so the linear part of a lift (I_L, V) is V, and
ResidueIdeal keys, compares and tests linear forms against the reduced
echelon form of V with no Buchberger run.  This suite runs that fast path
beside the slow one, the reduced Groebner basis of the lift, on every
lattice of at most 6 elements from the oracle's enumerator: on every
variable subset, and on generator sets that are not variables (two-term
differences, scaled forms and redundant generators).  It checks that

- degree1() is the degree-1 part of the lift's reduced basis;
- two ideals have equal keys exactly when their lifts have equal bases;
- a linear form reduces to zero modulo the span exactly when ideal_member
  puts it in the lift;
- a colon report's key equals a member's key exactly when the colon's
  reduced basis equals the member's.

The counted-Buchberger tests pin the work the span keys remove from the
poset-ideal family of divisor(60).
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import cold_copy, enumerated_lattices
from joinmeet import groebner
from joinmeet.groebner import groebner_basis, ideal_member, normal_form
from joinmeet.hibi import colon_in_H, colon_in_H_by_ideal, join_meet_ideal, residue_ideal
from joinmeet.koszul import poset_ideal_filtration, verify_filtration
from joinmeet.lattice import divisor_lattice

LATTICES = enumerated_lattices(6)

SCALES = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-5, 2)]


def generator_sets(L, rng):
    """Every variable subset of L, then seeded sets that are not variables:
    two-term differences a − b, scaled forms, and redundant generators (a
    variable again, a sum of two others, or a multiple of one)."""
    xs = join_meet_ideal(L).variables
    sets = [
        [xs[a] for a in subset]
        for size in range(L.n + 1)
        for subset in combinations(range(L.n), size)
    ]
    if L.n < 2:
        return sets
    # two presentations of the span of the first two variables
    a, b = xs[0], xs[1]
    sets += [[a - b, Fraction(-2, 3) * b, a], [a, a + b]]
    for _ in range(12):
        k = rng.randint(1, min(3, L.n - 1))
        gens = []
        for _ in range(k):
            a, b = rng.sample(xs, 2)
            kind = rng.randrange(3)
            if kind == 0:
                gens.append(a - b)
            elif kind == 1:
                gens.append(rng.choice(SCALES) * a)
            else:
                gens.append(rng.choice(SCALES) * (a - rng.choice(SCALES) * b))
        redundant = rng.randrange(3)
        if redundant == 0:
            gens.append(gens[0])
        elif redundant == 1 and len(gens) > 1:
            gens.append(gens[0] + rng.choice(SCALES) * gens[1])
        else:
            gens.append(rng.choice(SCALES) * gens[-1])
        rng.shuffle(gens)
        sets.append(gens)
    return sets


def probes(L):
    """Linear forms to test against each ideal: the variables and the
    differences of two of them."""
    xs = join_meet_ideal(L).variables
    return list(xs) + [a - b for a, b in combinations(xs, 2)]


def one_to_one(pairs):
    """Whether the (a, b) pairs relate equal a's exactly to equal b's."""
    return len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(set(pairs))


@pytest.mark.parametrize("L", LATTICES, ids=lambda L: f"n{L.n}-{L.covers}")
def test_span_key_agrees_with_the_reduced_basis(L):
    rng = random.Random(f"{L.labels}/{L.covers}")
    members = [residue_ideal(L, gens) for gens in generator_sets(L, rng)]
    forms = probes(L)
    for I in members:
        gb = groebner_basis(I.lift)
        assert I.degree1() == gb.degree1, I
        assert I.dim == len(gb.degree1)
        span = I.degree1()
        for g in forms:
            assert (not normal_form(g, span)) == ideal_member(g, I.lift), (I, g)
    pairs = [(I.semantic_key(), groebner_basis(I.lift).basis) for I in members]
    assert one_to_one(pairs)
    # presentations of one ideal meet on both sides
    assert len(set(pairs)) < len(pairs) or L.n < 2

    # colons of the zero ideal by every variable, and of every member by a
    # variable, by a difference and by an ideal one variable larger
    xs = join_meet_ideal(L).variables
    reports = [colon_in_H(members[0], x) for x in xs]
    for J in members:
        reports.append(colon_in_H(J, rng.choice(xs)))
        if L.n >= 2:
            a, b = rng.sample(xs, 2)
            reports.append(colon_in_H(J, a - b))
        I = residue_ideal(L, J.linear_generators + (rng.choice(xs),))
        reports.append(colon_in_H_by_ideal(J, I))
    by_key = dict(pairs)
    by_basis = {basis: key for key, basis in pairs}
    seen = {"linear": 0, "not linear": 0, "whole ring": 0}
    for rep in reports:
        key, basis = rep.semantic_key(), rep.groebner.basis
        # the report matches a member by key iff it does by basis
        assert (key in by_key) == (basis in by_basis), rep.divisors
        if key in by_key:
            assert by_key[key] == basis and by_basis[basis] == key
        if not rep.linear_generated:
            assert key == basis
        seen["whole ring" if rep.whole_ring else
             "linear" if rep.linear_generated else "not linear"] += 1
    if L.n >= 3:
        assert seen["linear"] and seen["whole ring"]
    # on each of these lattices that is not distributive, 0 : e is not
    # linear-generated at the minimum e of a pentagon or a diamond
    if not L.is_distributive():
        assert seen["not linear"]


# ---------------------------------------------------------------------------
# the work the span keys remove


def _count_buchberger(monkeypatch):
    runs = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    return runs


def test_poset_ideal_family_runs_no_buchberger(monkeypatch):
    # keying, comparing and classifying the 50 members reads their spans
    L = cold_copy(divisor_lattice(60))
    runs = _count_buchberger(monkeypatch)
    family = poset_ideal_filtration(L)
    assert len(family.members) == 50 and family.combinatorial
    assert runs == []


# Buchberger runs of a cold verify_filtration of divisor(60)'s poset-ideal
# family: keying every member by its reduced basis took 99.
VERIFY_RUNS = 61


def test_poset_ideal_verification_runs_only_the_colons(monkeypatch):
    L = cold_copy(divisor_lattice(60))
    runs = _count_buchberger(monkeypatch)
    family = poset_ideal_filtration(L)
    report = verify_filtration(L, family)
    assert report.passed and len(report.witnesses) == 49
    assert len(runs) <= VERIFY_RUNS

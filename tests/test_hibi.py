from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import corpus, distributive_corpus, m3_on_m3, small_corpus
import oracles
from oracles import macaulay_member
from joinmeet import hibi, koszul
from joinmeet.groebner import groebner_basis, ideal, ideal_equal, ideal_member
from joinmeet.hibi import (
    NotLinear,
    claim_check,
    colon_in_H,
    colon_in_H_by_ideal,
    join_meet_ideal,
    lattice_ring,
    maximal_ideal,
    residue_ideal,
    variable,
    variable_ideal,
    zero_ideal,
)
from joinmeet.lattice import boolean, chain, diamond, divisor_lattice, pentagon


# ---------------------------------------------------------------------------
# the join-meet ideal


def test_pentagon_generators():
    P = pentagon()
    jm = join_meet_ideal(P)
    R = jm.ring
    assert set(jm.generators) == {R.parse("x*z - e*f"), R.parse("y*z - e*f")}


def test_diamond_generators():
    D = diamond()
    jm = join_meet_ideal(D)
    R = jm.ring
    assert set(jm.generators) == {
        R.parse("x*y - e*f"),
        R.parse("x*z - e*f"),
        R.parse("y*z - e*f"),
    }


def test_chain_has_zero_ideal():
    assert join_meet_ideal(chain(4)).generators == ()


def test_generator_count_and_degrees():
    for L in corpus():
        jm = join_meet_ideal(L)
        assert len(jm.generators) == len(L.incomparable_pairs())
        for g in jm.generators:
            assert g.is_homogeneous() and g.total_degree() == 2
        # degree-1 part of I_L is zero: variables stay independent
        assert all(g.total_degree() >= 2 for g in groebner_basis(jm.ideal).basis)


def test_generator_order_is_deterministic():
    a = join_meet_ideal(pentagon()).generators
    b = join_meet_ideal(pentagon()).generators
    assert a == b


# ---------------------------------------------------------------------------
# residue ideals


def test_residue_ideal_from_strings_and_polys():
    D = diamond()
    R = lattice_ring(D)
    a = residue_ideal(D, ["y - z"])
    b = residue_ideal(D, [R.parse("y - z")])
    assert a == b


def test_maximal_and_zero():
    P = pentagon()
    m = maximal_ideal(P)
    assert m.is_maximal() and m.dim == 5
    z = zero_ideal(P)
    assert z.is_zero() and z.dim == 0
    assert ideal_equal(z.lift, join_meet_ideal(P).ideal)


def test_not_linear_rejected():
    P = pentagon()
    with pytest.raises(NotLinear):
        residue_ideal(P, ["x*y"])
    with pytest.raises(NotLinear):
        residue_ideal(P, ["x + 1"])


def test_zero_generators_dropped():
    P = pentagon()
    assert residue_ideal(P, ["x - x", "y"]).linear_generators == (
        lattice_ring(P).var("y"),
    )


def test_semantic_identity():
    D = diamond()
    assert residue_ideal(D, ["y - z"]) == residue_ideal(D, ["2*y - 2*z"])
    assert residue_ideal(D, ["x", "y"]) == residue_ideal(D, ["y", "x"])
    assert residue_ideal(D, ["x", "y"]) == residue_ideal(D, ["x", "x + y"])
    assert residue_ideal(D, ["x"]) != residue_ideal(D, ["y"])


def test_variable_set():
    D = diamond()
    assert residue_ideal(D, ["x", "y"]).variable_set() == frozenset(
        {D.index("x"), D.index("y")}
    )
    assert residue_ideal(D, ["y - z"]).variable_set() is None
    assert residue_ideal(D, []).variable_set() == frozenset()


def test_subset_ideal_bijection():
    # distinct variable subsets always give semantically distinct ideals
    for L in small_corpus(5):
        seen = {}
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                key = residue_ideal(L, [L.labels[i] for i in subset]).semantic_key()
                assert key not in seen or seen[key] == subset
                seen[key] = subset


def test_degree1_part_of_variable_lift_is_span():
    # for every small corpus lattice and every variable subset S,
    # the linear part of (I_L, S) is exactly the span of S
    for L in small_corpus(6):
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                ri = residue_ideal(L, [L.labels[i] for i in subset])
                assert ri.variable_set() == frozenset(subset)


def test_one_join_meet_lookup_per_ideal_and_none_per_colon(monkeypatch):
    # a ResidueIdeal keeps its JoinMeetIdeal, so its lift and its colons
    # read I_L without looking the lattice up again
    L = pentagon()
    calls = []
    lookup = hibi.join_meet_ideal
    monkeypatch.setattr(hibi, "join_meet_ideal", lambda L: calls.append(L) or lookup(L))
    x, y = L.index("x"), L.index("y")
    J = variable_ideal(L, {x})
    I = residue_ideal(L, ["x", "y"])
    assert len(calls) == 2 and J.base is I.base is lookup(L)
    colon_in_H(J, J.base.variables[y])
    colon_in_H_by_ideal(J, I)
    assert J.lift is not None and I.lift is not None
    assert len(calls) == 2


@pytest.mark.parametrize("field", [Fraction], ids=["QQ"])
def test_variable_ideal_equals_the_ideal_of_parsed_labels(field):
    # variable_ideal builds from the shared variables what residue_ideal
    # builds by parsing the element labels
    for L in [pentagon(), diamond(), boolean(3)]:
        jm = join_meet_ideal(L)
        assert lattice_ring(L) is jm.ring
        assert all(type(c) is field for g in jm.generators for _, c in g.terms)
        for e in range(L.n):
            assert jm.variables[e] == jm.ring.var(L.labels[e])
            assert variable(L, e) is jm.variables[e]
            assert hibi._elements_of(L, [variable(L, e)]) == {e}
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                got = variable_ideal(L, subset[::-1])  # any order
                want = residue_ideal(L, [L.labels[a] for a in subset])
                assert got.ring is want.ring is jm.ring
                assert got.linear_generators == want.linear_generators
                assert str(got) == str(want)
                assert got.semantic_key() == want.semantic_key()
                assert hibi._elements_of(L, got.linear_generators) == frozenset(subset)
                assert got.variable_set() == frozenset(subset)


def test_elements_of_refuses_forms_that_are_not_variables():
    D = diamond()
    R = lattice_ring(D)
    assert hibi._elements_of(D, []) == frozenset()
    for text in ("y - z", "2*x", "x + y"):
        assert hibi._elements_of(D, [R.var("x"), R.parse(text)]) is None


# ---------------------------------------------------------------------------
# colon reports


def test_pentagon_colon_by_bottom_variable():
    P = pentagon()
    rep = colon_in_H(residue_ideal(P, ["x", "y", "z"]), "e")
    assert rep.variable_generated
    assert rep.variable_labels() == ["f", "x", "y", "z"]


def test_diamond_variable_colon():
    D = diamond()
    rep = colon_in_H(residue_ideal(D, ["x"]), "y")
    assert rep.variable_generated
    assert rep.variable_labels() == ["x", "z"]


def test_claim_colon_not_linear():
    P = pentagon()
    rep = colon_in_H(zero_ideal(P), "e")
    assert not rep.linear_generated
    assert not rep.variable_generated
    assert rep.degree1 == ()
    assert rep.nonlinear_witness is not None
    # the witness is a genuine member of the colon that avoids (I_L, degree1)
    assert ideal_member(rep.nonlinear_witness, rep.lift)
    assert not ideal_member(rep.nonlinear_witness, join_meet_ideal(P).ideal)


def test_colon_by_ideal_diamond_equalities():
    D = diamond()
    zero = zero_ideal(D)
    r1 = colon_in_H_by_ideal(zero, residue_ideal(D, ["x"]))
    assert r1.linear_generated and not r1.variable_generated
    assert r1.as_residue_ideal() == residue_ideal(D, ["y - z"])
    r2 = colon_in_H_by_ideal(zero, residue_ideal(D, ["y - z"]))
    assert r2.variable_generated and r2.variable_labels() == ["x"]


def test_colon_by_ideal_reduces_to_added_generator():
    # with I = J + (g), generators of J annihilate into J and the result
    # equals the single-element colon by g
    P = pentagon()
    J = residue_ideal(P, ["x"])
    I = residue_ideal(P, ["x", "y"])
    by_ideal = colon_in_H_by_ideal(J, I)
    by_elem = colon_in_H(J, "y")
    assert by_ideal.semantic_key() == by_elem.semantic_key()
    assert by_ideal.divisors == by_elem.divisors


@pytest.mark.parametrize(
    "make, j_gens, i_gens, differences",
    [(pentagon, ["x"], ["x", "y", "z"], False), (diamond, [], ["x", "y"], True)],
)
def test_colon_by_ideal_with_several_generators_outside_j(make, j_gens, i_gens, differences):
    # I/J is not cyclic, so the colon is refused.  Each cyclic step J + (h),
    # for a generator h of I outside J, keeps the colon contract, decided by
    # Macaulay matrices: g lies in the lift of J : (J + (h)) exactly when g·h
    # lies in the lift of J.  g runs over the monomials of degree <= 2; on
    # the diamond, whose 0 : (x) is generated by y - z, it also runs over
    # the differences of two of them
    L = make()
    J = residue_ideal(L, j_gens)
    I = residue_ideal(L, i_gens)
    with pytest.raises(ValueError):
        colon_in_H_by_ideal(J, I)
    R = lattice_ring(L)
    outside = [h for h in I.linear_generators if not ideal_member(h, J.lift)]
    assert len(outside) >= 2
    for h in outside:
        step = residue_ideal(L, J.linear_generators + (h,))
        rep = colon_in_H_by_ideal(J, step)
        verdicts = set()
        for d in range(3):
            monomials = []
            for combo in combinations_with_replacement(R.gens(), d):
                g = R.one()
                for v in combo:
                    g = g * v
                monomials.append(g)
            if differences:
                monomials += [a - b for a, b in combinations(monomials, 2)]
            for g in monomials:
                expected = macaulay_member(J.lift.generators, g * h)
                assert macaulay_member(rep.lift.generators, g) == expected, (str(h), str(g))
                verdicts.add(expected)
        assert verdicts == {True, False}, str(h)


def test_colon_by_ideal_finds_the_generator_outside_j():
    # I/J cyclic with two generators of I outside J: the colon is the colon
    # by either of them
    D = diamond()
    J = residue_ideal(D, ["x"])
    I = residue_ideal(D, ["x", "y", "x + 2*y"])
    rep = colon_in_H_by_ideal(J, I)
    assert rep.semantic_key() == colon_in_H(J, "y").semantic_key()
    assert rep.semantic_key() == colon_in_H(J, "x + 2*y").semantic_key()
    assert rep.divisors == (I.linear_generators[1],)


def test_colon_by_zero_ideal_is_whole_ring():
    P = pentagon()
    rep = colon_in_H_by_ideal(residue_ideal(P, ["x"]), zero_ideal(P))
    assert rep.whole_ring and not rep.linear_generated


def test_colon_lift_contains_source_and_products_return():
    P = pentagon()
    J = residue_ideal(P, ["x", "y"])
    f = variable(P, P.index("z"))
    rep = colon_in_H(J, f)
    for g in J.lift.generators:
        assert ideal_member(g, rep.lift)
    for g in rep.groebner.basis:
        assert ideal_member(g * f, J.lift)


def test_colon_rejects_nonlinear_divisor():
    P = pentagon()
    with pytest.raises(NotLinear):
        colon_in_H(zero_ideal(P), "x*z")
    with pytest.raises(NotLinear):
        colon_in_H(zero_ideal(P), "x - x")


# ---------------------------------------------------------------------------
# the degree-1 span identity


def test_span_claim_pentagon_bottom():
    P = pentagon()
    assert claim_check(P, {P.index("e")}, P.index("e")).span_matches


def test_span_claim_boolean2():
    B = boolean(2)
    I = {B.index("o"), B.index("a")}
    assert claim_check(B, I, B.index("a")).span_matches


def test_span_claim_chain():
    C = chain(3)
    assert claim_check(C, {0, 1}, 1).span_matches


def test_span_claim_requires_maximal_element():
    P = pentagon()
    with pytest.raises(ValueError):
        claim_check(P, {P.index("e"), P.index("y")}, P.index("e"))


def test_span_claim_across_small_corpus():
    # the linear-part identity holds for every poset ideal and every
    # maximal element, on all corpus lattices with <= 6 elements
    for L in small_corpus(6):
        for s in L.poset_ideals():
            if not s.members:
                continue
            for e in L.maximal_elements(s.members):
                assert claim_check(L, s, e).span_matches, (L.labels, sorted(s.members), e)


# ---------------------------------------------------------------------------
# the generation and span checks the colon report no longer makes, kept as
# references for the checks it does make


REFERENCE_LATTICES = {
    "pentagon": pentagon,
    "diamond": diamond,
    "boolean(3)": lambda: boolean(3),
    "divisor(12)": lambda: divisor_lattice(12),
    "m3_on_m3": m3_on_m3,
}


@lru_cache(maxsize=None)
def search_colons(name):
    """The lattice, and every colon report its combinatorial search makes,
    plus the whole-ring colons (a) : a."""
    L = REFERENCE_LATTICES[name]()
    reports = []

    def recording(J, f):
        rep = colon_in_H(J, f)
        reports.append(rep)
        return rep

    saved = koszul.colon_in_H
    koszul.colon_in_H = recording
    try:
        koszul.search_combinatorial(L)
    finally:
        koszul.colon_in_H = saved
    for a in range(L.n):
        reports.append(colon_in_H(residue_ideal(L, [L.labels[a]]), variable(L, a)))
    return L, tuple(reports)


@pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
def test_variable_generated_matches_the_second_generation_check(name):
    # the former definition: the degree-1 part is all variables and the
    # colon equals (I_L, those variables), tested by a second ideal_equal
    L, reports = search_colons(name)
    R = lattice_ring(L)
    base = join_meet_ideal(L)
    kinds = set()
    for rep in reports:
        variables = [v for v in R.gens() if v in rep.degree1]
        old = len(variables) == len(rep.degree1) and ideal_equal(
            rep.lift, ideal(R, base.generators + tuple(variables))
        )
        assert rep.variable_generated == old, rep.groebner.basis
        expected = frozenset(L.index(str(v)) for v in variables) if old else None
        assert rep.variables == expected
        kinds.add((rep.whole_ring, rep.linear_generated))
    assert (True, False) in kinds and (False, True) in kinds
    if not L.is_distributive():
        assert (False, False) in kinds


def coefficient_rows(L, polys):
    rows = []
    for p in polys:
        row = [Fraction(0)] * L.n
        for m, c in p.terms:
            row[m.index(1)] = c
        rows.append(row)
    return rows


@pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
def test_span_check_matches_row_reduction(name):
    # the span check compares sets of variables; the former one compared
    # the row spaces of the coefficient rows.  The poset-ideal pairs all
    # satisfy the identity; some of the search colons do not
    L, reports = search_colons(name)
    pairs = []
    for s in L.poset_ideals():
        for e in L.maximal_elements(s.members):
            pairs.append((e, claim_check(L, s, e).colon))
    pairs += [(L.index(str(rep.divisors[0])), rep) for rep in reports]
    verdicts = set()
    for e, rep in pairs:
        expected = [variable(L, a) for a in range(L.n) if not L.le(e, a)]
        old = oracles.rref(coefficient_rows(L, rep.degree1)) == oracles.rref(
            coefficient_rows(L, expected)
        )
        assert hibi._span_matches(L, e, rep) == old
        verdicts.add(old)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# on distributive lattices every such colon is again a poset ideal


def test_distributive_colons_are_poset_ideals():
    for L in distributive_corpus():
        if L.n > 8:
            continue
        for s in L.poset_ideals():
            if not s.members:
                continue
            for e in L.maximal_elements(s.members):
                J = residue_ideal(L, [L.labels[a] for a in sorted(s.members - {e})])
                rep = colon_in_H(J, variable(L, e))
                assert rep.variable_generated
                assert L.is_poset_ideal(rep.variables)

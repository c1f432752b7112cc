import gc
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from conftest import (
    cold_copy,
    corpus,
    distributive_corpus,
    enumerated_lattices,
    m3_on_m3,
    small_corpus,
    stacked_diamond,
)
import oracles
from oracles import macaulay_member
from joinmeet import hibi, koszul
from joinmeet.errors import InputError
from joinmeet.groebner import (
    GroebnerBasis,
    _ring_with_last,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    normal_form,
)
from joinmeet.hibi import (
    NotLinear,
    claim_check,
    colon_in_H,
    colon_in_H_by_ideal,
    cyclic_generator,
    join_meet_ideal,
    lattice_ring,
    maximal_ideal,
    residue_ideal,
    variable_ideal,
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


def test_the_ring_and_its_bases_are_freed_with_the_lattice():
    # K[L] and every reduced basis over it hang off L alone, so once L and
    # the ideal are dropped nothing keeps the ring.  L._cache -> JoinMeetIdeal
    # -> L is a reference cycle, so only a collection frees it
    L = divisor_lattice(60)
    I = join_meet_ideal(L).ideal
    assert join_meet_ideal(L) is join_meet_ideal(L)
    gb = groebner_basis(I)
    assert I.ring._bases[I._gb_key] is gb
    ring = weakref.ref(I.ring)
    del L, I, gb
    gc.collect()
    assert ring() is None


def test_the_rings_with_a_variable_last_are_shared_and_freed_with_the_lattice():
    # a colon by the variable x_v runs Buchberger in K[L] with x_v smallest:
    # that ring is built once per ring object and kept on it, it caches no
    # basis, and it dies with the lattice
    L = cold_copy(divisor_lattice(60))
    jm = join_meet_ideal(L)
    R = jm.ring
    smallest = R.order.priority[-1]
    assert _ring_with_last(R, smallest) is R
    for v in range(L.n):
        assert _ring_with_last(R, v) is _ring_with_last(R, v)
    for k in range(1, L.n):
        J = variable_ideal(L, range(k))
        for e in range(k, L.n):
            colon_in_H(J, jm.variables[e])
    assert len(R._last) == L.n - 1 and smallest not in R._last
    assert all(not ring._bases for ring in R._last.values())
    last = weakref.ref(R._last[L.n - 1])
    del L, jm, R, J
    gc.collect()
    assert last() is None


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
    z = residue_ideal(P, ())
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
    # distinct variable subsets always give semantically distinct ideals, by
    # their keys and by the reduced bases of their lifts
    for L in small_corpus(5):
        seen = {}
        bases = {}
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                ri = residue_ideal(L, [L.labels[i] for i in subset])
                key = ri.semantic_key()
                assert key not in seen or seen[key] == subset
                seen[key] = subset
                basis = groebner_basis(ri.lift).basis
                assert basis not in bases or bases[basis] == subset
                bases[basis] = subset


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
        # exact coefficients: the basic binomials, built from the variables,
        # carry ints, and a Fraction is as exact
        assert all(type(c) in (int, field) for g in jm.generators for _, c in g.terms)
        for e in range(L.n):
            assert jm.variables[e] == jm.ring.var(L.labels[e])
            assert hibi._elements_of(L, [jm.variables[e]]) == {e}
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                got = variable_ideal(L, subset[::-1])  # any order
                want = residue_ideal(L, [L.labels[a] for a in subset])
                assert got.ring is want.ring is jm.ring
                assert got.linear_generators == want.linear_generators
                assert str(got) == str(want)
                assert got.semantic_key() == want.semantic_key()
                assert groebner_basis(got.lift).basis == groebner_basis(want.lift).basis
                assert hibi._elements_of(L, got.linear_generators) == frozenset(subset)
                assert got.variable_set() == frozenset(subset)


def test_variable_ideal_knows_its_variable_set_without_an_echelon_form():
    # variable_ideal is handed its elements, so variable_set() reads them
    # (any iterable, a one-shot generator too) and makes no span; the set
    # is the one residue_ideal reads off the parsed labels' echelon form
    for L in corpus():
        for size in range(L.n + 1):
            for subset in combinations(range(L.n), size):
                got = variable_ideal(L, (a for a in subset))
                assert got.variable_set() == frozenset(subset)
                assert got._span is None
                want = residue_ideal(L, [L.labels[a] for a in subset])
                assert got.variable_set() == want.variable_set()


def test_elements_of_refuses_forms_that_are_not_variables():
    D = diamond()
    R = lattice_ring(D)
    assert hibi._elements_of(D, []) == frozenset()
    for text in ("y - z", "2*x", "x + y"):
        assert hibi._elements_of(D, [R.var("x"), R.parse(text)]) is None


# ---------------------------------------------------------------------------
# the degree-2 move check


def test_the_degree2_check_agrees_with_the_oracle_and_every_colon():
    # every (S, x) of the 51 labelled lattices of at most 6 elements: each
    # colon generated by variables has the oracle's set, each move the oracle
    # rejects has a colon not generated by variables, and the engine's check
    # equals the oracle, which reads only L.join and L.meet
    lattices = enumerated_lattices(6)
    assert len(lattices) == 51
    assert oracles.degree2_cross_check(lattices) == (8129, 206, 82)


def test_the_degree2_check_rejects_a_move_iff_the_lattice_is_not_distributive():
    # x_b x_x and x_b' x_x share a degree-2 class iff b and b' have the same
    # join and meet with x, so the moves ({x}, x) find every failure of
    # Birkhoff's cancellation law, and a distributive lattice, where the law
    # holds, has no move the check rejects
    for L in [*enumerated_lattices(6), boolean(4), divisor_lattice(60)]:
        singletons = [hibi.degree2_move(L, 1 << x, x) for x in range(L.n)]
        assert L.is_distributive() == (None not in singletons), L.labels
        if L.is_distributive():
            for mask in range(1, 1 << L.n):
                for x in range(L.n):
                    if mask >> x & 1:
                        assert hibi.degree2_move(L, mask, x) is not None, (L.labels, mask, x)


def test_the_degree2_check_reads_only_the_lattice_tables():
    # M3-on-M3's annihilators 0 : x_x and 0 : x_p are rejected: in degree 2
    # the colon holds a difference of two atoms' variables.  The check
    # builds no ring, and its table lives in L._cache, freed with L
    L = m3_on_m3()
    for label in ("x", "p"):
        x = L.index(label)
        assert hibi.degree2_move(L, 1 << x, x) is None
    assert set(L._cache) == {"degree2_fibres"}
    fibres = {(L.join(a, b), L.meet(a, b)) for a, b in L.incomparable_pairs()}
    assert len(L._cache["degree2_fibres"]) == len(fibres)
    # in boolean(2) the move b of {o, a, b} has the colon (o, a) : b = (o, a),
    # and the check names that set
    B = boolean(2)
    o, a, b = (B.index(label) for label in ("o", "a", "b"))
    assert hibi.degree2_move(B, 1 << o | 1 << a | 1 << b, b) == 1 << o | 1 << a
    rep = colon_in_H_by_ideal(variable_ideal(B, {o, a}), variable_ideal(B, {o, a, b}))
    assert rep.variables == {o, a}


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
    rep = colon_in_H(residue_ideal(P, ()), "e")
    assert not rep.linear_generated
    assert not rep.variable_generated
    assert rep.degree1 == ()
    assert rep.nonlinear_witness is not None
    # the witness is a genuine member of the colon that avoids (I_L, degree1)
    assert ideal_member(rep.nonlinear_witness, rep.lift)
    assert not ideal_member(rep.nonlinear_witness, join_meet_ideal(P).ideal)


def test_colon_by_ideal_diamond_equalities():
    D = diamond()
    zero = residue_ideal(D, ())
    r1 = colon_in_H_by_ideal(zero, residue_ideal(D, ["x"]))
    assert r1.linear_generated and not r1.variable_generated
    assert residue_ideal(D, r1.degree1) == residue_ideal(D, ["y - z"])
    r2 = colon_in_H_by_ideal(zero, residue_ideal(D, ["y - z"]))
    assert r2.variable_generated and r2.variable_labels() == ["x"]


def test_colon_by_ideal_reduces_to_added_generator():
    # with I = J + (g), generators of J annihilate into J and the result
    # equals the single-element colon by g, taken on a J built apart, whose
    # lift keeps no colon yet
    P = pentagon()
    J = residue_ideal(P, ["x"])
    I = residue_ideal(P, ["x", "y"])
    by_ideal = colon_in_H_by_ideal(J, I)
    by_elem = colon_in_H(residue_ideal(P, ["x"]), "y")
    assert by_ideal.semantic_key() == by_elem.semantic_key()
    assert by_ideal.groebner.basis == by_elem.groebner.basis
    assert by_ideal.divisors == by_elem.divisors


def _cyclic_by_normal_forms(J, I):
    """cyclic_generator's choice made on every J by normal forms against J's
    span, or "ValueError" when it refuses the pair."""
    span = GroebnerBasis(J.ring, J.degree1())
    outside = [g for g in I.linear_generators if normal_form(g, span)]
    if len(outside) > 1:
        step = span.basis + (normal_form(outside[0], span),)
        if any(normal_form(h, step) for h in outside[1:]):
            return "ValueError"
    return outside[0] if outside else None


def _cyclic_generator_or_refusal(J, I):
    try:
        return cyclic_generator(J, I)
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize(
    "family",
    [
        lambda: koszul.poset_ideal_filtration(pentagon()).members,
        lambda: koszul.poset_ideal_filtration(diamond()).members,
        lambda: koszul.poset_ideal_filtration(boolean(3)).members,
        lambda: koszul.filtration(boolean(2), [
            [], ["o"], ["o + a", "o"], ["b", "o - b"], ["a + b", "a", "o"], list(boolean(2).labels)
        ]).members,
    ],
    ids=["pentagon", "diamond", "boolean(3)", "boolean(2) sums"],
)
def test_cyclic_generator_by_support_agrees_with_normal_forms(family):
    # a span of variables holds a form exactly when it holds its support, so
    # the support test picks the normal forms' generator, or refuses the pair
    members = family()
    assert any(J.variable_set() is not None for J in members)
    for J in members:
        for I in members:
            assert _cyclic_generator_or_refusal(J, I) == _cyclic_by_normal_forms(J, I)


def test_cyclic_generator_refuses_a_non_cyclic_step_over_variables():
    B = boolean(2)
    J = variable_ideal(B, {B.index("o")})
    assert J.variable_set() == {B.index("o")}
    for gens in (["o", "a", "b"], ["a + o", "b"], ["a", "b - a"]):
        with pytest.raises(ValueError, match="cyclic"):
            cyclic_generator(J, residue_ideal(B, gens))
    assert str(cyclic_generator(J, residue_ideal(B, ["o", "a + o", "a"]))) == "a + o"


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
    # by either of them, each taken on a J built apart
    D = diamond()
    J = residue_ideal(D, ["x"])
    I = residue_ideal(D, ["x", "y", "x + 2*y"])
    rep = colon_in_H_by_ideal(J, I)
    for f in ("y", "x + 2*y"):
        by_f = colon_in_H(residue_ideal(D, ["x"]), f)
        assert rep.semantic_key() == by_f.semantic_key()
        assert rep.groebner.basis == by_f.groebner.basis
    assert rep.divisors == (I.linear_generators[1],)


def test_colon_by_zero_ideal_is_whole_ring():
    # J : I is the whole ring for every I inside J, the zero ideal first;
    # (I_L, degree1) is generated in positive degrees, so 1 is the witness
    P = pentagon()
    one = lattice_ring(P).one()
    J = residue_ideal(P, ["x", "y"])
    for gens in [(), ["x"], ["y", "x"], ["x - y"], ["2*x", "x + y"]]:
        I = residue_ideal(P, gens)
        rep = colon_in_H_by_ideal(J, I)
        assert rep.whole_ring and not rep.linear_generated and not rep.variable_generated
        assert rep.groebner.basis == (one,) and rep.divisors == I.linear_generators
        assert rep.nonlinear_witness == one
        assert rep.nonlinear_witness == 1


def test_colon_lift_contains_source_and_products_return():
    P = pentagon()
    J = residue_ideal(P, ["x", "y"])
    f = join_meet_ideal(P).variables[P.index("z")]
    rep = colon_in_H(J, f)
    for g in J.lift.generators:
        assert ideal_member(g, rep.lift)
    for g in rep.groebner.basis:
        assert ideal_member(g * f, J.lift)


def test_colon_rejects_nonlinear_divisor():
    P = pentagon()
    with pytest.raises(NotLinear):
        colon_in_H(residue_ideal(P, ()), "x*z")
    with pytest.raises(NotLinear):
        colon_in_H(residue_ideal(P, ()), "x - x")


# ---------------------------------------------------------------------------
# the degree-1 span identity


def test_span_claim_boolean2():
    B = boolean(2)
    I = {B.index("o"), B.index("a")}
    assert claim_check(B, I, B.index("a")).span_matches


def test_span_claim_chain():
    C = chain(3)
    assert claim_check(C, {0, 1}, 1).span_matches


def test_span_claim_across_small_corpus():
    # the linear-part identity holds for every poset ideal and every
    # maximal element, on all corpus lattices with <= 6 elements
    for L in small_corpus(6):
        for s in L.poset_ideals():
            if not s:
                continue
            for e in L.maximal_elements(s):
                assert claim_check(L, s, e).span_matches, (L.labels, sorted(s), e)


# ---------------------------------------------------------------------------
# claim_check


def test_claim_pentagon_bottom():
    P = pentagon()
    rep = claim_check(P, {P.index("e")}, P.index("e"))
    assert not rep.linear_generated
    assert rep.span_matches
    assert rep.pentagon_with_min_e and not rep.diamond_with_min_e


def test_claim_diamond_bottom():
    D = diamond()
    rep = claim_check(D, {D.index("e")}, D.index("e"))
    assert not rep.linear_generated
    assert rep.span_matches
    assert rep.diamond_with_min_e


def test_claim_distributive_case_is_linear():
    B = boolean(2)
    rep = claim_check(B, {B.index("o")}, B.index("o"))
    assert rep.linear_generated and rep.span_matches
    assert not rep.pentagon_with_min_e and not rep.diamond_with_min_e


def test_claim_requires_maximal_element():
    P = pentagon()
    with pytest.raises(ValueError):
        claim_check(P, {P.index("e"), P.index("y")}, P.index("e"))


def test_claim_holds_wherever_pentagon_or_diamond_sits_at_e():
    # wherever a pentagon or diamond sits with its minimum at e, the colon
    # must fail to be linear-form generated
    for L in [pentagon(), diamond(), stacked_diamond()]:
        for s in L.poset_ideals():
            for e in L.maximal_elements(s):
                rep = claim_check(L, s, e)
                if rep.pentagon_with_min_e or rep.diamond_with_min_e:
                    assert not rep.linear_generated
                assert rep.span_matches


def _claim_verdicts(rep):
    return (
        rep.ideal, rep.element, rep.linear_generated, rep.span_matches,
        rep.pentagon_with_min_e, rep.diamond_with_min_e, rep.colon.semantic_key(),
    )


@pytest.mark.parametrize("build", [pentagon, diamond, lambda: boolean(3)],
                         ids=["pentagon", "diamond", "boolean(3)"])
def test_claim_takes_any_iterable_of_elements(build):
    # a list, a set and a member of poset_ideals() name the same ideal and
    # give the same report; a set that is not downward closed is refused
    L = build()
    for s in L.poset_ideals():
        for e in L.maximal_elements(s):
            want = _claim_verdicts(claim_check(L, s, e))
            assert type(want[0]) is frozenset and want[0] == s
            for other in (sorted(s, reverse=True), set(s)):
                assert _claim_verdicts(claim_check(L, other, e)) == want
    with pytest.raises(InputError, match="not downward closed"):
        claim_check(L, [L.top], L.top)


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

    def recording(J, I):
        rep = colon_in_H_by_ideal(J, I)
        reports.append(rep)
        return rep

    saved = koszul.colon_in_H_by_ideal
    koszul.colon_in_H_by_ideal = recording
    try:
        koszul.search_combinatorial(L)
    finally:
        koszul.colon_in_H_by_ideal = saved
    for a in range(L.n):
        J = residue_ideal(L, [L.labels[a]])
        reports.append(colon_in_H(J, J.base.variables[a]))
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
        for e in L.maximal_elements(s):
            pairs.append((e, claim_check(L, s, e).colon))
    pairs += [(L.index(str(rep.divisors[0])), rep) for rep in reports]
    variables = join_meet_ideal(L).variables
    verdicts = set()
    for e, rep in pairs:
        expected = [variables[a] for a in range(L.n) if not L.le(e, a)]
        old = oracles.rref(coefficient_rows(L, rep.degree1)) == oracles.rref(
            coefficient_rows(L, expected)
        )
        assert hibi._span_matches(L, e, rep) == old
        verdicts.add(old)
    assert verdicts == {True, False}


def test_residue_ideal_refuses_a_generator_from_another_lattices_ring():
    with pytest.raises(ValueError, match="different ring"):
        residue_ideal(pentagon(), [lattice_ring(chain(3)).gens()[0]])


def test_colon_by_ideal_refuses_two_lattices():
    with pytest.raises(ValueError, match="different lattices"):
        colon_in_H_by_ideal(variable_ideal(pentagon(), [0]), variable_ideal(diamond(), [0, 1]))


# ---------------------------------------------------------------------------
# on distributive lattices every such colon is again a poset ideal


def test_distributive_colons_are_poset_ideals():
    for L in distributive_corpus():
        if L.n > 8:
            continue
        for s in L.poset_ideals():
            if not s:
                continue
            for e in L.maximal_elements(s):
                J = residue_ideal(L, [L.labels[a] for a in sorted(s - {e})])
                rep = colon_in_H(J, J.base.variables[e])
                assert rep.variable_generated
                assert L.is_poset_ideal(rep.variables)

import random
from fractions import Fraction

import pytest

from joinmeet.groebner import (
    ZeroDivisorArgument,
    buchberger,
    _divided_by,
    colon_element,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    intersect,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from joinmeet.hibi import join_meet_ideal, lattice_ring
from joinmeet.lattice import boolean, chain, diamond, pentagon
from joinmeet.poly import Ring, degrevlex
from conftest import cold_copy
from oracles import macaulay_member
from test_reducer import reference_buchberger, reference_divide_exact, reference_reduce_basis


@pytest.fixture
def R():
    return lattice_ring(pentagon())


@pytest.fixture
def IL(R):
    return join_meet_ideal(pentagon()).ideal


# ---------------------------------------------------------------------------
# normal form


def test_single_reduction_step(R):
    nf = normal_form(R.parse("x*z"), [R.parse("x*z - e*f")])
    assert nf == R.parse("e*f")


def test_members_reduce_to_zero(R, IL):
    gb = groebner_basis(IL)
    for g in gb.basis:
        assert normal_form(g, gb) == 0
    for g in IL.generators:
        assert normal_form(g, gb) == 0


def test_pentagon_cubic_membership(R, IL):
    # e*(fx - fy) lies in I_L even though fx - fy does not
    f = R.var("e") * R.parse("f*x - f*y")
    gb = groebner_basis(IL)
    assert normal_form(f, gb) == 0
    assert normal_form(R.parse("e*f*x - e*f*y"), gb) == 0
    assert ideal_member(f, IL)
    assert not ideal_member(R.parse("f*x - f*y"), IL)


def test_normal_form_is_linear_in_the_ideal(R, IL):
    # f - normal_form(f) always lies in the ideal
    gb = groebner_basis(IL)
    probe = R.parse("x*z*f + y - 2*e^2")
    nf = normal_form(probe, gb)
    assert ideal_member(probe - nf, IL)
    # no term of the remainder is divisible by a leading monomial
    for m, _ in nf.terms:
        for g in gb.basis:
            lm = g.leading_monomial()
            assert not all(a <= b for a, b in zip(lm, m))


# ---------------------------------------------------------------------------
# Buchberger


def test_pentagon_basis_contains_hibi_relations(R, IL):
    gb = reduce_basis(buchberger(IL.generators))
    degree2 = {g for g in gb.basis if g.total_degree() == 2}
    assert R.parse("x*z - e*f") in degree2
    assert R.parse("y*z - e*f") in degree2


def test_all_s_polynomials_reduce_to_zero(R, IL):
    for gens in [IL.generators, join_meet_ideal(diamond()).generators]:
        gb = buchberger(gens)
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis) == 0


def test_principal_and_empty(R):
    assert buchberger([R.var("x")]).basis == (R.var("x"),)
    assert buchberger([], ring=R).basis == ()
    assert buchberger([R.zero()]).basis == ()


def test_an_empty_list_needs_an_explicit_ring(R):
    # reduce_basis refuses what buchberger refuses: a list with no ring
    for entry in (buchberger, reduce_basis):
        with pytest.raises(ValueError, match="needs an explicit ring"):
            entry([])
    assert reduce_basis([R.zero()]).basis == ()
    assert reduce_basis(buchberger([], ring=R)).basis == ()


def test_strategies_agree(R, IL):
    cases = [
        IL.generators,
        join_meet_ideal(diamond()).generators,
        IL.generators + (R.var("x"),),
        (R.parse("x*z - e*f"), R.parse("z^2 - y*f"), R.var("e")),
    ]
    # the engine's pair order against the reference's creation order
    for gens in cases:
        a = reduce_basis(buchberger(gens))
        b = reference_reduce_basis(reference_buchberger(gens, strategy="first"))
        assert a.basis == b.basis


def test_reduced_basis_is_reduced(R, IL):
    gb = groebner_basis(IL)
    for i, g in enumerate(gb.basis):
        assert g.leading_term()[1] == 1
        others = [h for j, h in enumerate(gb.basis) if j != i]
        for m, _ in g.terms:
            for h in others:
                lm = h.leading_monomial()
                assert not all(a <= b for a, b in zip(lm, m))


def test_groebner_cache_returns_same_object(IL):
    assert groebner_basis(IL) is groebner_basis(IL)


def test_concurrent_callers_see_identical_reduced_bases():
    import threading

    I = join_meet_ideal(cold_copy(diamond())).ideal
    results = []

    def work():
        results.append(groebner_basis(I).basis)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


# ---------------------------------------------------------------------------
# ideal predicates


def test_ideal_equal_trivial(R, IL):
    assert ideal_equal(IL, IL)
    assert ideal_equal(
        ideal(R, (R.var("x"), R.var("y"))), ideal(R, (R.var("y"), R.var("x")))
    )
    assert not ideal_equal(IL, ideal(R, (R.var("x"),)))


def test_diamond_interval_product_not_in_ideal():
    # x1*xj not in (I_L, S) with S empty, on the diamond
    D = diamond()
    RD = lattice_ring(D)
    ILD = join_meet_ideal(D).ideal
    assert not ideal_member(RD.parse("x*y"), ILD)
    assert ideal_member(RD.parse("x*y - e*f"), ILD)


# ---------------------------------------------------------------------------
# intersection


def test_intersect_coprime_monomials(R):
    got = intersect(ideal(R, (R.var("x"),)), ideal(R, (R.var("y"),)))
    assert ideal_equal(got, ideal(R, (R.parse("x*y"),)))


def test_intersect_unit(R, IL):
    # the unit ideal is not generated by a linear form
    with pytest.raises(ValueError):
        intersect(IL, ideal(R, (R.one(),)))


def test_intersect_containment(R):
    # I ⊆ (x), so I ∩ (x) = I
    I = ideal(R, (R.parse("x*y"), R.parse("x*z - x*e")))
    assert ideal_equal(intersect(I, ideal(R, (R.var("x"),))), I)


def test_intersect_double_inclusion(R, IL):
    J = ideal(R, (R.parse("y - z"),))
    inter = intersect(IL, J)
    for g in inter.generators:
        assert ideal_member(g, IL) and ideal_member(g, J)
    # sampled common members reduce to zero against the intersection
    common = R.parse("x*z - e*f") * R.parse("y - z")
    assert ideal_member(common, IL) and ideal_member(common, J)
    assert ideal_member(common, inter)
    assert not ideal_member(R.parse("x*z - e*f"), inter)


@pytest.mark.parametrize(
    "i_texts, j_texts",
    [
        (["x*z - e*f"], ["x", "y"]),  # J with two generators
        (["x*z - e*f", "x - e*f"], ["y"]),  # an inhomogeneous I
        (["x*z - e*f"], ["x*y"]),  # a J that is not linear
        (["x*z - e*f"], []),  # no generator at all
    ],
)
def test_intersect_refuses_what_is_not_a_colon_by_one_linear_form(R, i_texts, j_texts):
    I = ideal(R, [R.parse(t) for t in i_texts])
    J = ideal(R, [R.parse(t) for t in j_texts])
    with pytest.raises(ValueError):
        intersect(I, J)
    if len(J.generators) == 1:
        with pytest.raises(ValueError):
            colon_element(I, J.generators[0])


# ---------------------------------------------------------------------------
# colon ideals


def test_pentagon_colon_equality(R, IL):
    got = colon_element(ideal(R, IL.generators + (R.var("x"),)), R.var("y"))
    expected = ideal(R, IL.generators + (R.var("z"), R.var("x")))
    assert ideal_equal(got, expected)


def test_diamond_colon_final_example():
    D = diamond()
    RD = lattice_ring(D)
    ILD = join_meet_ideal(D).ideal
    got = colon_element(ILD, RD.var("x"))
    assert ideal_equal(got, ideal(RD, ILD.generators + (RD.parse("y - z"),)))


def test_colon_by_unit(R, IL):
    # a constant is not a linear form
    with pytest.raises(ValueError):
        colon_element(IL, R.one())


def test_colon_by_zero_raises(R, IL):
    with pytest.raises(ZeroDivisorArgument):
        colon_element(IL, R.zero())


def test_colon_contains_ideal_and_products_land_back(R, IL):
    f = R.var("e")
    c = colon_element(IL, f)
    for g in IL.generators:
        assert ideal_member(g, c)
    for g in groebner_basis(c).basis:
        assert ideal_member(g * f, IL)


def test_colon_bidirectional_contract_sampled(R, IL):
    rng = random.Random(7)
    gens_pool = list(R.gens())
    f = R.var("e")
    c = colon_element(IL, f)
    for _ in range(300):
        g = R.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = rng.randint(-2, 2)
            a = rng.choice(gens_pool)
            b = rng.choice(gens_pool + [R.one()])
            g = g + coeff * a * b
        assert ideal_member(g, c) == ideal_member(g * f, IL)


def test_kept_colons_live_and_die_with_their_ideal():
    # intersect keeps I : f on the Ideal object, keyed by the form alone:
    # an equal ideal built apart keeps none, and the ring gains no attribute
    I = join_meet_ideal(cold_copy(pentagon())).ideal
    ring = I.ring
    before = set(ring.__dict__)
    f = ring.var("e")
    colon = colon_element(I, f)
    assert set(I._colons) == {f}
    assert I._colons[f].basis == colon.generators
    apart = ideal(ring, I.generators)
    assert apart == I and apart._colons == {}
    assert set(ring.__dict__) == before


# ---------------------------------------------------------------------------
# degree-1 part


def test_degree1_of_reduced_basis_spans_linear_part(R):
    I = ideal(R, (R.var("x"), R.parse("y - z"), R.parse("x*y")))
    got = groebner_basis(I).degree1
    assert len(got) == 2
    # spans exactly {x, y - z}
    assert ideal_equal(
        ideal(R, tuple(got)), ideal(R, (R.var("x"), R.parse("y - z")))
    )


# ---------------------------------------------------------------------------
# division helper


def test_divided_by(R):
    # the colon's quotient by one variable x: exact when x divides every
    # term, else the polynomial itself, for a term free of x or for zero
    x, v = R.var("x"), R.names.index("x")
    for q in (R.parse("x*z - e*f"), R.parse("x^2 - 3*y + 1/2"), R.parse("2/3*x")):
        got = _divided_by(q * x, v)
        assert got == reference_divide_exact(q * x, x) == q
        assert got * x == q * x
    for g in (R.parse("x*z - e*f"), R.parse("x^2 - 3*y"), R.var("y"), R.one()):
        assert _divided_by(g, v) is g
    assert _divided_by(R.zero(), v) == R.zero()


# ---------------------------------------------------------------------------
# Macaulay-matrix oracle agreement


def test_membership_agrees_with_macaulay_oracle():
    # coefficients with denominators 1 to 3 scale each query by an lcm that
    # some terms' denominators equal and others do not; the form 2*x1 - 3*x2
    # makes the forms of single monomials carry non-integral coefficients
    rng = random.Random(11)
    for L in [chain(3), boolean(2), pentagon(), diamond()]:
        R = lattice_ring(L)
        jm = join_meet_ideal(L)
        form = 2 * R.var(L.labels[1]) - 3 * R.var(L.labels[2])
        for extra in [(), (R.var(L.labels[L.top]),), (form,)]:
            I = ideal(R, jm.generators + extra)
            probes = list(R.gens())
            probes += [a * b for a in R.gens() for b in R.gens()]
            for _ in range(40):
                g = R.zero()
                for _ in range(rng.randint(1, 3)):
                    a = rng.choice(probes)
                    g = g + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * a
                probes.append(g)
            for f in probes:
                assert ideal_member(f, I) == macaulay_member(I.generators, f), str(f)
            forms = groebner_basis(I)._forms.values()
            fractional = any(type(c) is Fraction for nf in forms for _, c in nf)
            assert fractional == (extra == (form,)), (L.labels, extra)
    assert any(len({c.denominator for _, c in f.terms}) > 1 for f in probes)


def test_intersect_refuses_two_rings(IL):
    other = Ring(("p", "q"), degrevlex(2))
    with pytest.raises(ValueError, match="mixed rings"):
        intersect(IL, ideal(other, (other.var("p"),)))


def test_membership_rejects_a_polynomial_from_another_ring():
    # boolean(2)'s ring is o, a, b, ab; both polynomials used to be "members"
    I = join_meet_ideal(boolean(2)).ideal
    four = Ring(("p", "q", "r", "s"), degrevlex(4))
    three = Ring(("p", "q", "r"), degrevlex(3))
    for f in (four.parse("q*r - p*s"), three.parse("q*r - p")):
        with pytest.raises(ValueError, match="mixed rings"):
            ideal_member(f, I)
    # an equal ring that is another object is the same ring
    same = Ring(I.ring.names, I.ring.order)
    assert ideal_member(same.parse("a*b - o*ab"), I)

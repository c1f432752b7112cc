"""The value classes are plain classes: these tests pin what their callers
rely on, structural == and hash, frozen fields, reprs that name the fields,
constructors with a fixed signature and the checks those constructors run.
"""

import pytest

from joinmeet import (
    ClaimReport,
    FiltrationSpec,
    GroebnerBasis,
    Ideal,
    JoinMeetIdeal,
    MonomialOrder,
    ResidueColonReport,
    Ring,
    VerificationReport,
    Witness,
    claim_check,
    colon_in_H,
    diamond,
    groebner_basis,
    join_meet_ideal,
    pentagon,
    poset_ideal_filtration,
    variable_ideal,
    verify_filtration,
)
from joinmeet.groebner import normal_form
from joinmeet.koszul import Axiom3Failure
from joinmeet.poly import degrevlex


def xy_ring():
    return Ring(("x", "y"), degrevlex(2))


FIELDS = {
    MonomialOrder: ("priority",),
    Ring: ("names", "order"),
    Ideal: ("ring", "generators"),
    GroebnerBasis: ("ring", "basis"),
    JoinMeetIdeal: ("lattice", "ring", "variables", "generators"),
    ResidueColonReport: (
        "lattice",
        "divisors",
        "lift",
        "groebner",
        "degree1",
        "linear_generated",
        "variable_generated",
        "variables",
        "whole_ring",
        "nonlinear_witness",
    ),
    ClaimReport: (
        "lattice",
        "ideal",
        "element",
        "linear_generated",
        "span_matches",
        "colon",
        "pentagon_with_min_e",
        "diamond_with_min_e",
    ),
    Witness: (
        "member_index",
        "member",
        "j_index",
        "j",
        "cyclic_generator",
        "colon_member_index",
    ),
    Axiom3Failure: ("member_index", "member", "no_candidates", "tried"),
    VerificationReport: (
        "lattice",
        "passed",
        "axiom1_ok",
        "axiom2_ok",
        "has_zero",
        "has_maximal",
        "axiom3_ok",
        "witnesses",
        "axiom3_failures",
    ),
}


def frozen_pairs():
    """Two equal objects built apart, of each frozen class."""
    R, S = xy_ring(), xy_ring()
    x, y = R.gens()
    u, v = S.gens()
    return [
        (MonomialOrder((1, 0)), MonomialOrder((1, 0))),
        (R, S),
        (Ideal(R, (x, x * y)), Ideal(S, (u, u * v))),
        (GroebnerBasis(R, (x, y)), GroebnerBasis(S, (u, v))),
        (join_meet_ideal(pentagon()), join_meet_ideal(pentagon())),
    ]


def test_frozen_classes_compare_and_hash_by_their_fields():
    for a, b in frozen_pairs():
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != object() and a != None  # noqa: E711


def test_frozen_classes_differ_when_a_field_does():
    R = xy_ring()
    x, y = R.gens()
    assert MonomialOrder((0, 1)) != MonomialOrder((1, 0))
    assert Ring(("x", "y"), degrevlex(2)) != Ring(("y", "x"), degrevlex(2))
    assert Ring(("x", "y"), degrevlex(2)) != Ring(("x", "y"), degrevlex(2, (1, 0)))
    # structural, not semantic: the order of the generators counts
    assert Ideal(R, (x, y)) != Ideal(R, (y, x))
    assert GroebnerBasis(R, (x,)) != GroebnerBasis(R, (x, y))
    assert join_meet_ideal(pentagon()) != join_meet_ideal(diamond())


def test_ring_ignores_its_caches():
    R, S = xy_ring(), xy_ring()
    x, y = R.gens()
    groebner_basis(Ideal(R, (x * x - y * y,)))
    R.key((1, 1))
    assert R._bases and R._key_cache and not S._bases and not S._key_cache
    assert R == S and hash(R) == hash(S) == hash((R.names, R.order))
    assert repr(R) == "Ring(names=('x', 'y'), order=MonomialOrder(priority=(0, 1)))"


def test_frozen_fields_cannot_be_assigned_or_deleted():
    for a, _ in frozen_pairs():
        for name in FIELDS[type(a)]:
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
    R = xy_ring()
    with pytest.raises(AttributeError):
        R._codec = None


def test_cached_properties_fill_on_frozen_objects():
    R = xy_ring()
    x, y = R.gens()
    I = Ideal(R, (x, x * y, y - y))
    assert I._nonlinear == (x * y,)
    assert I._homogeneous and I._gb_key == frozenset(I.generators)
    assert vars(I)["_nonlinear"] is I._nonlinear
    G = groebner_basis(I)
    assert normal_form(x * y + y, G) == y
    assert vars(G)["_divisors"] is G._divisors and G.degree1 == (x,)
    jm = join_meet_ideal(pentagon())
    assert jm.ideal is jm.ideal and jm.ideal.generators == jm.generators


def test_reprs_name_the_fields():
    R = xy_ring()
    x, _ = R.gens()
    assert repr(MonomialOrder((1, 0))) == "MonomialOrder(priority=(1, 0))"
    assert repr(Ideal(R, (x,))) == f"Ideal(ring={R!r}, generators=(<poly x>,))"
    assert repr(GroebnerBasis(R, ())) == f"GroebnerBasis(ring={R!r}, basis=())"
    jm = join_meet_ideal(pentagon())
    assert repr(jm).startswith("JoinMeetIdeal(lattice=")
    for name in ("ring=", "variables=", "generators="):
        assert name in repr(jm)
    L = diamond()
    report = claim_check(L, {0, 1}, 1)
    assert repr(report).startswith("ClaimReport(lattice=")
    assert "colon=ResidueColonReport(lattice=" in repr(report)
    F = poset_ideal_filtration(L)
    assert repr(F) == f"FiltrationSpec(lattice={L!r}, members={F.members!r}, combinatorial=True)"
    assert "keys" not in repr(F)
    text = repr(verify_filtration(L, F))
    assert text.startswith("VerificationReport(lattice=")
    assert "axiom3_failures=[Axiom3Failure(member_index=" in text


def report_fields(cls):
    return {name: object() for name in FIELDS[cls]}


@pytest.mark.parametrize(
    "cls", [ResidueColonReport, ClaimReport, Witness, Axiom3Failure, VerificationReport]
)
def test_reports_construct_by_position_or_keyword(cls):
    values = report_fields(cls)
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    for name, value in values.items():
        assert getattr(by_keyword, name) is value
    assert by_keyword == by_position
    first, last = FIELDS[cls][0], FIELDS[cls][-1]
    changed = dict(values, **{first: object()})
    assert cls(**changed) != by_keyword
    # reports may change, so they do not hash
    with pytest.raises(TypeError):
        hash(by_keyword)
    by_keyword.extra = 1
    setattr(by_keyword, first, None)
    missing = dict(values)
    del missing[last]
    with pytest.raises(TypeError):
        cls(**missing)
    with pytest.raises(TypeError):
        cls(**values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values.values(), 1)


def test_filtration_spec_computes_keys_and_combinatorial():
    L = diamond()
    members = poset_ideal_filtration(L).members
    F = FiltrationSpec(L, members)
    assert F == FiltrationSpec(lattice=L, members=members)
    assert F.keys == {m.semantic_key(): i for i, m in enumerate(members)}
    assert F.combinatorial
    assert F != FiltrationSpec(L, members[:-1])
    with pytest.raises(TypeError):
        hash(F)
    with pytest.raises(TypeError):
        FiltrationSpec(L, members, keys={})
    with pytest.raises(TypeError):
        FiltrationSpec(L)


def test_real_reports_compare_by_value():
    L = diamond()
    J = variable_ideal(L, {0})
    x = J.base.variables[1]
    a, b = colon_in_H(J, x), colon_in_H(J, x)
    assert a is not b and a == b
    F = poset_ideal_filtration(L)
    assert verify_filtration(L, F) == verify_filtration(L, F)


def test_monomial_order_refuses_a_priority_that_is_no_permutation():
    for priority in [(0, 0), (1, 2), (0, 2, 1, 1), (-1, 0)]:
        with pytest.raises(ValueError, match="permutation"):
            MonomialOrder(priority)
    assert MonomialOrder(()).priority == ()
    with pytest.raises(TypeError):
        MonomialOrder()


def test_ring_refuses_repeated_names_and_a_mismatched_order():
    with pytest.raises(ValueError, match="distinct"):
        Ring(("x", "x"), degrevlex(2))
    with pytest.raises(ValueError, match="must match"):
        Ring(("x", "y"), degrevlex(3))
    with pytest.raises(TypeError):
        Ring(("x", "y"))
    R = Ring(names=("x", "y"), order=degrevlex(2))
    assert R == xy_ring() and R._index == {"x": 0, "y": 1}


def test_ideal_refuses_a_generator_from_another_ring():
    R, T = xy_ring(), Ring(("x", "z"), degrevlex(2))
    with pytest.raises(ValueError, match="different ring"):
        Ideal(R, (R.gens()[0], T.gens()[1]))
    # an equal ring built apart is the same ring
    S = xy_ring()
    assert Ideal(R, (S.gens()[0],)).generators == (S.gens()[0],)


def test_join_meet_ideal_is_built_by_position_or_keyword():
    jm = join_meet_ideal(pentagon())
    fields = FIELDS[JoinMeetIdeal]
    again = JoinMeetIdeal(*(getattr(jm, name) for name in fields))
    assert again == jm and hash(again) == hash(jm)
    assert JoinMeetIdeal(**{name: getattr(jm, name) for name in fields}) == jm


def frozen_values():
    """A GroebnerBasis and a JoinMeetIdeal, each with the values of its
    fields, in order."""
    R = xy_ring()
    jm = join_meet_ideal(pentagon())
    return [
        (GroebnerBasis, {"ring": R, "basis": R.gens()}),
        (JoinMeetIdeal, {name: getattr(jm, name) for name in FIELDS[JoinMeetIdeal]}),
    ]


def test_frozen_values_construct_by_position_or_keyword():
    for cls, values in frozen_values():
        by_keyword = cls(**values)
        by_position = cls(*values.values())
        assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
        assert list(vars(by_keyword)) == list(FIELDS[cls])
        first = FIELDS[cls][0]
        with pytest.raises(AttributeError):
            setattr(by_keyword, first, None)
        with pytest.raises(TypeError):
            cls(*list(values.values())[:-1])
        with pytest.raises(TypeError):
            cls(**values, unknown=1)
        with pytest.raises(TypeError):
            cls(*values.values(), 1)


@pytest.mark.parametrize(
    "cls",
    [GroebnerBasis, JoinMeetIdeal, ResidueColonReport, ClaimReport, Witness, Axiom3Failure,
     VerificationReport],
)
def test_a_field_given_by_position_and_by_keyword_is_refused(cls):
    values = report_fields(cls)
    first, *rest = FIELDS[cls]
    # as many arguments as fields, the first of them twice
    with pytest.raises(TypeError):
        cls(values[first], **{first: values[first]}, **{name: values[name] for name in rest[1:]})
    # every field, and the first once more
    with pytest.raises(TypeError):
        cls(values[first], **values)
    # as many keywords as fields, one of them unknown
    with pytest.raises(TypeError):
        cls(**{name: values[name] for name in rest}, unknown=1)

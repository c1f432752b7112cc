"""Ideal.with_linear against ideal(): the fast construction of a lift.

with_linear builds the lift (I, V) of an ideal I by linear forms V from
what I already knows: its nonlinear generators, its homogeneity and the
support mask of each of their terms.  Each lift here is compared with the
Ideal that ideal() builds from the same generators, reading every
generator: the two must be equal, hash alike and have the same cache key,
nonlinear generators and homogeneity, and the lift's split must be
_split_linear's, polynomial for polynomial.  A lift whose forms are all
single terms computes that split from the term masks, with no
_split_linear call; any other takes _split_linear itself.
"""

from conftest import cold_copy, enumerated_lattices
from joinmeet import groebner, poset_ideal_filtration, verify_filtration
from joinmeet.groebner import _split_linear, ideal
from joinmeet.hibi import join_meet_ideal, variable_ideal
from joinmeet.lattice import boolean, diamond, divisor_lattice


def _splits(monkeypatch):
    """The list of _split_linear calls made from here on."""
    calls = []

    def counted(gens):
        calls.append(gens)
        return _split_linear(gens)

    monkeypatch.setattr(groebner, "_split_linear", counted)
    return calls


def _check_lift(parent, forms, lift):
    """Assert that lift, parent.with_linear(forms), is the Ideal ideal()
    builds from parent's nonlinear generators and the forms."""
    assert all(g.is_linear_form() for g in forms)
    nonlinear = tuple(g for g in parent.generators if not g.is_linear_form())
    slow = ideal(parent.ring, nonlinear + tuple(forms))
    assert lift == slow and hash(lift) == hash(slow)
    assert lift.generators == slow.generators
    assert lift._gb_key == slow._gb_key
    assert lift._nonlinear == slow._nonlinear
    assert lift._homogeneous == slow._homogeneous
    assert lift._split == _split_linear(slow.generators)


def test_variable_lifts_match_ideal_on_small_lattices(monkeypatch):
    # every variable subset A of the 51 labelled lattices of at most 6
    # elements: the lift (I_L, x_A), and its lift by x_A and one more
    # variable, as a colon's target C is built from a lift
    lattices = enumerated_lattices(6)
    assert len(lattices) == 51
    calls = _splits(monkeypatch)
    lifts = 0
    for L in lattices:
        base = join_meet_ideal(cold_copy(L))
        root, x = base.ideal, base.variables
        for mask in range(1 << L.n):
            A = [x[a] for a in range(L.n) if mask >> a & 1]
            I = root.with_linear(A)
            _check_lift(root, A, I)
            for b in range(L.n):
                if not mask >> b & 1:
                    C = I.with_linear(A + [x[b]])
                    _check_lift(I, A + [x[b]], C)
                    lifts += 1
            J = variable_ideal(L, (a for a in range(L.n) if mask >> a & 1))
            assert J._span is None
            assert J.degree1() == tuple(_split_linear(J.linear_generators)[0])
            lifts += 1
    # the checks call _split_linear through their own import, which is not
    # counted; the lifts' own splits call it for none
    assert len(calls) == 0 and lifts == 8129 + sum(1 << L.n for L in lattices)


def test_every_lift_of_a_verification_matches_ideal(monkeypatch):
    # every with_linear call made while verifying the poset-ideal family of
    # divisor(60) and boolean(4): the members' lifts, the colons' targets C
    # (lifts of lifts) and each report's linear lift
    real = groebner.Ideal.with_linear
    made = []

    def checked(self, forms):
        forms = tuple(forms)
        lift = real(self, forms)
        made.append(self)
        _check_lift(self, forms, lift)
        return lift

    monkeypatch.setattr(groebner.Ideal, "with_linear", checked)
    for L in (divisor_lattice(60), boolean(4)):
        L = cold_copy(L)
        root = join_meet_ideal(L).ideal
        made.clear()
        assert verify_filtration(L, poset_ideal_filtration(L)).passed
        assert any(parent is root for parent in made)
        assert any(parent is not root for parent in made)


def test_a_multi_term_form_takes_the_generic_split(monkeypatch):
    # the diamond's y - z is no variable, so the lift's split is
    # _split_linear's own, with or without a variable beside it; a scaled
    # variable 2x is one term and takes the masks
    L = cold_copy(diamond())
    root = join_meet_ideal(L).ideal
    ring = root.ring
    calls = _splits(monkeypatch)
    for texts in (["y - z"], ["x", "y - z"], ["2*x"]):
        forms = [ring.parse(t) for t in texts]
        lift = root.with_linear(forms)
        calls.clear()
        lift._split
        assert len(calls) == any(len(g.terms) > 1 for g in forms), texts
        _check_lift(root, forms, lift)

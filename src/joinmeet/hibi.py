"""Join-meet ideals and the quotient calculus in H[L] = K[L]/I_L.

The cached JoinMeetIdeal of a lattice owns K[L]: it builds the ring, the
variables indexed by element and I_L.  Ring variable k belongs to element
L.linear_extension[k], so lattice_ring, variable, variable_ideal and
_elements_of all read one map between elements and variables.  A
ResidueIdeal keeps the JoinMeetIdeal it was built from, and its lift and
colons read I_L from there, so the cache is looked up once per ideal.

Residue-class ideals of H[L] are handled through their lifts (I_L, gens) in
K[L]; identity is always the reduced Groebner basis of the lift, never the
generator list, so two presentations of the same ideal compare equal.

colon_in_H is colon_element on the lift of J: it checks its input, makes one
engine call and builds one report, whose verdicts are read from the degree-1
part of the colon's reduced basis, a reduced echelon form.
colon_in_H_by_ideal is colon_in_H by the one generator g of I outside J's
lift, since J : I = J : g when I ⊆ J + (g); a Koszul filtration's axiom (3)
only asks for such a cyclic I/J.  claim_check reads colon_in_H's report for
the colon of a poset ideal at one of its maximal elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InputError
from .groebner import (
    GroebnerBasis,
    Ideal,
    colon_element,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
)
from .lattice import Lattice, PosetIdeal
from .poly import MonomialOrder, Ring


class NotLinear(InputError):
    """A generator that must be a linear form is not one."""


# ---------------------------------------------------------------------------
# K[L] and the join-meet ideal


@dataclass(frozen=True)
class JoinMeetIdeal:
    """K[L] and I_L, generated by one basic binomial per incomparable pair.

    ``variables[e]`` is the variable of element e.
    """

    lattice: Lattice
    ring: Ring
    variables: tuple
    generators: tuple

    @cached_property
    def ideal(self):
        """I_L as one Ideal, so its GB-cache key is built once."""
        return Ideal(self.ring, self.generators)


_JOIN_MEET_CACHE = {}


def join_meet_ideal(L):
    """Basic binomials ab - (a∨b)(a∧b), one per incomparable pair, in
    deterministic (linear extension) order, with their ring K[L].

    Built once per lattice; the first one stored is the one every caller
    gets (a dict setdefault, atomic under the GIL).
    """
    got = _JOIN_MEET_CACHE.get(L)
    if got is None:
        got = _JOIN_MEET_CACHE.setdefault(L, _build_join_meet_ideal(L))
    return got


def _build_join_meet_ideal(L):
    # degrevlex with the bottom smallest, so the leading term of every basic
    # binomial is the incomparable product ab
    order = MonomialOrder(tuple(range(L.n - 1, -1, -1)))
    ring = Ring(tuple(L.labels[e] for e in L.linear_extension), order)
    variables = [None] * L.n
    for e, x in zip(L.linear_extension, ring.gens()):
        variables[e] = x
    position = {e: k for k, e in enumerate(L.linear_extension)}
    pairs = sorted(
        (tuple(sorted((a, b), key=position.get)) for a, b in L.incomparable_pairs()),
        key=lambda p: (position[p[0]], position[p[1]]),
    )
    gens = tuple(
        variables[a] * variables[b] - variables[L.join(a, b)] * variables[L.meet(a, b)]
        for a, b in pairs
    )
    return JoinMeetIdeal(L, ring, tuple(variables), gens)


def lattice_ring(L):
    """K[L]: one variable per element, ordered by the fixed linear extension."""
    return join_meet_ideal(L).ring


def variable(L, element):
    """The variable of K[L] attached to a lattice element index."""
    return join_meet_ideal(L).variables[element]


def _elements_of(L, linear):
    """The element indices of monic linear forms that are all variables, else
    None."""
    elements = []
    for g in linear:
        if len(g.terms) != 1 or g.terms[0][1] != 1:
            return None
        elements.append(L.linear_extension[g.terms[0][0].index(1)])
    return frozenset(elements)


# ---------------------------------------------------------------------------
# residue-class ideals of H[L]


class ResidueIdeal:
    """An ideal of H[L] given by lifts of linear-form generators; ``base``
    is the JoinMeetIdeal of its lattice."""

    __slots__ = ("base", "lattice", "ring", "linear_generators", "_lift", "_gb")

    def __init__(self, base, generators):
        self.base = base
        self.lattice = base.lattice
        self.ring = ring = base.ring
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g:
                continue
            if not g.is_linear_form():
                raise NotLinear(f"{g} is not a linear form")
            gens.append(g)
        self.linear_generators = tuple(gens)
        self._lift = None
        self._gb = None

    @property
    def lift(self):
        """(I_L, generators) in K[L]."""
        if self._lift is None:
            self._lift = ideal(self.ring, self.base.generators + self.linear_generators)
        return self._lift

    def groebner(self):
        if self._gb is None:
            self._gb = groebner_basis(self.lift)
        return self._gb

    def semantic_key(self):
        return self.groebner().basis

    def degree1(self):
        """Canonical basis of the linear part of the lift (row-reduced by the
        monomial order; equals the span of the generators since I_L starts in
        degree 2)."""
        return self.groebner().degree1

    @property
    def dim(self):
        return len(self.degree1())

    def is_zero(self):
        return self.dim == 0

    def is_maximal(self):
        return self.dim == self.lattice.n

    def variable_set(self):
        """Element indices when the linear part is spanned by variables alone."""
        return _elements_of(self.lattice, self.degree1())

    def __eq__(self, other):
        if not isinstance(other, ResidueIdeal):
            return NotImplemented
        return self.lattice == other.lattice and self.semantic_key() == other.semantic_key()

    def __hash__(self):
        return hash((self.lattice, self.semantic_key()))

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.linear_generators)
        return f"({inner})"


def residue_ideal(L, generators):
    return ResidueIdeal(join_meet_ideal(L), generators)


def variable_ideal(L, elements):
    """The ideal of H[L] generated by the variables of the given elements,
    in element order."""
    base = join_meet_ideal(L)
    return ResidueIdeal(base, [base.variables[e] for e in sorted(elements)])


def zero_ideal(L):
    return residue_ideal(L, ())


def maximal_ideal(L):
    """m, the maximal graded ideal: all the variables."""
    return variable_ideal(L, range(L.n))


# ---------------------------------------------------------------------------
# colon ideals in H[L]


@dataclass
class ResidueColonReport:
    """Outcome of a colon computation in H[L], with generation verdicts.

    ``divisors`` holds the form the colon is taken by: (f,) for J : f, and
    (g,) for J : I with g the first generator of I outside J; for a unit
    colon J : I, with I inside J, it holds I's generators.  ``lift`` is the
    colon of the lifted ideals in K[L]; ``degree1`` its linear part;
    ``linear_generated`` says whether the colon equals (I_L, degree1);
    ``variable_generated`` additionally requires every element of
    ``degree1``, which is in reduced echelon form, to be a variable; those
    are recorded in ``variables`` (element indices).  ``whole_ring`` marks the
    unit ideal, which is never linear-generated.
    """

    lattice: Lattice
    divisors: tuple
    lift: Ideal
    groebner: GroebnerBasis
    degree1: tuple
    linear_generated: bool
    variable_generated: bool
    variables: object
    whole_ring: bool
    nonlinear_witness: object

    def semantic_key(self):
        return self.groebner.basis

    def as_residue_ideal(self):
        if not self.linear_generated:
            raise NotLinear("colon ideal is not generated by linear forms")
        return residue_ideal(self.lattice, self.degree1)

    def variable_labels(self):
        if self.variables is None:
            return None
        return sorted(self.lattice.labels[e] for e in self.variables)


def _colon_report(J, divisors, lifted):
    """The report of a colon ``lifted`` of J's lift, read against J's I_L."""
    L, base = J.lattice, J.base
    gb = groebner_basis(lifted)
    # the reduced basis holds the linear part in reduced echelon form, so
    # when that part is all variables, (I_L, degree1) is (I_L, variables)
    degree1 = gb.degree1
    # groebner._colon_by_linear_form builds its C from the same generator
    # set (I_L's generators and the colon's degree1), so this basis is
    # already cached; keep the two constructions in step
    linear_lift = ideal(base.ring, base.generators + degree1)
    linear_generated = ideal_equal(lifted, linear_lift)
    variables = _elements_of(L, degree1) if linear_generated else None
    witness = None
    if not linear_generated:
        nonlinear = (g for g in gb.basis if g.total_degree() >= 2)
        witness = next((g for g in nonlinear if not ideal_member(g, linear_lift)), None)
    return ResidueColonReport(
        lattice=L,
        divisors=divisors,
        lift=lifted,
        groebner=gb,
        degree1=degree1,
        linear_generated=linear_generated,
        variable_generated=variables is not None,
        variables=variables,
        whole_ring=any(g.total_degree() == 0 for g in gb.basis),
        nonlinear_witness=witness,
    )


def colon_in_H(J, f):
    """(J̄) : f̄ in H[L] for a linear form f, via the lifted colon in K[L]."""
    if isinstance(f, str):
        f = J.ring.parse(f)
    if not f:
        raise NotLinear("colon by the zero form")
    if not f.is_linear_form():
        raise NotLinear(f"{f} is not a linear form")
    lifted = colon_element(J.lift, f)
    return _colon_report(J, (f,), lifted)


def colon_in_H_by_ideal(J, I):
    """(J̄) : (Ī) in H[L] for a cyclic (Ī + J̄)/J̄: colon_in_H(J, g) for the
    first generator g of I outside J's lift.  With no generator outside, the
    colon is the whole ring; when some generator lies outside J + (g),
    ValueError."""
    if J.lattice != I.lattice:
        raise ValueError("colon of ideals over different lattices")
    outside = [g for g in I.linear_generators if not ideal_member(g, J.lift)]
    if not outside:
        return _colon_report(J, I.linear_generators, ideal(J.ring, (J.ring.one(),)))
    g = outside[0]
    if len(outside) > 1:
        step = ideal(J.ring, J.lift.generators + (g,))
        if not all(ideal_member(h, step) for h in outside[1:]):
            raise ValueError("the colon needs a cyclic I/J")
    return colon_in_H(J, g)


# ---------------------------------------------------------------------------
# the colon (J̄) : ē at a maximal element e of a poset ideal, as a checkable
# operation


@dataclass
class ClaimReport:
    """Verdicts for the colon (J̄) : ē with J = I ∖ {e}, e maximal in I."""

    lattice: Lattice
    ideal: PosetIdeal
    element: int
    linear_generated: bool
    span_matches: bool
    colon: ResidueColonReport
    pentagon_with_min_e: bool
    diamond_with_min_e: bool


def _span_matches(L, e, report):
    """Whether the linear part of the colon is span{a : a ≱ e}.  The reduced
    echelon form of a span of variables is those variables."""
    return _elements_of(L, report.degree1) == {a for a in range(L.n) if not L.le(e, a)}


def claim_check(L, I, e):
    """The report of (J̄) : ē for the poset ideal I (or its members), J = I ∖ {e},
    and a maximal element e of I: whether the colon is linear-generated, whether
    its linear part is span{a : a ≱ e}, and whether a pentagon or a diamond
    sublattice has e as its minimum."""
    members = I.members if hasattr(I, "members") else frozenset(I)
    I = L.poset_ideal(members)
    if e not in L.maximal_elements(I.members):
        raise InputError(f"{L.labels[e]!r} is not a maximal element of the ideal")
    J = variable_ideal(L, I.members - {e})
    report = colon_in_H(J, J.base.variables[e])
    return ClaimReport(
        lattice=L,
        ideal=I,
        element=e,
        linear_generated=report.linear_generated,
        span_matches=_span_matches(L, e, report),
        colon=report,
        # both iterators yield 5-tuples whose first entry is the sublattice minimum
        pentagon_with_min_e=any(sub[0] == e for sub in L.iter_pentagons()),
        diamond_with_min_e=any(sub[0] == e for sub in L.iter_diamonds()),
    )

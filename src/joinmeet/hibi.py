"""Join-meet ideals and the quotient calculus in H[L] = K[L]/I_L.

The JoinMeetIdeal of a lattice owns K[L]: it builds the ring, the
variables indexed by element and I_L.  It is cached in the lattice's own
_cache, and the ring holds the reduced bases of every ideal over it (see
groebner), so K[L], I_L and all their bases are freed with the lattice; an
equal lattice built apart builds its own.  Ring variable k belongs to element
L.linear_extension[k], so lattice_ring, variable_ideal and _elements_of
all read one map between elements and variables.  A ResidueIdeal keeps the
JoinMeetIdeal it was built from, and its lift and colons read I_L from
there, so the cache is looked up once per ideal.  Every lift (I_L, V), a
ResidueIdeal's and the linear lift a colon report compares against, is
I_L's Ideal.with_linear(V), so its reduced basis is cached once, on the
ring, keyed by the lift.

Residue-class ideals of H[L] are handled through their lifts (I_L, gens) in
K[L].  I_L is generated by the quadrics ab − (a∨b)(a∧b) (Hibi 1987), so the
linear part of a lift (I_L, V) is exactly V: two lifts are equal iff their
spans are, and a linear form lies in a lift iff it lies in the span.  A
linear-form ideal is therefore named by its span, in reduced echelon form,
never by its generator list, so two presentations of the same ideal compare
equal; the full reduced basis of a lift is computed only when a colon or a
nonlinear membership test needs it.

colon_in_H is colon_element on the lift of J: it checks its input, reads the
colon the engine keeps on the lift and builds one report, whose verdicts
are read from the degree-1 part of the colon's reduced basis, a reduced
echelon form.  A colon that is not generated by its linear part is kept
unreduced (see groebner), as a search reads only its verdict; its report
is built from its degree-1 part, and its reduced basis is built, through
colon_element, only when the report's lift is read.  When L is
distributive, J = (x_A) for a poset ideal A and f = c·x_e for a minimal
element e of L ∖ A, it tells the engine that I_L with x_A set to zero is
already a Groebner basis with x_e the smallest variable, so the colon runs
no Buchberger for it.  Ordering A's elements by the fixed linear extension,
then e, then the rest of L in that order, is again a linear extension, so
the basic binomials are a degrevlex Groebner basis with those variables
smallest first (Hibi 1987); setting the smallest variables x_A to zero keeps
a degrevlex Groebner basis (Bayer–Stillman 1987), and on monomials free of
x_A that order is K[L]'s with x_e moved last.  _substituted_basis checks the
five conditions exactly, cheapest first; on a distributive lattice every
colon that verify_filtration takes on the poset-ideal family passes them.
colon_in_H_by_ideal is colon_in_H by the one generator g of I outside J's
span, since J : I = J : g when I ⊆ J + (g); a Koszul filtration's axiom (3)
only asks for such a cyclic I/J, and its witness records the same g, chosen
by cyclic_generator, by support when J's span is spanned by variables and
by normal forms otherwise.  claim_check reads colon_in_H's report for the
colon of a poset ideal at one of its maximal elements.  degree2_move reads
the degree-2 part of a search move's colon off the join and meet tables,
with no ring: it rejects some moves and names the only target of the rest.
Modulo I_L, x_a·x_b ≡ x_{a∨b}·x_{a∧b}, so the degree-2 classes are the
fibres of (a, b) ↦ (a∨b, a∧b), and a move is rejected when two products
x_b·x_x share a class that is not zero.  Hence the check rejects some move
of L iff L is not distributive: L is distributive iff b∨x = b'∨x and
b∧x = b'∧x force b = b' (Birkhoff), and where that fails, b and b' are
incomparable to x and the move ({x}, x) puts x_b − x_b' in 0 : x_x.

JoinMeetIdeal is a frozen plain class, compared and hashed by its fields
(poly._Frozen); the reports ResidueColonReport and ClaimReport compare by
their fields and do not hash (poly._Record).
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError
from .groebner import (
    GroebnerBasis,
    Ideal,
    _kept_colon,
    _split_linear,
    colon_element,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    normal_form,
)
from .poly import MonomialOrder, Ring, _Frozen, _Record


class NotLinear(InputError):
    """A generator that must be a linear form is not one."""


# ---------------------------------------------------------------------------
# K[L] and the join-meet ideal


class JoinMeetIdeal(_Frozen):
    """K[L] and I_L, generated by one basic binomial per incomparable pair;
    frozen, and compared by its four fields (see poly._Frozen).

    ``variables[e]`` is the variable of element e.
    """

    _fields = ("lattice", "ring", "variables", "generators")

    @cached_property
    def ideal(self):
        """I_L as one Ideal, so its key in the ring's cache of bases is built
        once."""
        return Ideal(self.ring, self.generators)


def join_meet_ideal(L):
    """Basic binomials ab - (a∨b)(a∧b), one per incomparable pair, in
    deterministic (linear extension) order, with their ring K[L].

    Built once per lattice object and kept in L._cache, so it lives and
    dies with L; the first one stored is the one every caller gets (a dict
    setdefault, atomic under the GIL).
    """
    got = L._cache.get("join_meet_ideal")
    if got is None:
        got = L._cache.setdefault("join_meet_ideal", _build_join_meet_ideal(L))
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

    __slots__ = ("base", "lattice", "ring", "linear_generators", "_span", "_variables", "_lift")

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
        self._span = None
        self._variables = False
        self._lift = None

    @property
    def lift(self):
        """(I_L, generators) in K[L]."""
        if self._lift is None:
            self._lift = self.base.ideal.with_linear(self.linear_generators)
        return self._lift

    def semantic_key(self):
        """The span's reduced echelon form, degree1(): it names the ideal."""
        return self.degree1()

    def degree1(self):
        """The reduced echelon form of the span of the generators, computed
        once.  I_L is generated by quadrics, so this span is the whole linear
        part of the lift and determines the lift; the form equals the degree-1
        part of the lift's reduced basis, polynomial for polynomial, with no
        Buchberger run."""
        if self._span is None:
            self._span = tuple(_split_linear(self.linear_generators)[0])
        return self._span

    @property
    def dim(self):
        return len(self.degree1())

    def is_zero(self):
        return self.dim == 0

    def is_maximal(self):
        return self.dim == self.lattice.n

    def variable_set(self):
        """Element indices when the linear part is spanned by variables alone,
        else None; computed once."""
        if self._variables is False:
            self._variables = _elements_of(self.lattice, self.degree1())
        return self._variables

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
    in element order; its variable set is those elements, with no echelon
    form made to read it."""
    elements = frozenset(elements)
    base = join_meet_ideal(L)
    got = ResidueIdeal(base, [base.variables[e] for e in sorted(elements)])
    got._variables = elements
    return got


def maximal_ideal(L):
    """m, the maximal graded ideal: all the variables."""
    return variable_ideal(L, range(L.n))


# ---------------------------------------------------------------------------
# colon ideals in H[L]


class ResidueColonReport(_Record):
    """Outcome of a colon computation in H[L], with generation verdicts.

    ``divisors`` holds the form the colon is taken by: (f,) for J : f, and
    (g,) for J : I with g the first generator of I outside J; for a unit
    colon J : I, with I inside J, it holds I's generators.  ``lift`` is the
    colon of the lifted ideals in K[L]; ``degree1`` its linear part;
    ``linear_generated`` says whether the colon equals (I_L, degree1);
    ``variable_generated`` additionally requires every element of
    ``degree1``, which is in reduced echelon form, to be a variable; those
    are recorded in ``variables`` (element indices).  ``whole_ring`` marks the
    unit ideal, which is never linear-generated.  ``nonlinear_witness`` is a
    basis element of degree other than 1 outside (I_L, degree1): 1 for the
    unit ideal, as (I_L, degree1) is generated in positive degrees.  A
    linear-generated colon is named by ``degree1``, its span, as a
    ResidueIdeal is; only another colon is named by its reduced basis (see
    semantic_key).  Reports compare by their fields (see poly._Record).

    The report of a colon that the engine keeps unreduced (see colon_in_H)
    is built from its degree-1 part alone: it is neither linear- nor
    variable-generated, ``variables`` is None and it is not the unit ideal.
    Its ``lift``, ``groebner`` and ``nonlinear_witness`` fill on first read,
    as does every read through them (``semantic_key``, ``==``, the repr),
    with the values the report of the reduced colon holds.
    """

    _fields = (
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
    )

    @classmethod
    def _unreduced(cls, J, f, degree1):
        """The report of J : f when the colon is not generated by its linear
        part, whose reduced echelon form is degree1: lift, groebner and
        nonlinear_witness fill on first read."""
        report = cls.__new__(cls)
        vars(report).update(
            lattice=J.lattice,
            divisors=(f,),
            degree1=degree1,
            linear_generated=False,
            variable_generated=False,
            variables=None,
            whole_ring=False,
            _colon_of=(J, f),
        )
        return report

    # the fields an unreduced report fills on first read; a report built
    # with all its fields holds them in its __dict__, which these do not
    # override
    @cached_property
    def lift(self):
        J, f = self._colon_of
        return colon_element(J.lift, f)

    @cached_property
    def groebner(self):
        return groebner_basis(self.lift)

    @cached_property
    def nonlinear_witness(self):
        linear_lift = self._colon_of[0].base.ideal.with_linear(self.degree1)
        return _nonlinear_witness(self.groebner, linear_lift)

    def semantic_key(self):
        """The key of the colon's lift, comparable with ResidueIdeal's: a
        linear-generated colon is (I_L, degree1), named by its span like a
        ResidueIdeal; any other colon by its reduced basis, which holds a
        form of degree other than 1 and so equals no span."""
        return self.degree1 if self.linear_generated else self.groebner.basis

    def variable_labels(self):
        if self.variables is None:
            return None
        return sorted(self.lattice.labels[e] for e in self.variables)


def _nonlinear_witness(gb, linear_lift):
    """The first element of the reduced basis gb of degree other than 1
    outside linear_lift, or None."""
    nonlinear = (g for g in gb.basis if g.total_degree() != 1)
    return next((g for g in nonlinear if not ideal_member(g, linear_lift)), None)


def _colon_report(J, divisors, lifted):
    """The report of a colon ``lifted`` of J's lift, read against J's I_L."""
    L, base = J.lattice, J.base
    gb = groebner_basis(lifted)
    # the reduced basis holds the linear part in reduced echelon form, so
    # when that part is all variables, (I_L, degree1) is (I_L, variables)
    degree1 = gb.degree1
    linear_lift = base.ideal.with_linear(degree1)
    linear_generated = ideal_equal(lifted, linear_lift)
    variables = _elements_of(L, degree1) if linear_generated else None
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
        nonlinear_witness=None if linear_generated else _nonlinear_witness(gb, linear_lift),
    )


def colon_in_H(J, f):
    """(J̄) : f̄ in H[L] for a linear form f, via the lifted colon in K[L].
    A colon that the engine keeps unreduced, as it is not generated by its
    linear part, gets a report built from its degree-1 part, and no reduced
    basis is built until the report's lift is read."""
    if isinstance(f, str):
        f = J.ring.parse(f)
    if not f:
        raise NotLinear("colon by the zero form")
    if not f.is_linear_form():
        raise NotLinear(f"{f} is not a linear form")
    lift = J.lift
    substituted = _substituted_basis(J, f)
    colon = _kept_colon(lift, f, substituted)
    if not isinstance(colon, GroebnerBasis):
        return ResidueColonReport._unreduced(J, f, colon.degree1)
    return _colon_report(J, (f,), colon_element(lift, f, substituted_basis=substituted))


def _substituted_basis(J, f):
    """Whether L is distributive, J = (x_A) for a poset ideal A and f = c·x_e
    for an e outside A whose lower covers lie in A: then I_L with x_A set to
    zero is a Groebner basis with x_e last (see the module docstring)."""
    if len(f.terms) != 1:
        return False
    L = J.lattice
    A = J.variable_set()
    if A is None:
        return False
    e = L.linear_extension[f.terms[0][0].index(1)]
    return e not in A and L._lower[e] <= A and L.is_poset_ideal(A) and L.is_distributive()


def cyclic_generator(J, I):
    """The form J : I is taken by: the first generator g of I outside J's
    span, or None when I lies inside J.  A Koszul filtration's witness
    records g as the generator of the cyclic I/J.  When some generator lies
    outside J + (g), I/J is not cyclic, and ValueError."""
    if J.lattice != I.lattice:
        raise ValueError("colon of ideals over different lattices")
    # a linear form lies in J's lift iff it lies in J's span, and the span's
    # reduced echelon form is a Groebner basis of the ideal it generates,
    # packed once for every generator of I; a span of variables holds a form
    # exactly when it holds the form's support, and needs no basis
    A = J.variable_set()
    if A is None:
        span = GroebnerBasis(J.ring, J.degree1())
        outside = [g for g in I.linear_generators if normal_form(g, span)]
    else:
        element = J.lattice.linear_extension
        outside = [
            g for g in I.linear_generators if any(element[m.index(1)] not in A for m, _ in g.terms)
        ]
    if not outside:
        return None
    g = outside[0]
    if len(outside) > 1:
        span = GroebnerBasis(J.ring, J.degree1())
        # g's remainder leads with a variable that leads no row of the span,
        # so the rows and it are again an echelon form, of span(J) + (g)
        step = span.basis + (normal_form(g, span),)
        if any(normal_form(h, step) for h in outside[1:]):
            raise ValueError("the colon needs a cyclic I/J")
    return g


def degree2_move(L, mask, x):
    """The degree-2 check of the move x of the variable set mask, read off
    the join and meet tables alone: None when (I_L, x_A) : x_x, for A = mask
    ∖ {x}, cannot be generated by variables, else the bitmask of the only
    variable set it can be generated by.

    The degree-2 part of (I_L, x_A) is spanned by the basic binomials and
    the products that meet A (Hibi 1987).  Each binomial ab − (a∨b)(a∧b)
    joins an incomparable product to a comparable one, so the classes of
    the degree-2 monomials modulo I_L are the fibres of (a, b) ↦ (a∨b, a∧b):
    one comparable product and the incomparable ones with its join and
    meet.  Modulo x_A too, a class is zero when one of its products meets
    A.  A linear form Σ c_b x_b lies in the colon when Σ c_b x_b x_x is zero
    there, so the colon's linear part is x_A, x_b for each product x_b x_x
    in a zero class, and x_b − x_b' for two products in one nonzero class;
    with such a pair the colon is not generated by variables.  Whether it
    is (I_L, x_T) for the returned T depends on higher degrees, which only
    the colon decides.

    So the check rejects some move of L iff L is not distributive.  A
    lattice is distributive iff b∨x = b'∨x and b∧x = b'∧x force b = b'
    (Birkhoff, Lattice Theory), and the products x_b x_x and x_b' x_x share
    a class iff b and b' share that join and meet with x.  If the law fails
    at x with b ≠ b', both are incomparable to x, and the move ({x}, x) puts
    x_b − x_b' in 0 : x_x.

    A monomial x_a x_b is keyed by the bitmask of {a, b}, unique in degree
    2.  The fibre table maps the key of each comparable product (a∨b)(a∧b)
    to the union of the keys of its incomparable products; it is built once
    per lattice and kept in L._cache.  The key of the comparable product in
    x_b x_x's class is 1 << b∨x | 1 << b∧x, for b comparable to x and for
    b = x too.
    """
    fibres = L._cache.get("degree2_fibres")
    if fibres is None:
        join, meet = L._join, L._meet
        table = {}
        for a, b in L.incomparable_pairs():
            k = 1 << join[a][b] | 1 << meet[a][b]
            table[k] = table.get(k, 0) | 1 << a | 1 << b
        fibres = L._cache.setdefault("degree2_fibres", table)
    A = mask & ~(1 << x)
    join, meet = L._join[x], L._meet[x]
    target = A
    seen = set()
    for b in range(L.n):
        if not A >> b & 1:
            k = 1 << join[b] | 1 << meet[b]
            if k & A or fibres.get(k, 0) & A:
                target |= 1 << b
            elif k in seen:
                return None
            else:
                seen.add(k)
    return target


def colon_in_H_by_ideal(J, I):
    """(J̄) : (Ī) in H[L] for a cyclic (Ī + J̄)/J̄: colon_in_H(J, g) for
    g = cyclic_generator(J, I).  With no generator outside J, the colon is
    the whole ring; when some generator lies outside J + (g), ValueError."""
    g = cyclic_generator(J, I)
    if g is None:
        return _colon_report(J, I.linear_generators, ideal(J.ring, (J.ring.one(),)))
    return colon_in_H(J, g)


# ---------------------------------------------------------------------------
# the colon (J̄) : ē at a maximal element e of a poset ideal, as a checkable
# operation


class ClaimReport(_Record):
    """Verdicts for the colon (J̄) : ē with J = I ∖ {e}, e maximal in I,
    compared by their fields (see poly._Record)."""

    _fields = (
        "lattice",
        "ideal",
        "element",
        "linear_generated",
        "span_matches",
        "colon",
        "pentagon_with_min_e",
        "diamond_with_min_e",
    )


def _span_matches(L, e, report):
    """Whether the linear part of the colon is span{a : a ≱ e}.  The reduced
    echelon form of a span of variables is those variables."""
    return _elements_of(L, report.degree1) == {a for a in range(L.n) if not L.le(e, a)}


def claim_check(L, I, e):
    """The report of (J̄) : ē for the poset ideal I, any iterable of element
    indices, J = I ∖ {e}, and a maximal element e of I: whether the colon is
    linear-generated, whether its linear part is span{a : a ≱ e}, and whether
    a pentagon or a diamond sublattice has e as its minimum."""
    I = L.poset_ideal(I)
    if e not in L.maximal_elements(I):
        raise InputError(f"{L.labels[e]!r} is not a maximal element of the ideal")
    J = variable_ideal(L, I - {e})
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

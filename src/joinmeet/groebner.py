"""Buchberger-based Groebner engine.

Normal forms, reduced bases, and the ideal calculus (equality, and colons
and intersections by a linear form) that backs every "one can check"
equality in the package.  Ideals here are tiny (tens of generators, ~10
variables), so the classic algorithm with the coprime and chain criteria is
enough; the next S-pair is always the one with the smallest lcm, so the
smallest degree first.

The kernel (division, S-polynomials, Buchberger's pair queue and
reduce_basis's lead test) works on packed-integer degrevlex monomials: the
codec of the ring (poly._Codec) packs a monomial into one int whose order
as an int is degrevlex, so a product is an addition, a quotient a
subtraction, and the largest term is max() with no key.  A ring under any
other order has no codec, and every kernel entry refuses it with
TypeError.  Divisibility and lcm are the borrow trick on per-variable
fields with a guard bit.  Exponent tuples stay the public form: a divisor
is packed once, into a lead row kept on the polynomial, a polynomial to
divide is packed per division (an S-polynomial arrives with its row), and
remainders and S-polynomials leave the kernel unpacked.  A monomial too
wide for the fields is caught by the guard bits, never wraps, and makes the
public call widen the ring's codec and run again from its inputs; the
result does not depend on the width.

Ideal and GroebnerBasis are frozen plain classes (poly._Frozen), compared
and hashed by ring and generators or basis; their cached properties fill
their __dict__ on first use.

Division reads its divisors as one type, _Divisors: the polynomials, the
codec and one lead-table row per nonzero polynomial, in order, with the
support and fields of its leading monomial, the packed leading monomial and
coefficient, and the packed tail terms.  A GroebnerBasis caches its
divisors on first use and packs them again only after the ring's codec has
widened, and an Ideal builds its cache key once, from generators that
each keep their own hash, so repeated queries against one basis or one
Ideal object pay neither again.
A plain sequence is packed per division.  A list that grows between
divisions (Buchberger's basis, the elements reduce_basis has kept, the
echelon form of linear generators) is a _Divisors list from the start, and
adds a row as each element is appended.  A lead whose support is not inside
a term's support cannot divide it and is skipped with one AND; the first
dividing lead in order does the division.  Division by a monic lead skips
the coefficient quotient, and an S-polynomial is formed from the two tails
in one pass.

groebner_basis caches each reduced basis on the ring object of its ideal,
keyed by the ideal's set of generators, so the cache is freed with the ring
(for K[L], with its lattice, see hibi).  No module-level cache holds a ring
or a basis, and an equal ring built apart starts with no bases.

Membership sums normal forms of single monomials: modulo a Groebner basis
the normal form is linear, so f ∈ I iff Σ c·NF(x^m) over f's terms is zero.
A GroebnerBasis keeps each form normal_form computes for ideal_member, so a
stream of queries divides each distinct monomial once per basis.

Buchberger's pair queue orders pairs by their packed lcms, which sort by
degree, then in the ring's order, and ties by creation.  Two leads are
coprime iff their supports are disjoint, and then their lcm is their
product, the sum of the packed leads.  The treated pairs are one bitmask per
basis element, and the chain criterion tests against the lcm only the leads
whose pairs with both ends are treated, with the borrow trick.

Linear generators are split off before Buchberger runs: their reduced basis
is a row echelon form, and substituting it out of the other generators leaves
a smaller system in the remaining variables.  An Ideal keeps that split, its
nonlinear generators and its homogeneity once computed, so the colons of one
ideal by several forms compute them once.  Ideal.with_linear is the one
construction of an ideal's nonlinear generators plus given linear forms, so
every lift (I_L, V) has one generator set, and so one cache key.

Every colon is a colon by one linear form l, and every intersection is
I ∩ (l) = l·(I : l) for a homogeneous I.  Modulo the linear generators of I,
l = c·x + r for a variable x; the linear automorphism φ: x ↦ l gives
I : l = φ(φ⁻¹(I) : x), and φ⁻¹(I) : x comes from a degrevlex basis with x as
the smallest variable (Bayer–Stillman 1987; Eisenbud, Commutative Algebra,
Prop. 15.12), with no extra variable.  The ring with x last is built once
per ring object and variable and kept in the ring's _last, so its codec and
key cache serve every colon by x, and it is freed with the ring.  When that
colon is generated by I's nonlinear generators and its linear part, it is
C = I.with_linear((I : l)_1), whose cached reduced basis is returned with no
second Buchberger run; for I = (I_L, x_R) that is the basis hibi's colon
report reads next.  intersect and the colon take an Ideal, never a bare
generator list.

A caller that knows more than the engine may skip the x-last Buchberger run:
colon_element, intersect and the colon take substituted_basis, off by
default, the caller's word that I's nonlinear generators with its linear
part substituted out are already a Groebner basis with x last.  Then the
colon takes them as the basis, since Buchberger would add nothing to them,
and divides by x those that x divides term by term: for a homogeneous
element that is whether x divides its lead with x last, so the division
stays in the ring's own order and builds no x-last ring.  The test against
C and the fallback run as before.  hibi gives that word for a colon of
(I_L, x_A) by x_e with L distributive, A a poset ideal and e a minimal
element of L ∖ A: A's elements in the fixed linear extension, then e, then
the rest of L in that order, is again a linear extension, so I_L's basic
binomials are a degrevlex Groebner basis with those variables smallest
first (Hibi 1987), and setting the smallest variables x_A to zero keeps a
degrevlex Groebner basis (Bayer–Stillman 1987).  No generator then has a
term in x_A, and the ring with x_e last orders the remaining monomials as
that order does.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from itertools import combinations
from operator import add, le, sub

from .poly import ONE, MonomialOrder, Polynomial, Ring, _Frozen, _Overflow


class ZeroDivisorArgument(ValueError):
    """Colon by zero is undefined."""


class Ideal(_Frozen):
    """A finitely generated ideal, frozen (see poly._Frozen).

    ``==`` and the hash are structural: they read the ring and the generator
    tuple, so ``Ideal(R, (x, y)) != Ideal(R, (y, x))``.  ``ideal_equal`` is
    the semantic test, by reduced Groebner bases.
    """

    _fields = ("ring", "generators")

    def __init__(self, ring, generators):
        for g in generators:
            if g.ring is not ring and g.ring != ring:
                raise ValueError("generator from a different ring")
        d = self.__dict__
        d["ring"] = ring
        d["generators"] = generators

    @cached_property
    def _gb_key(self):
        """The key of this ideal's reduced basis in its ring's cache of
        bases: the set of generators, each of which keeps its own hash, so
        generators shared between ideals (I_L's) are hashed once."""
        return frozenset(self.generators)

    @cached_property
    def _split(self):
        """_split_linear of the generators, kept for every colon by a form."""
        return _split_linear(self.generators)

    @cached_property
    def _nonlinear(self):
        """The nonzero generators that are not linear forms."""
        return tuple(g for g in self.generators if g and not g.is_linear_form())

    @cached_property
    def _homogeneous(self):
        """Whether every generator is homogeneous."""
        return all(g.is_homogeneous() for g in self.generators)

    def with_linear(self, forms):
        """This ideal's nonlinear generators plus the linear forms given: for
        I_L, the lift (I_L, V) of a linear-form ideal of H[L]."""
        return ideal(self.ring, self._nonlinear + tuple(forms))


def ideal(ring, gens):
    return Ideal(ring, tuple(g for g in gens if g))


class GroebnerBasis(_Frozen):
    """A tuple of polynomials over ring, frozen and compared by ring and
    basis (see poly._Frozen); the cached properties below fill on use."""

    _fields = ("ring", "basis")

    def __init__(self, ring, basis):
        d = self.__dict__
        d["ring"] = ring
        d["basis"] = basis

    def __iter__(self):
        return iter(self.basis)

    @cached_property
    def _divisors(self):
        """normal_form's divisors: the basis packed by the ring's codec on
        first use, and by _divisors_of again after that codec has widened."""
        return _Divisors(_codec_of(self.ring), self.basis)

    @cached_property
    def _forms(self):
        """ideal_member's normal forms of single monomials, filled on use."""
        return {}

    @cached_property
    def degree1(self):
        """The basis elements of degree 1.  For a reduced basis of a
        homogeneous ideal they span its whole linear part and are in reduced
        row echelon form with respect to the variable order."""
        return tuple(g for g in self.basis if g.total_degree() == 1)


# ---------------------------------------------------------------------------
# division


def _codec_of(ring):
    """ring's codec; only a degrevlex ring has one, and others are refused."""
    if ring._codec is None:
        raise TypeError(f"the Groebner kernel computes under degrevlex only, not {ring.order!r}")
    return ring._codec


def _row(codec, lm, lc, tail):
    """A lead-table row: the support of the packed leading monomial lm (the
    guard bits of its nonzero fields), its fields, lm, the leading
    coefficient (None when it is 1) and the packed tail terms."""
    e = -lm & codec.mask
    H = codec.guard
    return (((e | H) - codec.ones) & H, e, lm, None if lc == 1 else lc, tail)


def _lead_row(f, codec):
    """The lead-table row of a nonzero f for codec, kept on f, so that each
    polynomial is packed once per codec."""
    kept = f._packed
    if kept is not None and kept[0] is codec:
        return kept[1]
    pack = codec.pack
    (lm, lc), tail = f.terms[0], f.terms[1:]
    row = _row(codec, pack(lm), lc, [(pack(m), c) for m, c in tail])
    f._packed = (codec, row)
    return row


class _Divisors(list):
    """A list of divisors with their lead table for codec: rows holds the
    row of each nonzero element, in order, and grows as elements are
    appended."""

    __slots__ = ("codec", "rows")

    def __init__(self, codec, polys=()):
        super().__init__(polys)
        self.codec = codec
        # one comprehension: a list grown by appends over-allocates, and
        # every cached basis keeps its rows
        self.rows = [_lead_row(g, codec) for g in self if g]

    def append(self, g):
        super().append(g)
        if g:
            self.rows.append(_lead_row(g, self.codec))

    def divides(self, e):
        """Whether the lead of some element divides the monomial with
        fields e."""
        codec = self.codec
        H = codec.guard
        x = e | H
        outside = ((x - codec.ones) & H) ^ H
        return any(not row[0] & outside and (x - row[1]) & H == H for row in self.rows)


def _divisors_of(G, codec):
    """G as divisors packed by codec: a _Divisors list itself, a
    GroebnerBasis's cached one, packed again once the ring's codec has
    widened, else a new one."""
    if isinstance(G, _Divisors):
        return G
    if isinstance(G, GroebnerBasis):
        divisors = G._divisors
        if divisors.codec.width != codec.width:
            divisors = vars(G)["_divisors"] = _Divisors(codec, G.basis)
        return divisors
    return _Divisors(codec, G)


def _remainder_terms(f, G, codec):
    """The packed terms of f's remainder under division by G, largest first.
    A step on the term m = q·lm adds q·t for tail terms t < lm, all below m,
    so a term no lead divides is final once it is the largest left.

    A term whose guard bits are set raises _Overflow when it is reached,
    before any lead is tested against it."""
    if not f:
        return
    rows = _divisors_of(G, codec).rows
    mask, H, ones = codec.mask, codec.guard, codec.ones
    kept = f._packed
    if kept is not None and kept[0] is codec:
        _, _, lm, lc, tail = kept[1]
        work = dict(tail)
        work[lm] = ONE if lc is None else lc
    else:
        pack = codec.pack
        work = {pack(m): c for m, c in f.terms}
    while work:
        m = max(work)
        c = work.pop(m)
        x = -m & mask
        if x & H:
            raise _Overflow(codec.width)
        x |= H
        # a lead with a variable outside m's support is skipped at once
        outside = ((x - ones) & H) ^ H
        for support, e, lm, lc, tail in rows:
            if not support & outside and (x - e) & H == H:
                q = m - lm
                qc = c if lc is None else c / lc
                for mg, cg in tail:
                    mm = q + mg
                    v = work.get(mm)
                    v = -qc * cg if v is None else v - qc * cg
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            yield m, c


def _widening(ring, run, *args):
    """run(codec, *args) with ring's codec, widened and run again until no
    monomial overflows it."""
    while True:
        try:
            return run(_codec_of(ring), *args)
        except _Overflow as exc:
            ring._widen(exc.width)


def normal_form(f, G):
    """Remainder of f under division by G (full tail reduction).

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in (G).  For a Groebner basis the remainder is canonical.

    The largest remaining term is divided by the first element of G, in G's
    order, whose leading monomial divides it, so the remainder is a function
    of the sequence G even when G is not a Groebner basis (as inside
    Buchberger).  G's leads are read from its lead-table rows (see the
    module docstring).  Each remainder term is final when reached, since
    every later step works below it, so the terms come out in order and need
    no sort.

    When a monomial outgrows the codec's fields, f's ring gets a wider codec
    and the division runs again; a _Divisors list keeps its codec, so its
    owner runs again instead.
    """
    if isinstance(G, _Divisors):
        # its rows are its nonzero elements
        return _normal_form(G.codec, f, G) if f and G.rows else f
    if not f or not any(G):
        return f
    return _widening(f.ring, _normal_form, f, G)


def _normal_form(codec, f, G):
    unpack = codec.unpack
    return Polynomial(f.ring, tuple([(unpack(m), c) for m, c in _remainder_terms(f, G, codec)]))


def divide_exact(f, g):
    """Quotient f/g when g divides f exactly (members of (g) always do).

    A monomial g divides term by term, which keeps f's term order.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    lm, lc = g.leading_term()
    if len(g.terms) == 1:
        if not all(all(map(le, lm, m)) for m, _ in f.terms):
            raise ArithmeticError("inexact polynomial division")
        return Polynomial(
            ring, tuple((tuple(map(sub, m, lm)), c if lc == 1 else c / lc) for m, c in f.terms)
        )
    key = ring.key
    work = dict(f.terms)
    quotient = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not all(map(le, lm, m)):
            raise ArithmeticError("inexact polynomial division")
        q = tuple(map(sub, m, lm))
        qc = c / lc
        quotient[q] = qc
        for mg, cg in g.terms[1:]:
            mm = tuple(map(add, q, mg))
            v = work.get(mm)
            v = -qc * cg if v is None else v - qc * cg
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return ring.from_dict(quotient)


def s_polynomial(f, g):
    """x^a·f/lc(f) − x^b·g/lc(g), with x^a·lm(f) = x^b·lm(g) = lcm of the
    leads.  The leading terms cancel, so it is formed from the two tails in
    one dict, x^a·tail(f)/lc(f) − x^b·tail(g)/lc(g), dividing only by a
    leading coefficient other than 1.  Monomials are packed: x^a·m is a sum."""
    return _widening(f.ring, _s_polynomial, f, g)


def _s_polynomial(codec, f, g):
    _, ef, lmf, lcf, tf = _lead_row(f, codec)
    _, eg, lmg, lcg, tg = _lead_row(g, codec)
    lcm = codec.lcm(ef, eg)
    a = lcm - lmf
    b = lcm - lmg
    work = {a + m: c if lcf is None else c / lcf for m, c in tf}
    for m, c in tg:
        if lcg is not None:
            c = c / lcg
        mm = b + m
        v = work.get(mm)
        v = -c if v is None else v - c
        if v:
            work[mm] = v
        else:
            del work[mm]
    if not work:
        return f.ring.zero()
    terms = [(m, work[m]) for m in sorted(work, reverse=True)]
    unpack = codec.unpack
    s = Polynomial(f.ring, tuple([(unpack(m), c) for m, c in terms]))
    # normal_form reads the packed terms next, unless a sum of two packed
    # monomials overflowed a field: such a term is packed again, and refused
    mask, H = codec.mask, codec.guard
    if not any(-m & mask & H for m, _ in terms):
        s._packed = (codec, _row(codec, *terms[0], terms[1:]))
    return s


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens, ring=None):
    """Complete gens to a Groebner basis.

    The next S-pair is the one with the smallest packed lcm: smallest degree
    first, then in the ring's order, ties broken by creation.

    The basis is a _Divisors list, so each remainder is divided by a lead
    table that grows with the basis; every element is nonzero, so row k of
    the table is basis[k]'s.  The pair tests read the supports and packed
    leads of those rows, and each queued pair carries its packed lcm: two
    leads are coprime iff their supports are disjoint, and then the lcm is
    the sum of the packed leads, with no fold.  done[i] is the bitmask of
    the j whose pair with i is treated, so the chain criterion tests by the
    borrow trick only the leads k with bit k set in done[i] & done[j].  A
    monomial that outgrows the codec's fields starts the run again with
    wider fields.
    """
    gens = list(gens)
    monic = [g.monic() for g in gens if g]
    if not monic:
        if ring is None and gens:
            ring = gens[0].ring
        if ring is None:
            raise ValueError("an empty generator list needs an explicit ring")
        return GroebnerBasis(ring, ())
    ring = monic[0].ring
    return GroebnerBasis(ring, _widening(ring, _buchberger, monic))


def _buchberger(codec, monic):
    basis = _Divisors(codec, monic)
    rows = basis.rows
    mask, H, ones = codec.mask, codec.guard, codec.ones
    lcm_of = codec.lcm

    def lcm(a, b):
        # the lcm of coprime leads is their product, a sum when packed
        return lcm_of(a[1], b[1]) if a[0] & b[0] else a[2] + b[2]

    # a packed lcm sorts by degree, then in the ring's order, and no two
    # entries share a counter, so a heapified list pops as pushes would
    n = len(basis)
    pairs = [
        (lcm(rows[i], rows[j]), k, i, j) for k, (i, j) in enumerate(combinations(range(n), 2))
    ]
    heapq.heapify(pairs)
    counter = len(pairs)
    # done[i] has bit j set once the pair of i and j is treated
    done = [0] * n
    while pairs:
        lcm_ij, _, i, j = heapq.heappop(pairs)
        done[i] |= 1 << j
        done[j] |= 1 << i
        if not rows[i][0] & rows[j][0]:
            continue  # coprime leading monomials: S-polynomial reduces to zero
        # chain criterion, only against a k whose pairs with i and j are both
        # treated: a break leaves common nonzero
        common = done[i] & done[j]
        if common:
            x = -lcm_ij & mask | H
            outside = ((x - ones) & H) ^ H
            while common:
                low = common & -common
                row = rows[low.bit_length() - 1]
                if not row[0] & outside and (x - row[1]) & H == H:
                    break
                common ^= low
            if common:
                continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            done.append(0)
            new = len(basis) - 1
            row = rows[new]
            for k in range(new):
                heapq.heappush(pairs, (lcm(rows[k], row), counter, k, new))
                counter += 1
    return tuple(basis)


def reduce_basis(gb):
    """The unique reduced basis: monic, minimal, pairwise tail-reduced."""
    basis = gb.basis if isinstance(gb, GroebnerBasis) else tuple(gb)
    if not (basis or isinstance(gb, GroebnerBasis)):
        raise ValueError("an empty generator list needs an explicit ring")
    ring = gb.ring if isinstance(gb, GroebnerBasis) else basis[0].ring
    key = ring.key
    polys = sorted((g.monic() for g in basis if g), key=lambda g: key(g.leading_monomial()))
    return GroebnerBasis(ring, _widening(ring, _reduce, polys))


def _reduce(codec, polys):
    # leads of a minimal basis divide no other lead, so tail reduction fixes
    # every lead and one pass is the fixpoint.  A lead that divides a term
    # of g is at most that term, below g's lead, so only the elements kept
    # before g in lead order can reduce it, and g is reduced as it is kept
    kept = _Divisors(codec)
    for g in polys:
        if not kept.divides(_lead_row(g, codec)[1]):
            kept.append(normal_form(g, kept))
    return tuple(kept)


def _split_linear(gens):
    """The reduced basis of the linear forms among gens, and the other
    generators with that basis substituted out (zeros dropped).

    The reduced basis of linear forms is their reduced row echelon form.  The
    substituted generators avoid its leading variables, so no S-pair between
    the two parts needs reducing: their leading monomials are coprime.

    When every linear form is one term c·x_v, as in a lift (I_L, x_R), the
    echelon form is those variables, monic and in lead order, and
    substituting it out drops the terms whose support meets theirs.  A
    generator that is already monic, or that keeps all its terms, is
    returned itself, so the splits an Ideal keeps share gens' polynomials.
    """
    linear = []
    rest = []
    for g in gens:
        if g:
            (linear if g.is_linear_form() else rest).append(g)
    if not linear:
        return [], rest
    ring = linear[0].ring
    if all(len(g.terms) == 1 for g in linear):
        monic = {g.terms[0][0]: g for g in linear if g.terms[0][1] == 1}
        leads = sorted({g.terms[0][0] for g in linear}, key=ring.key)
        killed = [m.index(1) for m in leads]
        kept = []
        for g in rest:
            terms = tuple(t for t in g.terms if not any(map(t[0].__getitem__, killed)))
            if len(terms) == len(g.terms):
                kept.append(g)
            elif terms:
                kept.append(Polynomial(ring, terms))
        return [monic.get(m) or Polynomial(ring, ((m, ONE),)) for m in leads], kept
    echelon = _Divisors(_codec_of(ring))
    for g in linear:
        r = normal_form(g, echelon)
        if r:
            echelon.append(r.monic())
    echelon = reduce_basis(echelon)
    rest = [r for r in (normal_form(g, echelon) for g in rest) if r]
    return list(echelon.basis), rest


def _reduced_basis(gens, ring):
    """The reduced basis of (gens), uncached: the linear part joined with the
    reduced basis of the substituted rest."""
    linear, rest = _split_linear(gens)
    gb = reduce_basis(buchberger(rest, ring=ring))
    if not linear:
        return gb
    if any(sum(g.leading_monomial()) <= 1 for g in gb.basis):
        # a constant or a leading variable can still reduce the linear part
        return reduce_basis(GroebnerBasis(ring, tuple(linear) + gb.basis))
    key = ring.key
    joined = sorted(linear + list(gb.basis), key=lambda g: key(g.leading_monomial()))
    return GroebnerBasis(ring, tuple(joined))


def groebner_basis(I):
    """Reduced Groebner basis of I, cached on I's ring object.

    The cache is the ring's ``_bases``, keyed by I's set of generators, so it
    is freed with the ring; an equal ring built apart does not share it.
    Each cache access is one dict get or setdefault, atomic under the GIL, so
    threads may share the cache; two threads that miss on one key both
    compute the basis, and the first stored is kept.
    """
    bases = I.ring._bases
    key = I._gb_key
    got = bases.get(key)
    if got is not None:
        return got
    return bases.setdefault(key, _reduced_basis(I.generators, I.ring))


# ---------------------------------------------------------------------------
# ideal calculus


def ideal_member(f, I):
    """Whether f lies in I: whether Σ c·NF(x^m) over f's terms, f's
    remainder, is zero, with each monomial's form kept on the basis.  f is
    scaled by the lcm of its denominators, which leaves membership unchanged,
    so over forms with integer coefficients the sum is integer arithmetic."""
    if f.ring is not I.ring and f.ring != I.ring:
        raise ValueError("mixed rings")
    gb = groebner_basis(I)
    forms = gb._forms
    # a list: a starred generator raised member-bench peak RSS by 0.7 MB
    scale = math.lcm(*[c.denominator for _, c in f.terms])
    acc = {}
    for m, c in f.terms:
        form = forms.get(m)
        if form is None:
            form = forms[m] = tuple(
                (mm, cc.numerator if cc.denominator == 1 else cc)
                for mm, cc in normal_form(Polynomial(f.ring, ((m, ONE),)), gb).terms
            )
        c = c.numerator * (scale // c.denominator)
        for mm, cc in form:
            acc[mm] = acc.get(mm, 0) + c * cc
    return not any(acc.values())


def ideal_equal(I, J):
    return groebner_basis(I).basis == groebner_basis(J).basis


def intersect(I, J, *, substituted_basis=False):
    """I ∩ (l) for a homogeneous Ideal I and the Ideal J = (l) of one linear
    form l: l times the reduced basis of I : l (_colon_by_linear_form), which
    is registered in the ring's cache as the basis of the colon.  Any other
    pair raises ValueError.  substituted_basis is passed to the colon (see
    the module docstring).
    """
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    if len(J.generators) != 1 or not J.generators[0].is_linear_form():
        raise ValueError("intersect needs J generated by one linear form")
    if not I._homogeneous:
        raise ValueError("intersect needs a homogeneous I")
    ring = I.ring
    l = J.generators[0]
    colon = _colon_by_linear_form(I, l, substituted_basis=substituted_basis)
    ring._bases.setdefault(ideal(ring, colon.basis)._gb_key, colon)
    return ideal(ring, tuple(l * g for g in colon.basis))


def _same(m):
    return m


def _ring_with_last(ring, v):
    """The variables of ring under degrevlex, in ring's priority but with
    variable v moved to the end (the smallest): ring itself when v is already
    last, else a ring built once and kept in ring._last."""
    last = ring._last.get(v)
    if last is None:
        priority = tuple(p for p in ring.order.priority if p != v) + (v,)
        if priority == ring.order.priority:
            return ring
        last = ring._last.setdefault(v, Ring(ring.names, MonomialOrder(priority)))
    return last


def _substitute(f, v, image):
    """f with variable v replaced by the polynomial image."""
    powers = [f.ring.one()]
    acc = {}
    for m, c in f.terms:
        while len(powers) <= m[v]:
            powers.append(powers[-1] * image)
        for mm, cc in powers[m[v]].shift(m[:v] + (0,) + m[v + 1 :], c).terms:
            acc[mm] = acc.get(mm, 0) + cc
    return f.ring.from_dict(acc)


def _colon_by_linear_form(I, l, *, substituted_basis=False):
    """Reduced basis of I : l, for a homogeneous Ideal I and a linear form l.

    1. Split off the linear generators of I as their reduced basis (row
       echelon form) and substitute it out of the rest and out of l.  If l
       reduces to 0 it lies in I and the colon is the unit ideal.  Else it
       reduces to l = c·x + r for its leading variable x.  When r ≠ 0, the
       linear automorphism φ: x ↦ l of the remaining variables gives
       I : l = φ(φ⁻¹(I) : x), so x ↦ (x − r)/c is substituted into the rest
       and x ↦ l back into the quotients of step 2.
    2. In degrevlex with x last, divide by x every element of a Groebner
       basis that x divides: that is a basis of the colon by x
       (Bayer-Stillman 1987; Eisenbud, Commutative Algebra, Prop. 15.12).
       With substituted_basis the substituted generators are that basis,
       and Buchberger does not run; the elements are homogeneous, so x
       divides one's x-last lead iff it divides every term, and they are
       divided in ring's own order, with no x-last ring.
    3. Map back.  C = I + (I : l)_1, the nonlinear generators of I with the
       reduced echelon form of I's linear part and the linear quotients,
       lies inside I : l.  If no quotient is a constant and every quotient
       reduces to 0 modulo C's reduced basis, then I : l = C, and that
       cached basis is the answer.  Otherwise add the linear generators to
       the quotients and reduce in ring's own order.
    """
    ring = I.ring
    _codec_of(ring)  # refuse a ring the kernel cannot pack before any work
    linear, rest = I._split
    l = normal_form(l, linear)
    if not l:
        return GroebnerBasis(ring, (ring.one(),))
    (lead, c), r = l.terms[0], Polynomial(ring, l.terms[1:])
    v = lead.index(1)
    x = Polynomial(ring, ((lead, ONE),))
    if r:
        rest = [_substitute(g, v, (x - r) * (1 / c)) for g in rest]
    if substituted_basis:
        # x divides the x-last lead of a homogeneous element iff it divides
        # every term, a test that needs no x-last ring
        quotients = [divide_exact(g, x) if all(m[v] for m, _ in g.terms) else g for g in rest]
    else:
        ring_x = _ring_with_last(ring, v)
        var = ring_x.var(ring.names[v])
        if ring_x is not ring:
            rest = [g.map_exponents(ring_x, _same) for g in rest]
        gb = buchberger(rest, ring=ring_x)
        quotients = [divide_exact(g, var) if g.leading_monomial()[v] else g for g in gb.basis]
        if ring_x is not ring:
            quotients = [q.map_exponents(ring, _same) for q in quotients]
    if r:
        quotients = [_substitute(q, v, l) for q in quotients]
    if all(q.total_degree() > 0 for q in quotients):
        degree1, higher = _split_linear(linear + quotients)
        C = I.with_linear(degree1)
        # a quotient and its substituted form differ by a member of C
        if all(ideal_member(q, C) for q in higher):
            return groebner_basis(C)
    # the quotients may include linear forms, which split off in turn
    return _reduced_basis(linear + quotients, ring)


def colon_element(I, f, *, substituted_basis=False):
    """I : f = { g : g·f ∈ I } for a homogeneous I and a linear form f,
    computed as (1/f) · (I ∩ (f)).

    intersect's generators are f times the reduced basis of the colon, so the
    quotients here are that basis and the cache already holds it.  Any other
    I or f raises ValueError, as in intersect.  substituted_basis is passed
    to the colon (see the module docstring).
    """
    if not f:
        raise ZeroDivisorArgument("colon by the zero polynomial")
    inter = intersect(I, ideal(I.ring, (f,)), substituted_basis=substituted_basis)
    return ideal(I.ring, tuple(divide_exact(g, f) for g in inter.generators))

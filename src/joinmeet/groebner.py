"""Buchberger-based Groebner engine.

Normal forms, reduced bases, and the ideal calculus (equality, sums, and
colons and intersections by a linear form) that backs every "one can check"
equality in the package.  Ideals here are tiny (tens of generators, ~10
variables), so the classic algorithm with the coprime and chain criteria is
enough; pair selection follows the normal strategy (smallest lcm degree
first).

Division reads the divisors from a lead table: one row per nonzero divisor,
in order, with the support bitmask of its leading monomial, the leading
monomial and coefficient, and the tail terms.  A GroebnerBasis builds its
table once, on first use, and an Ideal hashes its generators into its cache
key once, so repeated queries against one basis or one Ideal object pay
neither again.  A list that grows between divisions (Buchberger's basis,
the elements reduce_basis has kept, the echelon form of linear generators)
is a _Divisors list, which adds a row as each element is appended.  A lead
whose support is not inside a term's support cannot divide it and is
skipped before the exponents are compared; the first dividing lead in order
still does the division.  Division by a monic lead skips the coefficient
quotient, and an S-polynomial is formed from the two tails in one pass.

Membership sums normal forms of single monomials: modulo a Groebner basis
the normal form is linear, so f ∈ I iff Σ c·NF(x^m) over f's terms is zero.
A GroebnerBasis keeps each form normal_form computes for ideal_member, so a
stream of queries divides each distinct monomial once per basis.

Buchberger's pair tests read the same support bitmasks: two leads are
coprime iff their supports are disjoint, and the chain criterion compares
exponents only for a lead whose support lies inside that of the pair's lcm,
which each queued pair carries.

Linear generators are split off before Buchberger runs: their reduced basis
is a row echelon form, and substituting it out of the other generators leaves
a smaller system in the remaining variables.

Every colon is a colon by one linear form l, and every intersection is
I ∩ (l) = l·(I : l) for a homogeneous I.  Modulo the linear generators of I,
l = c·x + r for a variable x; the linear automorphism φ: x ↦ l gives
I : l = φ(φ⁻¹(I) : x), and φ⁻¹(I) : x comes from a degrevlex basis with x as
the smallest variable (Bayer–Stillman 1987; Eisenbud, Commutative Algebra,
Prop. 15.12), with no extra variable.  When that colon is generated by I's
nonlinear generators and its linear part, it is C = I + (I : l)_1, whose
cached reduced basis is returned with no second Buchberger run; for
I = (I_L, x_R) that is the basis hibi's colon report reads next.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import add, le, sub

from .poly import ONE, MonomialOrder, Polynomial, Ring


class ZeroDivisorArgument(ValueError):
    """Colon by zero is undefined."""


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal.

    ``==`` is structural: it compares the generator tuples, so
    ``Ideal(R, (x, y)) != Ideal(R, (y, x))``.  ``ideal_equal`` is the semantic
    test, by reduced Groebner bases.
    """

    ring: Ring
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.ring != self.ring:
                raise ValueError("generator from a different ring")

    @cached_property
    def _gb_key(self):
        """The key of this ideal's reduced basis in the GB cache: the ring and
        the set of generators, hashed once per instance."""
        return (self.ring, frozenset(g.terms for g in self.generators))


def ideal(ring, gens):
    return Ideal(ring, tuple(g for g in gens if g))


@dataclass(frozen=True)
class GroebnerBasis:
    ring: Ring
    basis: tuple
    reduced: bool = False

    def __iter__(self):
        return iter(self.basis)

    @cached_property
    def _table(self):
        """normal_form's lead table of the basis, built on first use."""
        return _lead_table(self.basis)

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
# monomial helpers


def _divides(a, b):
    return all(map(le, a, b))


def _sub(a, b):
    return tuple(map(sub, a, b))


def _lcm(a, b):
    return tuple(map(max, a, b))


def _add(a, b):
    return tuple(map(add, a, b))


# ---------------------------------------------------------------------------
# division


def _bits(nvars):
    return [1 << i for i in range(nvars)]


def _lead_row(g, bits):
    """The lead-table row of a nonzero g: the support bitmask of its leading
    monomial, the leading monomial, the leading coefficient and the tail
    terms."""
    return (sum(compress(bits, g.terms[0][0])), *g.terms[0], g.terms[1:])


def _lead_table(G):
    """One row per nonzero element of G, in G's order."""
    G = [g for g in G if g]
    if not G:
        return []
    bits = _bits(G[0].ring.nvars)
    # a list comprehension: a tuple built from a generator here raised the
    # peak RSS of a divisor(36) search by about 0.6 MB (3%)
    return [_lead_row(g, bits) for g in G]


class _Divisors(list):
    """A list of divisors over ring whose lead table grows with it: each
    nonzero element appended adds its row."""

    def __init__(self, ring):
        super().__init__()
        self._bits = _bits(ring.nvars)
        self._table = []

    def append(self, g):
        super().append(g)
        if g:
            self._table.append(_lead_row(g, self._bits))

    def divides(self, m):
        """Whether the lead of some element divides the monomial m."""
        outside = ~sum(compress(self._bits, m))
        return any(not s & outside and _divides(lm, m) for s, lm, _, _ in self._table)


def _remainder_terms(f, G):
    """The terms of f's remainder under division by G, largest first.  A
    step on the term m = q·lm adds q·t for tail terms t < lm, all below m,
    so a term no lead divides is final once it is the largest left."""
    table = G._table if isinstance(G, (GroebnerBasis, _Divisors)) else _lead_table(G)
    key = f.ring.key
    bits = _bits(f.ring.nvars)
    work = dict(f.terms)
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        outside = ~sum(compress(bits, m))
        for support, lm, lc, tail in table:
            if not support & outside and _divides(lm, m):
                q = _sub(m, lm)
                qc = c if lc == 1 else c / lc
                for mg, cg in tail:
                    mm = _add(q, mg)
                    v = work.get(mm)
                    v = -qc * cg if v is None else v - qc * cg
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            yield m, c


def normal_form(f, G):
    """Remainder of f under division by G (full tail reduction).

    No term of the result is divisible by any leading monomial of G, and
    f - result lies in (G).  For a Groebner basis the remainder is canonical.

    The largest remaining term is divided by the first element of G, in G's
    order, whose leading monomial divides it, so the remainder is a function
    of the sequence G even when G is not a Groebner basis (as inside
    Buchberger).  G's leads are read from a lead table (see the module
    docstring).  Each remainder term is final when reached, since every later
    step works below it, so the terms come out in order and need no sort.
    """
    if not f or not any(G):
        return f
    return Polynomial(f.ring, tuple(_remainder_terms(f, G)))


def divide_exact(f, g):
    """Quotient f/g when g divides f exactly (members of (g) always do).

    A monomial g divides term by term, which keeps f's term order.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    lm, lc = g.leading_term()
    if len(g.terms) == 1:
        if not all(_divides(lm, m) for m, _ in f.terms):
            raise ArithmeticError("inexact polynomial division")
        return Polynomial(
            ring, tuple((_sub(m, lm), c if lc == 1 else c / lc) for m, c in f.terms)
        )
    key = ring.key
    work = dict(f.terms)
    quotient = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not _divides(lm, m):
            raise ArithmeticError("inexact polynomial division")
        q = _sub(m, lm)
        qc = c / lc
        quotient[q] = qc
        for mg, cg in g.terms[1:]:
            mm = _add(q, mg)
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
    leading coefficient other than 1."""
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = _lcm(lmf, lmg)
    a = _sub(lcm, lmf)
    b = _sub(lcm, lmg)
    work = {_add(a, m): c if lcf == 1 else c / lcf for m, c in f.terms[1:]}
    for m, c in g.terms[1:]:
        if lcg != 1:
            c = c / lcg
        mm = _add(b, m)
        v = work.get(mm)
        v = -c if v is None else v - c
        if v:
            work[mm] = v
        else:
            del work[mm]
    return f.ring.from_dict(work)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(gens, strategy="normal", ring=None):
    """Complete gens to a Groebner basis.

    ``strategy`` picks the next S-pair: "normal" takes the smallest lcm
    (degree first), "first" processes pairs in creation order.  Both reach the
    same reduced basis after reduce_basis; the acceptance suite relies on
    that agreement.

    The basis is a _Divisors list, so each remainder is divided by a lead
    table that grows with the basis; every element is nonzero, so row k of
    the table is basis[k]'s.  The pair tests read the support bitmasks and
    leads of those rows, and each queued pair carries its lcm: two leads are
    coprime iff their supports are disjoint, and the chain criterion
    compares exponents only for leads whose support lies inside the lcm's.
    """
    if strategy not in ("normal", "first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    gens = list(gens)
    monic = [g.monic() for g in gens if g]
    if not monic:
        if ring is None and gens:
            ring = gens[0].ring
        if ring is None:
            raise ValueError("an empty generator list needs an explicit ring")
        return GroebnerBasis(ring, ())
    ring = monic[0].ring
    key = ring.key
    basis = _Divisors(ring)
    table = basis._table
    pairs = []
    counter = 0

    def push(i, j):
        nonlocal counter
        lcm = _lcm(table[i][1], table[j][1])
        if strategy == "normal":
            entry = (sum(lcm), key(lcm), counter, i, j, lcm)
        else:
            entry = (counter, 0, 0, i, j, lcm)
        heapq.heappush(pairs, entry)
        counter += 1

    for g in monic:
        basis.append(g)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)

    done = set()
    while pairs:
        *_, i, j, lcm = heapq.heappop(pairs)
        done.add((i, j))
        support_i = table[i][0]
        support_j = table[j][0]
        if not support_i & support_j:
            continue  # coprime leading monomials: S-polynomial reduces to zero
        outside = ~(support_i | support_j)
        skip = False
        for k, (support, lm, _, _) in enumerate(table):
            if support & outside or k == i or k == j or not _divides(lm, lcm):
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a in done and b in done:
                skip = True  # chain criterion, only against treated pairs
                break
        if skip:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            new = len(basis) - 1
            for k in range(new):
                push(k, new)
    return GroebnerBasis(ring, tuple(basis))


def reduce_basis(gb):
    """The unique reduced basis: monic, minimal, pairwise tail-reduced."""
    basis = gb.basis if isinstance(gb, GroebnerBasis) else tuple(gb)
    ring = gb.ring if isinstance(gb, GroebnerBasis) else basis[0].ring
    key = ring.key
    polys = sorted((g.monic() for g in basis if g), key=lambda g: key(g.leading_monomial()))
    # leads of a minimal basis divide no other lead, so tail reduction fixes
    # every lead and one pass is the fixpoint.  A lead that divides a term
    # of g is at most that term, below g's lead, so only the elements kept
    # before g in lead order can reduce it, and g is reduced as it is kept
    kept = _Divisors(ring)
    for g in polys:
        if not kept.divides(g.terms[0][0]):
            kept.append(normal_form(g, kept))
    return GroebnerBasis(ring, tuple(kept), reduced=True)


_GB_CACHE = {}


def _split_linear(gens):
    """The reduced basis of the linear forms among gens, and the other
    generators with that basis substituted out (zeros dropped).

    The reduced basis of linear forms is their reduced row echelon form.  The
    substituted generators avoid its leading variables, so no S-pair between
    the two parts needs reducing: their leading monomials are coprime.

    When every linear form is one term c·x_v, as in a lift (I_L, x_R), the
    echelon form is those variables, monic and in lead order, and
    substituting it out drops the terms whose support meets theirs.
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
        leads = sorted({g.terms[0][0] for g in linear}, key=ring.key)
        bits = _bits(ring.nvars)
        killed = sum(1 << m.index(1) for m in leads)
        kept = []
        for g in rest:
            terms = tuple(t for t in g.terms if not sum(compress(bits, t[0])) & killed)
            if terms:
                kept.append(Polynomial(ring, terms))
        return [Polynomial(ring, ((m, ONE),)) for m in leads], kept
    echelon = _Divisors(ring)
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
    return GroebnerBasis(ring, tuple(joined), reduced=True)


def groebner_basis(I):
    """Reduced Groebner basis of I, shared through a cache.

    Each cache access is one dict get or setdefault, atomic under the GIL, so
    threads may share the cache; two threads that miss on one key both
    compute the basis, and the first stored is kept.
    """
    key = I._gb_key
    got = _GB_CACHE.get(key)
    if got is not None:
        return got
    return _GB_CACHE.setdefault(key, _reduced_basis(I.generators, I.ring))


def _register_gb(I, gb):
    _GB_CACHE.setdefault(I._gb_key, gb)


def clear_cache():
    _GB_CACHE.clear()


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


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    return ideal(I.ring, I.generators + J.generators)


def intersect(I, J):
    """I ∩ (l) for a homogeneous I and J = (l), l one linear form: l times
    the reduced basis of I : l (_colon_by_linear_form), which is registered
    in the cache as the basis of the colon.  Any other pair raises
    ValueError.
    """
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    if len(J.generators) != 1 or not J.generators[0].is_linear_form():
        raise ValueError("intersect needs J generated by one linear form")
    if not all(g.is_homogeneous() for g in I.generators):
        raise ValueError("intersect needs a homogeneous I")
    ring = I.ring
    l = J.generators[0]
    colon = _colon_by_linear_form(I, l)
    _register_gb(ideal(ring, colon.basis), colon)
    return ideal(ring, tuple(l * g for g in colon.basis))


def _same(m):
    return m


def _ring_with_last(ring, v):
    """The variables of ring under degrevlex, in ring's priority but with
    variable v moved to the end (the smallest)."""
    priority = tuple(p for p in ring.order.priority if p != v) + (v,)
    order = MonomialOrder(priority)
    if order == ring.order:
        return ring
    return Ring(ring.names, order)


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


def _colon_by_linear_form(I, l):
    """Reduced basis of I : l, for homogeneous I and a linear form l.

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
    3. Map back.  C = I + (I : l)_1, the nonlinear generators of I with the
       reduced echelon form of I's linear part and the linear quotients,
       lies inside I : l.  If no quotient is a constant and every quotient
       reduces to 0 modulo C's reduced basis, then I : l = C, and that
       cached basis is the answer.  Otherwise add the linear generators to
       the quotients and reduce in ring's own order.

    C's generators are built to match the ``linear_lift`` of
    hibi._colon_report (I_L's generators and the colon's degree1), so that
    for I = (I_L, x_R) C's basis is the cache entry the report reads next,
    whichever branch returns.  If the two constructions drift apart, results
    stay the same but that saving is lost; a test in test_colon_routes
    counts the report's Buchberger runs to catch it.
    """
    ring = I.ring
    linear, rest = _split_linear(I.generators)
    l = normal_form(l, linear)
    if not l:
        return GroebnerBasis(ring, (ring.one(),), reduced=True)
    (lead, c), r = l.terms[0], Polynomial(ring, l.terms[1:])
    v = lead.index(1)
    if r:
        x = Polynomial(ring, ((lead, ONE),))
        rest = [_substitute(g, v, (x - r) * (1 / c)) for g in rest]
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
        nonlinear = tuple(g for g in I.generators if g and not g.is_linear_form())
        C = ideal(ring, nonlinear + tuple(degree1))
        # a quotient and its substituted form differ by a member of C
        if all(ideal_member(q, C) for q in higher):
            return groebner_basis(C)
    # the quotients may include linear forms, which split off in turn
    return _reduced_basis(linear + quotients, ring)


def colon_element(I, f):
    """I : f = { g : g·f ∈ I } for a homogeneous I and a linear form f,
    computed as (1/f) · (I ∩ (f)).

    intersect's generators are f times the reduced basis of the colon, so the
    quotients here are that basis and the cache already holds it.  Any other
    I or f raises ValueError, as in intersect.
    """
    if not f:
        raise ZeroDivisorArgument("colon by the zero polynomial")
    inter = intersect(I, ideal(I.ring, (f,)))
    return ideal(I.ring, tuple(divide_exact(g, f) for g in inter.generators))

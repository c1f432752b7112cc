"""Koszul filtrations of H[L]: axiom verification, the poset-ideal family,
and exhaustive search for combinatorial filtrations.

Cyclicity of I/J for linear-form ideals reduces to linear algebra: since the
degree-1 part of a lift (I_L, gens) is exactly the span of the generators,
I/J is cyclic with J ⊊ I iff span(J) sits inside span(I) with codimension
one.  J = I is excluded: axiom (3) would pair it with J : I = H[L], which is
never a member.

The poset-ideal family and the search build their members with
variable_ideal.  The search deletes subsets with no viable move until a round
deletes none; the moves chosen in that round are the witness closure's, so
the closure walks them without a second scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InputError
from .hibi import (
    ResidueIdeal,
    _claim_colon,
    _span_matches,
    colon_in_H,
    colon_in_H_by_ideal,
    join_meet_ideal,
    residue_ideal,
    variable_ideal,
)
from .lattice import Lattice, PosetIdeal


class MalformedFamily(InputError):
    """Two members of the family are semantically the same ideal."""


class CapExceeded(InputError):
    """The lattice is larger than the configured search cap."""


@dataclass
class FiltrationSpec:
    """An ordered family of linear-form ideals of H[L].

    ``combinatorial`` records whether every member is generated by residue
    classes of variables.
    """

    lattice: Lattice
    members: tuple
    combinatorial: bool

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def member_keys(self):
        return {m.semantic_key(): i for i, m in enumerate(self.members)}


def filtration(L, members):
    """Build a FiltrationSpec; semantically duplicate members are rejected."""
    ideals = []
    for m in members:
        if not isinstance(m, ResidueIdeal):
            m = residue_ideal(L, m)
        ideals.append(m)
    seen = {}
    for i, m in enumerate(ideals):
        key = m.semantic_key()
        if key in seen:
            raise MalformedFamily(
                f"members {seen[key]} and {i} present the same ideal {m!r}"
            )
        seen[key] = i
    combinatorial = all(m.variable_set() is not None for m in ideals)
    return FiltrationSpec(L, tuple(ideals), combinatorial)


# ---------------------------------------------------------------------------
# verification


@dataclass
class Witness:
    """Axiom-(3) witness for one member: the chosen J, the cyclic generator,
    and which member equals J : I."""

    member_index: int
    member: ResidueIdeal
    j_index: int
    j: ResidueIdeal
    cyclic_generator: object
    colon_member_index: int
    colon: object  # ResidueColonReport


@dataclass
class Axiom3Failure:
    member_index: int
    member: ResidueIdeal
    no_candidates: bool
    tried: list  # (j_index, reason, detail)


@dataclass
class VerificationReport:
    """Per-axiom verdicts with witnesses (pass) or diagnostics (fail)."""

    lattice: Lattice
    passed: bool
    axiom1_ok: bool
    axiom1_failures: list
    axiom2_ok: bool
    has_zero: bool
    has_maximal: bool
    axiom3_ok: bool
    witnesses: list
    axiom3_failures: list

    def replay(self, family):
        """Recompute every witness colon; a pass report must replay to pass."""
        if not self.passed:
            return False
        keys = family.member_keys()
        nonzero = [i for i, m in enumerate(family.members) if not m.is_zero()]
        covered = {w.member_index for w in self.witnesses}
        if set(nonzero) != covered:
            return False
        for w in self.witnesses:
            rep = colon_in_H_by_ideal(w.j, w.member)
            if keys.get(rep.semantic_key()) != w.colon_member_index:
                return False
        return True


def _coefficient_rows(polys, ring):
    """Coefficient rows of linear forms, one column per variable of ring."""
    rows = []
    for p in polys:
        row = [Fraction(0)] * ring.nvars
        for m, c in p.terms:
            row[m.index(1)] = c
        rows.append(row)
    return rows


def verify_filtration(L, family):
    """Check the three Koszul-filtration axioms for the given family.

    Axiom (1) by construction plus re-check; axiom (2) by semantic membership
    of 0 and m; axiom (3) by searching, for each nonzero member I, a member
    J of codimension one inside I whose colon J : I is again a member.
    """
    members = family.members
    keys = family.member_keys()
    if len(keys) != len(members):
        raise MalformedFamily("family holds semantically duplicate ideals")

    axiom1_failures = [
        (i, g)
        for i, m in enumerate(members)
        for g in m.linear_generators
        if not g.is_linear_form()
    ]
    axiom1_ok = not axiom1_failures

    has_zero = any(m.is_zero() for m in members)
    has_maximal = any(m.is_maximal() for m in members)
    axiom2_ok = has_zero and has_maximal

    witnesses = []
    failures = []
    spans = {
        i: linalg.rref(_coefficient_rows(m.degree1(), m.ring)) for i, m in enumerate(members)
    }
    for i, member in enumerate(members):
        if member.is_zero():
            continue
        dim = member.dim
        candidates = [
            (j, other)
            for j, other in enumerate(members)
            if other.dim == dim - 1
            and linalg.row_space_contains(spans[i], spans[j])
        ]
        found = None
        tried = []
        for j, other in candidates:
            report = colon_in_H_by_ideal(other, member)
            target = keys.get(report.semantic_key())
            if target is not None:
                gen = next(
                    g
                    for g in member.linear_generators
                    if not linalg.in_row_space(
                        spans[j], _coefficient_rows([g], member.ring)[0]
                    )
                )
                found = Witness(i, member, j, other, gen, target, report)
                break
            if not report.linear_generated:
                tried.append((j, "colon-not-linear", report.nonlinear_witness))
            else:
                tried.append((j, "colon-not-member", report.degree1))
        if found is not None:
            witnesses.append(found)
        else:
            failures.append(Axiom3Failure(i, member, not candidates, tried))
    axiom3_ok = not failures

    return VerificationReport(
        lattice=L,
        passed=axiom1_ok and axiom2_ok and axiom3_ok,
        axiom1_ok=axiom1_ok,
        axiom1_failures=axiom1_failures,
        axiom2_ok=axiom2_ok,
        has_zero=has_zero,
        has_maximal=has_maximal,
        axiom3_ok=axiom3_ok,
        witnesses=witnesses,
        axiom3_failures=failures,
    )


# ---------------------------------------------------------------------------
# the poset-ideal family


def poset_ideal_filtration(L):
    """One member per poset ideal of L, generated by its variables."""
    members = [variable_ideal(L, s.members) for s in L.poset_ideals()]
    return FiltrationSpec(L, tuple(members), combinatorial=True)


# ---------------------------------------------------------------------------
# exhaustive search for combinatorial filtrations


DEFAULT_SEARCH_CAP = 12


def search_combinatorial(L, cap=DEFAULT_SEARCH_CAP):
    """Greatest-fixpoint search over all variable subsets of L.

    A subset S admits the move x ∈ S when (S∖{x}) : x is again generated by
    variables, with target set T(S, x).  Subsets with no move whose pieces
    both survive are deleted until stable.  If the full set survives, the
    witness closure of {L} plus the empty set is returned (it passes
    verify_filtration); otherwise no combinatorial Koszul filtration exists,
    because deletion only ever removes subsets that cannot belong to any
    valid family.  Each survivor records its first viable move; the last
    round deletes nothing, so those moves build the witness closure.
    """
    n = L.n
    if n > cap:
        raise CapExceeded(f"|L| = {n} exceeds the search cap {cap}")
    full = (1 << n) - 1
    variables = join_meet_ideal(L).variables

    ideal_of = {}

    def subset_ideal(mask):
        got = ideal_of.get(mask)
        if got is None:
            got = ideal_of[mask] = variable_ideal(L, (a for a in range(n) if mask >> a & 1))
        return got

    moves = {}

    def move(mask, x):
        got = moves.get((mask, x))
        if got is None:
            rep = colon_in_H(subset_ideal(mask & ~(1 << x)), variables[x])
            if rep.variable_generated:
                target = 0
                for a in rep.variables:
                    target |= 1 << a
                got = (True, target)
            else:
                got = (False, None)
            moves[(mask, x)] = got
        return got

    survivors = set(range(1 << n))
    choice = {}  # mask -> (rest, target) of its first viable move
    while True:
        doomed = []
        for mask in survivors:
            if mask == 0:
                continue
            for x in range(n):
                if not mask >> x & 1:
                    continue
                rest = mask & ~(1 << x)
                if rest not in survivors:
                    continue
                ok, target = move(mask, x)
                if ok and target in survivors:
                    choice[mask] = (rest, target)
                    break
            else:
                doomed.append(mask)
        if not doomed:
            break
        survivors.difference_update(doomed)

    if full not in survivors:
        return None

    # witness closure: smallest certifying family reachable from the full set
    closure = {0, full}
    stack = [full]
    while stack:
        for piece in choice[stack.pop()]:
            if piece not in closure:
                closure.add(piece)
                stack.append(piece)
    members = [subset_ideal(m) for m in sorted(closure, key=lambda m: (bin(m).count("1"), m))]
    return FiltrationSpec(L, tuple(members), combinatorial=True)


# ---------------------------------------------------------------------------
# the non-linearity of (J : e) at a forbidden sublattice, as a checkable operation


@dataclass
class ClaimReport:
    """Verdicts for the colon (J̄) : ē with J = I ∖ {e}, e maximal in I."""

    lattice: Lattice
    ideal: PosetIdeal
    element: int
    linear_generated: bool
    span_matches: bool
    colon: object  # ResidueColonReport
    pentagon_with_min_e: bool
    diamond_with_min_e: bool


def claim_check(L, I, e):
    I, report = _claim_colon(L, I, e)
    # both iterators yield 5-tuples whose first entry is the sublattice minimum
    pent = any(sub[0] == e for sub in L.iter_pentagons())
    diam = any(sub[0] == e for sub in L.iter_diamonds())
    return ClaimReport(
        lattice=L,
        ideal=I,
        element=e,
        linear_generated=report.linear_generated,
        span_matches=_span_matches(L, e, report),
        colon=report,
        pentagon_with_min_e=pent,
        diamond_with_min_e=diam,
    )

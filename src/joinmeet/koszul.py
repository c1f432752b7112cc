"""Koszul filtrations of H[L]: axiom verification, the poset-ideal family,
and exhaustive search for combinatorial filtrations.

Cyclicity of I/J for linear-form ideals reduces to linear algebra: since the
degree-1 part of a lift (I_L, gens) is exactly the span of the generators,
I/J is cyclic with J ⊊ I iff span(J) sits inside span(I) with codimension
one.  Each member's span is row-reduced once, and every containment test
reduces against it.  colon_in_H_by_ideal takes J : I as the colon by the
first generator g of I outside J, and a witness records that g as I/J's
cyclic generator.  J = I is excluded: axiom (3) would pair it with
J : I = H[L], which is never a member.

The poset-ideal family and the search build their members with
variable_ideal.  The search decides from the full set first: it walks each
reached subset's first valid move.  When every subset reached has one, the
reached set is a post-fixed point of the deletion, so it is the greatest
fixpoint's witness closure, found with about one colon per member.  Only at
a subset with no valid move does it run the greatest fixpoint over all 2^n
subsets, unseeded and sharing the walk's memoised moves.  The fixpoint
scans the subsets in increasing mask order and deletes each one with no
surviving move as soon as it is found, so a move whose piece S∖{x} is
already dead is passed over without a colon; one helper picks a subset's
first move for the walk, the fixpoint scans and the closure.

An automorphism σ of L preserves ∨ and ∧, so it fixes I_L and maps variable
ideals to variable ideals: move(σR, σx) = σ·move(R, x).  Each colon the
search makes is therefore filed under the whole orbit of its (subset,
variable) pair, walked with the generators of Aut(L); the moves, and so the
family, are those of the search without it.  A certified none on M3-on-M3
(|Aut| = 36) makes 17 colons: 630 with neither the orbits nor the in-place
deletion, 158 with the orbits alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import InputError
from .hibi import (
    ResidueIdeal,
    colon_in_H,
    colon_in_H_by_ideal,
    join_meet_ideal,
    residue_ideal,
    variable_ideal,
)
from .lattice import Lattice


class MalformedFamily(InputError):
    """Two members of the family are semantically the same ideal."""


class CapExceeded(InputError):
    """The lattice is larger than the configured search cap."""


@dataclass
class FiltrationSpec:
    """An ordered family of linear-form ideals of H[L].

    ``keys`` maps each member's semantic key to its index; two members that
    present the same ideal raise MalformedFamily.  ``combinatorial`` records
    whether every member is generated by residue classes of variables.
    """

    lattice: Lattice
    members: tuple
    keys: dict = field(init=False, repr=False)
    combinatorial: bool = field(init=False)

    def __post_init__(self):
        self.keys = {}
        for i, m in enumerate(self.members):
            j = self.keys.setdefault(m.semantic_key(), i)
            if j != i:
                raise MalformedFamily(f"members {j} and {i} present the same ideal {m!r}")
        self.combinatorial = all(m.variable_set() is not None for m in self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def filtration(L, members):
    """Build a FiltrationSpec, coercing each member to a ResidueIdeal."""
    return FiltrationSpec(
        L, tuple(m if isinstance(m, ResidueIdeal) else residue_ideal(L, m) for m in members)
    )


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
        keys = family.keys
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


def _support(rows):
    """The bitmask of the columns where some row is nonzero."""
    return sum(1 << k for k, column in enumerate(zip(*rows)) if any(column))


def verify_filtration(L, family):
    """Check the three Koszul-filtration axioms for the given family.

    Axiom (1) by construction plus re-check; axiom (2) by semantic membership
    of 0 and m; axiom (3) by searching, for each nonzero member I, a member
    J of codimension one inside I whose colon J : I is again a member.
    """
    members = family.members
    keys = family.keys

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
    # each member's span, row-reduced once for every containment test
    spans = {
        i: linalg.rref(_coefficient_rows(m.degree1(), m.ring)) for i, m in enumerate(members)
    }
    # a span holds a row only if its support holds the row's support
    supports = {i: _support(rows) for i, rows in spans.items()}
    for i, member in enumerate(members):
        if member.is_zero():
            continue
        dim = member.dim
        candidates = [
            (j, other)
            for j, other in enumerate(members)
            if other.dim == dim - 1
            and not supports[j] & ~supports[i]
            and linalg.row_space_contains(spans[i], spans[j])
        ]
        found = None
        tried = []
        for j, other in candidates:
            report = colon_in_H_by_ideal(other, member)
            target = keys.get(report.semantic_key())
            if target is not None:
                found = Witness(i, member, j, other, report.divisors[0], target, report)
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
    return FiltrationSpec(L, tuple(variable_ideal(L, s.members) for s in L.poset_ideals()))


# ---------------------------------------------------------------------------
# exhaustive search for combinatorial filtrations


DEFAULT_SEARCH_CAP = 12


def _image_table(sigma):
    """Per byte of a bitmask, the images under sigma of its values: row k maps
    the value of bits 8k..8k+7 to the mask of their images."""
    rows = []
    for low in range(0, len(sigma), 8):
        row = [0]
        for a in range(low, min(low + 8, len(sigma))):
            bit = 1 << sigma[a]
            row += [r | bit for r in row]
        rows.append(row)
    return rows


def _image(table, mask):
    """The bitmask of the images of the elements in mask, read byte by byte
    from an _image_table."""
    out = 0
    for row in table:
        out |= row[mask & 255]
        mask >>= 8
    return out


def _search_moves(L):
    """The search's memoised (subset_ideal, move) for L, on bitmasks of
    element indices.

    move(mask, x) is the target set of mask's move x, or None if the move is
    not valid.  One colon decides the whole Aut(L) orbit of (mask, x): each
    generator carries a filed pair and its target to another pair and
    target, through the generator's image table.  The memo is a union of
    orbits, so the orbit of a pair outside it is new.
    """
    n = L.n
    variables = join_meet_ideal(L).variables
    generators = [(sigma, _image_table(sigma)) for sigma in L.automorphism_generators()]
    ideal_of = {}

    def subset_ideal(mask):
        got = ideal_of.get(mask)
        if got is None:
            got = ideal_of[mask] = variable_ideal(L, (a for a in range(n) if mask >> a & 1))
        return got

    moves = {}

    def move(mask, x):
        if (mask, x) not in moves:
            rep = colon_in_H(subset_ideal(mask & ~(1 << x)), variables[x])
            target = sum(1 << a for a in rep.variables) if rep.variable_generated else None
            moves[(mask, x)] = target
            stack = [(mask, x)]
            while stack:
                pair = stack.pop()
                got = moves[pair]
                for sigma, table in generators:
                    seen = (_image(table, pair[0]), sigma[pair[1]])
                    if seen not in moves:
                        moves[seen] = None if got is None else _image(table, got)
                        stack.append(seen)
        return moves[(mask, x)]

    return subset_ideal, move


def search_combinatorial(L, cap=DEFAULT_SEARCH_CAP):
    """Search the variable subsets of L for a combinatorial filtration.

    A subset S admits the move x ∈ S when (S∖{x}) : x is again generated by
    variables, with target set T(S, x).  The answer is the greatest fixpoint
    of deleting subsets with no move whose pieces S∖{x} and T(S, x) both
    survive: if the full set survives, the witness closure of {L} plus the
    empty set (each subset taking its first surviving move) is returned, and
    it passes verify_filtration; otherwise no combinatorial Koszul filtration
    exists, because deletion only removes subsets that belong to no valid
    family.

    The search first walks from the full set, each subset taking its first
    valid move and pushing both pieces.  If every subset reached has one, the
    reached set is a post-fixed point, so it lies inside the greatest
    fixpoint; each first valid move then has both pieces surviving, so it is
    the move the witness closure takes, and the reached set is that closure.
    At the first subset with no valid move the walk stops and the fixpoint
    runs over all 2^n subsets, sharing the move memo.

    The fixpoint is a chaotic iteration: it scans the subsets in increasing
    mask order, so each S∖{x} comes before S, deletes a subset as soon as it
    has no move into the current survivors, and scans again until a pass
    deletes nothing.  Deletion is monotone (fewer survivors leave fewer
    moves), so this reaches the same greatest fixpoint P as deleting in
    rounds (Knaster–Tarski; Cousot & Cousot 1977): a member of P keeps its
    move into P, which lies inside the survivors, so it is never deleted;
    and the final set is a post-fixed point, so it lies inside P.  So the
    answer is None once a pass deletes the full set, and the scan stops
    there.  A move whose piece S∖{x} is already dead is skipped without a
    colon, so deaths cascade up the masks.  The memo files each colon's
    verdict under the whole Aut(L) orbit of its move, so it makes one colon
    per orbit.
    """
    n = L.n
    if cap < 1:
        raise InputError(f"the search cap must be at least 1, not {cap}")
    if n > cap:
        raise CapExceeded(f"|L| = {n} exceeds the search cap {cap}")
    full = (1 << n) - 1
    everything = range(1 << n)
    subset_ideal, move = _search_moves(L)

    def first_move(mask, alive):
        """The pieces (rest, target) of mask's first move inside alive."""
        for x in range(n):
            rest = mask & ~(1 << x)
            if mask >> x & 1 and rest in alive:
                target = move(mask, x)
                if target is not None and target in alive:
                    return rest, target
        return None

    def closure(alive):
        """The subsets reached from the full set by first moves inside alive,
        or None if one of them has no such move."""
        reached = {0, full}
        stack = [full]
        while stack:
            pieces = first_move(stack.pop(), alive)
            if pieces is None:
                return None
            for piece in pieces:
                if piece not in reached:
                    reached.add(piece)
                    stack.append(piece)
        return reached

    reached = closure(everything)
    if reached is None:
        survivors = set(everything)
        deleted = True
        while deleted:
            deleted = False
            for m in everything:
                if m and m in survivors and first_move(m, survivors) is None:
                    survivors.discard(m)
                    deleted = True
            if full not in survivors:
                return None
        reached = closure(survivors)
    members = [subset_ideal(m) for m in sorted(reached, key=lambda m: (bin(m).count("1"), m))]
    return FiltrationSpec(L, tuple(members))

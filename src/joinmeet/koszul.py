"""Koszul filtrations of H[L]: axiom verification, the poset-ideal family,
and exhaustive search for combinatorial filtrations.

Cyclicity of I/J for linear-form ideals reduces to linear algebra: since the
degree-1 part of a lift (I_L, gens) is exactly the span of the generators,
I/J is cyclic with J ⊊ I iff span(J) sits inside span(I) with codimension
one.  colon_in_H_by_ideal takes J : I as the colon by the first generator g
of I outside J (hibi.cyclic_generator), and a witness records that g as
I/J's cyclic generator.  J = I is excluded: axiom (3) would pair it with
J : I = H[L], which is never a member.

A member's pivot set is the set of elements whose variables lead the rows
of its span's reduced echelon form, degree1().  Every leading variable of
a form in J leads a row of J's form, so J ⊂ I of codimension one has I's
pivot set less one element x.  The members are filed once by pivot set,
and I's candidates are those filed under each set I∖{x}, in family order:
n lookups per member, not a scan of the family.  Two members can share a
pivot set, so a candidate is tried only once its span is confirmed inside
I's on row-reduced spans, and the first whose colon is a member is the
witness.  A combinatorial family's pivot sets are its variable sets, and
there each verdict is read from the move memo the search also uses; a
member with no witness is checked again colon by colon, so its
diagnostics are those of a scan.

FiltrationSpec and the verification records (Witness, Axiom3Failure,
VerificationReport) are plain classes that compare by their fields and do
not hash (poly._Record).

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
first move for the walk, the fixpoint scans and the closure, trying the
moves x in the reverse of L.linear_extension.  On a distributive lattice
that order keeps the walk among poset ideals, each step deleting a maximal
element, so every colon takes hibi's substituted basis and runs no
Buchberger, and the replay computes none (see search_combinatorial); on any
lattice it changes only the witness found, never the verdict.  The walk
takes any lattice of at most WALK_LIMIT elements, and the cap bounds only
the fixpoint: a lattice over the cap is refused (CapExceeded) only once its
walk has dead-ended.

The search and verification decide a move through one memo, _orbit_moves,
by one colon: S admits the move x ∈ S when J : I, for J and I the ideals
of the variables of S∖{x} and S, is generated by variables.  That is axiom
(3), and J : I = J : x_x.  An automorphism σ of L preserves ∨ and ∧, so it
fixes I_L and permutes the variables; hence σ(J : I) = σJ : σI, and
move(σS, σx) = σ·move(S, x).  So the verdict of (S, x), the mask of the
colon's variables or None, is filed under its whole Aut(L) orbit, walked
with the generators of Aut(L), each checked first to preserve ∨ and ∧.  A
member whose pair was filed from another pair's colon takes no colon of its
own; its witness names the form cyclic_generator chooses by support, and
only its containment is confirmed.  The memo lives for one call, so a
replay shares nothing with the search it checks.

Before its colon, a move is put to hibi.degree2_move, which reads the
degree-2 part of (I_L, x_{S∖x}) off the join and meet tables.  When that
part already puts a difference x_b − x_b' in the colon, the move is invalid
and its orbit is filed None with no colon; σ carries the tables to
themselves, so this too is exact under Aut(L).  Otherwise the check names
the only variable set the colon can have, and a colon generated by other
variables is an internal error (RuntimeError).  A certified none on
M3-on-M3 (|Aut| = 36) makes 15 colons, 17 without the check; without it
there were 630 with neither the orbits nor the in-place deletion, 158 with
the orbits alone and 30 with the deletion alone.  M_10 (|Aut| = 10!) makes
13 (14 without the check, 68 with the deletion alone).  On the poset-ideal
family the memo takes divisor(60) from 49 colons to 37 and boolean(5) from
7,580 to 346.  The check rejects some move of L iff L is not distributive
(see hibi.degree2_move), so on a distributive lattice it only names T.
"""

from __future__ import annotations

from functools import cache

from . import linalg
from .errors import InputError
from .hibi import (
    ResidueIdeal,
    colon_in_H_by_ideal,
    cyclic_generator,
    degree2_move,
    residue_ideal,
    variable_ideal,
)
from .poly import _Record


class MalformedFamily(InputError):
    """Two members of the family are semantically the same ideal."""


class CapExceeded(InputError):
    """The lattice is larger than the search takes: over WALK_LIMIT
    elements, or over the fixpoint's cap once the walk has dead-ended."""


class FiltrationSpec(_Record):
    """An ordered family of linear-form ideals of H[L].

    ``keys`` maps each member's semantic key, its span in reduced echelon
    form, to its index, so building a family runs no Buchberger; two members
    that present the same ideal raise MalformedFamily.  ``combinatorial``
    records whether every member is generated by residue classes of
    variables.  Both are computed from the members, so a family compares
    and prints by its lattice, members and ``combinatorial`` (see
    poly._Record), and ``keys`` stays out of the repr.  A member over
    another lattice raises ValueError.
    """

    _fields = ("lattice", "members", "combinatorial")

    def __init__(self, lattice, members):
        self.lattice = lattice
        self.members = members
        self.keys = {}
        for i, m in enumerate(members):
            if m.lattice != lattice:
                raise ValueError(f"member {i} {m!r} is an ideal over another lattice")
            j = self.keys.setdefault(m.semantic_key(), i)
            if j != i:
                raise MalformedFamily(f"members {j} and {i} present the same ideal {m!r}")
        self.combinatorial = all(m.variable_set() is not None for m in members)


def filtration(L, members):
    """Build a FiltrationSpec, coercing each member to a ResidueIdeal."""
    return FiltrationSpec(
        L, tuple(m if isinstance(m, ResidueIdeal) else residue_ideal(L, m) for m in members)
    )


# ---------------------------------------------------------------------------
# verification


class Witness(_Record):
    """Axiom-(3) witness for one member: the chosen J, the cyclic generator,
    and which member equals J : I.  The colon itself is not kept, as most
    verdicts are filed from the colon of another pair in their Aut(L) orbit
    (see the module docstring); replay computes every witness colon again."""

    _fields = (
        "member_index",
        "member",
        "j_index",
        "j",
        "cyclic_generator",
        "colon_member_index",
    )


class Axiom3Failure(_Record):
    """A member with no axiom-(3) witness: ``tried`` lists (j_index, reason,
    detail) for each candidate J, and ``no_candidates`` says there was
    none."""

    _fields = ("member_index", "member", "no_candidates", "tried")


class VerificationReport(_Record):
    """Per-axiom verdicts with witnesses (pass) or diagnostics (fail)."""

    _fields = (
        "lattice",
        "passed",
        "axiom1_ok",
        "axiom2_ok",
        "has_zero",
        "has_maximal",
        "axiom3_ok",
        "witnesses",
        "axiom3_failures",
    )

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
    """Coefficient rows of linear forms, one column per variable of ring,
    with int zeros and integral coefficients as ints (see linalg)."""
    rows = []
    for p in polys:
        row = [0] * ring.nvars
        for m, c in p.terms:
            row[m.index(1)] = c.numerator if c.denominator == 1 else c
        rows.append(row)
    return rows


def verify_filtration(L, family):
    """Check the three Koszul-filtration axioms for the given family.

    Axiom (1) holds by construction; axiom (2) by semantic membership
    of 0 and m; axiom (3) by searching, for each nonzero member I, a member
    J of codimension one inside I whose colon J : I is again a member.  The
    candidates J are taken in family order and the first whose colon is a
    member is the witness; a member with none gets the report of every
    colon tried.
    """
    members = family.members

    # every member is a ResidueIdeal, whose constructor refuses a generator
    # that is not a linear form, so axiom (1) holds by construction
    axiom1_ok = True

    has_zero = any(m.is_zero() for m in members)
    has_maximal = any(m.is_maximal() for m in members)
    axiom2_ok = has_zero and has_maximal

    steps = _axiom3(family)
    witnesses = [s for s in steps if isinstance(s, Witness)]
    failures = [s for s in steps if isinstance(s, Axiom3Failure)]
    axiom3_ok = not failures

    return VerificationReport(
        lattice=L,
        passed=axiom1_ok and axiom2_ok and axiom3_ok,
        axiom1_ok=axiom1_ok,
        axiom2_ok=axiom2_ok,
        has_zero=has_zero,
        has_maximal=has_maximal,
        axiom3_ok=axiom3_ok,
        witnesses=witnesses,
        axiom3_failures=failures,
    )


def _first_witness(family, i, candidates):
    """Member i's Witness from the first candidate index j whose colon J : I,
    computed directly, is a member; else its Axiom3Failure, with why each
    colon failed."""
    member = family.members[i]
    tried = []
    for j in candidates:
        other = family.members[j]
        report = colon_in_H_by_ideal(other, member)
        target = family.keys.get(report.semantic_key())
        if target is not None:
            return Witness(i, member, j, other, report.divisors[0], target)
        if not report.linear_generated:
            tried.append((j, "colon-not-linear", report.nonlinear_witness))
        else:
            tried.append((j, "colon-not-member", report.degree1))
    return Axiom3Failure(i, member, not candidates, tried)


def _axiom3(family):
    """Axiom (3), member by member: each nonzero member's Witness or
    Axiom3Failure, its candidates looked up by pivot set and, in a
    combinatorial family, its verdicts read from the Aut(L) move memo of
    the lattice the members are ideals over (see the module docstring)."""
    L = family.lattice
    members = family.members
    element = L.linear_extension
    pivots = [sum(1 << element[g.terms[0][0].index(1)] for g in m.degree1()) for m in members]
    filed = {}
    for i, mask in enumerate(pivots):
        filed.setdefault(mask, []).append(i)
    spans = {}

    def inside(j, i):
        """Whether member j's span lies inside member i's, on spans
        row-reduced once each."""
        for k in (i, j):
            if k not in spans:
                spans[k] = linalg.rref(_coefficient_rows(members[k].degree1(), members[k].ring))
        return linalg.row_space_contains(spans[i], spans[j])

    move = None
    if family.combinatorial:
        # members with one variable set are one ideal, so each set files one
        index_of = {mask: js[0] for mask, js in filed.items()}
        move = _orbit_moves(L, lambda mask: members[index_of[mask]])

    steps = []
    for i, member in enumerate(members):
        if member.is_zero():
            continue
        mask = pivots[i]
        candidates = sorted(
            (j, x) for x in range(L.n) if mask >> x & 1 for j in filed.get(mask & ~(1 << x), ())
        )
        if move is not None:
            verdicts = ((j, index_of.get(move(mask, x))) for j, x in candidates)
            j, target = next(((j, t) for j, t in verdicts if t is not None), (None, None))
            if target is not None:
                J = members[j]
                if not inside(j, i):
                    raise RuntimeError(f"member {j} {J!r} does not lie inside {i} {member!r}")
                steps.append(Witness(i, member, j, J, cyclic_generator(J, member), target))
                continue
        step = _first_witness(family, i, [j for j, _ in candidates if inside(j, i)])
        if move is not None and isinstance(step, Witness):
            raise RuntimeError(
                f"member {i} {member!r} has a witness colon by colon, none by orbits"
            )
        steps.append(step)
    return steps


# ---------------------------------------------------------------------------
# the poset-ideal family


def poset_ideal_filtration(L):
    """One member per poset ideal of L, generated by its variables."""
    return FiltrationSpec(L, tuple(variable_ideal(L, s) for s in L.poset_ideals()))


# ---------------------------------------------------------------------------
# exhaustive search for combinatorial filtrations


DEFAULT_SEARCH_CAP = 12
# the largest lattice the walk takes, refused before any work so that a huge
# builtin fails fast; boolean(5) has 32 elements
WALK_LIMIT = 32


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


def _automorphisms(L):
    """The generators of Aut(L), each checked to permute the elements and
    preserve join and meet, in O(n²) each.  A move filed under the orbit of
    a map that is no automorphism could be wrong, so a failed check is an
    internal error (RuntimeError), never a verdict."""
    n = L.n
    join, meet = L._join, L._meet
    generators = L.automorphism_generators()
    for sigma in generators:
        if sorted(sigma) != list(range(n)) or any(
            sigma[join[a][b]] != join[sigma[a]][sigma[b]]
            or sigma[meet[a][b]] != meet[sigma[a]][sigma[b]]
            for a in range(n)
            for b in range(a + 1, n)
        ):
            raise RuntimeError(f"{sigma} is not an automorphism of the lattice")
    return generators


def _orbit_moves(L, ideal):
    """The memoised move(mask, x) for L, on bitmasks of element indices.

    ideal(mask) must return an ideal of H[L] over L spanned by the
    variables of mask, for each mask asked about and each mask ∖ {x}.
    move(mask, x) decides J : I for J = ideal(mask ∖ {x}) and I =
    ideal(mask), which is J : x_x: the bitmask of its variables when it is
    generated by variables, else None.  σ ∈ Aut(L) carries that colon to
    the colon of (σmask, σx), so one colon decides the whole Aut(L) orbit
    of (mask, x): each generator carries a filed pair and its target to
    another pair and target, through the generator's image table.  The memo
    is a union of orbits, so the orbit of a pair outside it is new.  A move
    that degree2_move rejects is filed None with no colon; the colon of any
    other must be generated by the variables the check names, or by none.
    """
    generators = [(sigma, _image_table(sigma)) for sigma in _automorphisms(L)]
    moves = {}

    def move(mask, x):
        if (mask, x) not in moves:
            target = degree2_move(L, mask, x)
            if target is not None:
                rep = colon_in_H_by_ideal(ideal(mask & ~(1 << x)), ideal(mask))
                got = sum(1 << a for a in rep.variables) if rep.variable_generated else None
                if got not in (None, target):
                    raise RuntimeError(
                        f"the colon of move {x} of {mask:#x} has variables {got:#x}, "
                        f"the degree-2 check {target:#x}"
                    )
                target = got
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

    return move


def search_combinatorial(L, cap=DEFAULT_SEARCH_CAP):
    """Search the variable subsets of L for a combinatorial filtration.

    A subset S admits the move x ∈ S when (S∖{x}) : S is again generated by
    variables, with target set T(S, x).  The answer is the greatest fixpoint
    of deleting subsets with no move whose pieces S∖{x} and T(S, x) both
    survive: if the full set survives, the witness closure of {L} plus the
    empty set (each subset taking its first surviving move) is returned, and
    it passes verify_filtration; otherwise no combinatorial Koszul filtration
    exists, because deletion only removes subsets that belong to no valid
    family.

    A subset's moves x are tried in the reverse of L.linear_extension, by
    the walk, the fixpoint and the closure alike.  The search first walks
    from the full set, each subset taking its first valid move and pushing
    both pieces.  If every subset reached has one, the reached set is a
    post-fixed point, so it lies inside the greatest fixpoint; each first
    valid move then has both pieces surviving, so it is the move the witness
    closure takes, and the reached set is that closure.  At the first subset
    with no valid move the walk stops and the fixpoint runs over all 2^n
    subsets, sharing the move memo.

    On a distributive lattice the walk never stops there and reaches only
    poset ideals.  The full set is a poset ideal.  In a poset ideal P the
    first x in reverse linear-extension order is maximal in P: anything
    above x in P comes later in the extension, so earlier in reverse.  So
    A = P∖{x} is a poset ideal holding x's lower covers, all five
    conditions of hibi._substituted_basis hold, and the colon runs no
    Buchberger.  It is generated by the variables of {a : a ≱ x}, again a
    poset ideal (hibi.claim_check's span), so the move is valid and both
    pieces are poset ideals.  The replay then reads every witness colon
    from the members' lifts.  On any other lattice the order changes only
    the witness found and the moves that take a colon, never the verdict.

    The walk takes any lattice of at most WALK_LIMIT elements; a larger one
    is refused (CapExceeded) before any work.  The cap bounds only the
    fixpoint: when the walk dead-ends on a lattice of more than cap
    elements, CapExceeded, with no fixpoint run.

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
    per orbit, and none for an orbit the degree-2 check rejects.  The
    survivors are a bytearray of 2^n flags, one byte per subset (a set of
    2^20 ints took 85 MB on M3×C4); the walk takes every subset as alive
    and allocates nothing of size 2^n.
    """
    n = L.n
    if cap < 1:
        raise InputError(f"the search cap must be at least 1, not {cap}")
    if n > WALK_LIMIT:
        raise CapExceeded(f"|L| = {n} exceeds {WALK_LIMIT}, the largest lattice the search takes")
    full = (1 << n) - 1
    order = L.linear_extension[::-1]
    subset_ideal = cache(lambda mask: variable_ideal(L, (a for a in range(n) if mask >> a & 1)))
    move = _orbit_moves(L, subset_ideal)

    def first_move(mask, alive):
        """The pieces (rest, target) of mask's first move inside alive, its
        moves tried in reverse linear-extension order.  alive is None for
        every subset, else a flag per mask."""
        for x in order:
            rest = mask & ~(1 << x)
            if mask >> x & 1 and (alive is None or alive[rest]):
                target = move(mask, x)
                if target is not None and (alive is None or alive[target]):
                    return rest, target
        return None

    def closure(alive):
        """The subsets reached from the full set by first moves inside alive
        (None for every subset), or None if one of them has no such move."""
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

    reached = closure(None)
    if reached is None:
        if n > cap:
            raise CapExceeded(
                f"the walk from the full set dead-ends, and |L| = {n} exceeds "
                f"the search cap {cap} on the fixpoint over all 2^n subsets"
            )
        survivors = bytearray(b"\x01") * (1 << n)
        deleted = True
        while deleted:
            deleted = False
            for m in range(1, 1 << n):
                if survivors[m] and first_move(m, survivors) is None:
                    survivors[m] = 0
                    deleted = True
            if not survivors[full]:
                return None
        reached = closure(survivors)
    members = [subset_ideal(m) for m in sorted(reached, key=lambda m: (bin(m).count("1"), m))]
    return FiltrationSpec(L, tuple(members))

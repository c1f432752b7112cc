"""Independent test oracles.

Everything here is deliberately dumb and self-contained: brute force over
subsets, Macaulay-matrix linear algebra with its own row reduction, and a
generator for every naturally labeled poset on up to six elements.  None of
it shares code with the engine paths it cross-checks, except the reference
verifier, which takes each colon from the engine and checks only the
verification around it, the degree-2 cross-check, which sets the engine's
colons and degree-2 check against an oracle that reads only the join and
meet tables, and the membership query stream, which builds its polynomials
with the engine's arithmetic and takes its answers from theory.
The module imports no test framework, so a plain interpreter can run it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from joinmeet.hibi import join_meet_ideal


# ---------------------------------------------------------------------------
# exact row reduction (kept separate from the package's linalg on purpose)


def rref(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    pr = 0
    for col in range(ncols):
        sel = next((r for r in range(pr, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[pr], mat[sel] = mat[sel], mat[pr]
        inv = mat[pr][col]
        mat[pr] = [v / inv for v in mat[pr]]
        for r in range(len(mat)):
            if r != pr and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pr])]
        pr += 1
        if pr == len(mat):
            break
    return mat[:pr]


def in_span(rows, vec):
    base = rref(rows)
    return rref(base + [list(map(Fraction, vec))]) == base


# ---------------------------------------------------------------------------
# brute-force poset-ideal enumeration (2^n subsets filtered by closure)


def brute_force_poset_ideals(L):
    n = L.n
    ideals = []
    for mask in range(1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        closed = all(
            not (b in members and L.le(a, b)) or a in members
            for a in range(n)
            for b in range(n)
        )
        if closed:
            ideals.append(frozenset(members))
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# Macaulay-matrix membership for homogeneous ideals


def _monomials_of_degree(nvars, d):
    if d == 0:
        return [(0,) * nvars]
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(set(out))


def macaulay_member(generators, f):
    """Membership of f in the homogeneous ideal (generators), decided by
    solving for f's homogeneous parts inside the span of shifted generators.

    Reads only .terms off the polynomials; the decision procedure is pure
    linear algebra, independent of any Groebner machinery.
    """
    if not f.terms:
        return True
    nvars = len(f.terms[0][0])
    by_degree = {}
    for m, c in f.terms:
        by_degree.setdefault(sum(m), {})[m] = Fraction(c)
    for d, part in by_degree.items():
        monoms = _monomials_of_degree(nvars, d)
        col = {m: i for i, m in enumerate(monoms)}
        rows = []
        for g in generators:
            if not g.terms:
                continue
            gdeg = sum(g.terms[0][0])
            if not g.is_homogeneous():
                raise ValueError("oracle needs homogeneous generators")
            if gdeg > d:
                continue
            for shift in _monomials_of_degree(nvars, d - gdeg):
                row = [Fraction(0)] * len(monoms)
                for m, c in g.terms:
                    shifted = tuple(a + b for a, b in zip(m, shift))
                    row[col[shifted]] += Fraction(c)
                rows.append(row)
        vec = [Fraction(0)] * len(monoms)
        for m, c in part.items():
            vec[col[m]] = c
        if not in_span(rows, vec):
            return False
    return True


# ---------------------------------------------------------------------------
# every naturally labeled poset on <= max_n elements
#
# Elements are added one at a time as a new maximal element whose strict
# down-set is an order ideal of the poset built so far; this produces every
# poset whose identity labeling is a linear extension, exactly once.


def naturally_labeled_posets(max_n):
    """Yield posets as tuples of down-sets (down[i] = {j : j <= i})."""

    def order_ideals(down, n):
        out = []
        for mask in range(1 << n):
            members = {i for i in range(n) if mask >> i & 1}
            if all(down[b] <= members for b in members):
                out.append(members)
        return out

    def extend(down):
        n = len(down)
        yield down
        if n == max_n:
            return
        for ideal in order_ideals(down, n):
            new = down + (frozenset(ideal | {n}),)
            yield from extend(new)

    yield from extend((frozenset({0}),))


def poset_is_lattice(down):
    """Unique least upper and greatest lower bounds for every pair."""
    n = len(down)
    up = [frozenset(b for b in range(n) if a in down[b]) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            uppers = up[a] & up[b]
            if len([u for u in uppers if all(u in down[v] for v in uppers)]) != 1:
                return False
            lowers = down[a] & down[b]
            if len([u for u in lowers if all(v in down[u] for v in lowers)]) != 1:
                return False
    return True


def poset_covers(down):
    n = len(down)
    covers = []
    for b in range(n):
        for a in down[b]:
            if a != b and not any(
                c not in (a, b) and a in down[c] and c in down[b] for c in down[b]
            ):
                covers.append((a, b))
    return covers


# ---------------------------------------------------------------------------
# axiom (3) of a Koszul filtration by scanning the whole family


def _linear_rows(forms, nvars):
    rows = []
    for g in forms:
        row = [Fraction(0)] * nvars
        for m, c in g.terms:
            row[m.index(1)] = Fraction(c)
        rows.append(row)
    return rows


def reference_verify_filtration(family):
    """The verdict, witnesses and failures of a family by the plain scan.

    For each nonzero member I, in family order, the candidates are every
    member J whose span has codimension one inside I's, in family order, and
    the first whose colon J : I is a member is the witness.  Each candidate
    takes one colon_in_H_by_ideal: no memo and no automorphisms.  Spans and
    the colon's membership are decided by this module's own row reduction.
    Returns (passed, witnesses, failures), with witnesses as (member index,
    J's index, the colon's member index, the first generator of I outside
    J's span) and failures as (member index, no candidates, tried), tried
    listing (J's index, reason, detail) as the engine's reports do.
    """
    from joinmeet.hibi import colon_in_H_by_ideal

    members = family.members
    nvars = members[0].ring.nvars
    spans = [rref(_linear_rows(m.linear_generators, nvars)) for m in members]
    index_of = {}
    for i, span in enumerate(spans):
        index_of.setdefault(tuple(map(tuple, span)), i)
    witnesses = []
    failures = []
    for i, member in enumerate(members):
        if not spans[i]:
            continue
        candidates = [
            j
            for j, span in enumerate(spans)
            if len(span) == len(spans[i]) - 1 and all(in_span(spans[i], row) for row in span)
        ]
        tried = []
        for j in candidates:
            report = colon_in_H_by_ideal(members[j], member)
            target = None
            if report.linear_generated:
                key = tuple(map(tuple, rref(_linear_rows(report.degree1, nvars))))
                target = index_of.get(key)
            if target is not None:
                generator = next(
                    g
                    for g in member.linear_generators
                    if not in_span(spans[j], _linear_rows([g], nvars)[0])
                )
                witnesses.append((i, j, target, generator))
                break
            if not report.linear_generated:
                tried.append((j, "colon-not-linear", report.nonlinear_witness))
            else:
                tried.append((j, "colon-not-member", report.degree1))
        else:
            failures.append((i, not candidates, tried))
    has_zero = any(not span for span in spans)
    has_maximal = any(len(span) == nvars for span in spans)
    return has_zero and has_maximal and not failures, witnesses, failures


# ---------------------------------------------------------------------------
# the degree-2 part of a move's colon, from the join and meet tables


def degree2_oracle(L, A, x):
    """The variable set the colon (I_L, x_A) : x_x can be generated by, read
    in degree 2 from L.join and L.meet alone, or None when its degree-2 part
    shows it is not generated by variables.

    The monomials x_a x_b are the sorted pairs (a, b).  Pairs with an
    element of A are zero.  Every binomial ab - (a∨b)(a∧b) equates its two
    sides, so a side is zero when it is joined, through such equalities, to
    a pair with an element of A.  A linear form l lies in the colon in
    degree 1 when l·x_x is zero modulo these, so b joins the set when the
    pair (b, x) is zero, and two b whose pairs with x are equal and nonzero
    put x_b - x_b' in the colon, which no set of variables spans.
    """
    A = set(A)
    parent = {}

    def root(p):
        while parent.get(p, p) != p:
            p = parent[p]
        return p

    def pair(a, b):
        return (min(a, b), max(a, b))

    for a in range(L.n):
        for b in range(a + 1, L.n):
            left, right = pair(a, b), pair(L.join(a, b), L.meet(a, b))
            if left != right:
                parent[root(left)] = root(right)
    zero = {root(pair(a, b)) for a in A for b in range(L.n)}
    target = set(A)
    classes = {}
    for b in range(L.n):
        if b in A:
            continue
        r = root(pair(b, x))
        if r in zero:
            target.add(b)
        elif r in classes:
            return None
        else:
            classes[r] = b
    return frozenset(target)


def degree2_cross_check(lattices):
    """Every move (S, x) of every lattice given, decided three ways: by the
    engine's colon_in_H_by_ideal, by degree2_oracle and by the engine's own
    degree-2 check.  A colon generated by variables must have the oracle's
    set, an oracle None must be a colon not generated by variables, and the
    engine's check must equal the oracle.  Raises AssertionError on the
    first disagreement; returns (moves, invalid moves, invalid moves the
    oracle rejects)."""
    from joinmeet.hibi import colon_in_H_by_ideal, degree2_move, variable_ideal

    moves = invalid = rejected = 0
    for L in lattices:
        for mask in range(1, 1 << L.n):
            S = {a for a in range(L.n) if mask >> a & 1}
            I = variable_ideal(L, S)
            for x in sorted(S):
                A = S - {x}
                expected = degree2_oracle(L, A, x)
                engine = degree2_move(L, mask, x)
                engine = None if engine is None else {a for a in range(L.n) if engine >> a & 1}
                report = colon_in_H_by_ideal(variable_ideal(L, A), I)
                where = f"{L.labels} S={sorted(S)} x={x}"
                if engine != expected:
                    raise AssertionError(f"{where}: engine check {engine}, oracle {expected}")
                if report.variable_generated and report.variables != expected:
                    raise AssertionError(f"{where}: colon {report.variables}, oracle {expected}")
                moves += 1
                if not report.variable_generated:
                    invalid += 1
                    rejected += expected is None
    return moves, invalid, rejected


# ---------------------------------------------------------------------------
# membership queries whose answers theory predicts


def member_queries(lattices, seed, count):
    """A seeded stream of (I_L, f, whether f lies in I_L) over distributive
    lattices, built as the bench's member workload builds its queries, with
    the answers theory predicts.  f is a sum of one to three generators of
    I_L, each times a coefficient with denominator 1 to 3 and a monomial of
    degree at most one, so f lies in I_L.  Half of the queries add a
    positive combination of distinct monomials supported on a maximal chain,
    which takes f out: for a distributive L those monomials are linearly
    independent modulo I_L (Hibi 1987)."""
    rng = random.Random(seed)
    tables = []
    for L in lattices:
        assert L.is_distributive()
        jm = join_meet_ideal(L)
        upper = {a: [b for c, b in L.covers if c == a] for a in range(L.n)}
        var = [jm.ring.index(label) for label in L.labels]
        tables.append((L, jm, upper, var))
    queries = []
    for _ in range(count):
        L, jm, upper, var = rng.choice(tables)
        ring = jm.ring
        f = ring.zero()
        for _ in range(rng.randint(1, 3)):
            shift = [0] * ring.nvars
            if rng.random() < 0.5:
                shift[rng.randrange(ring.nvars)] = 1
            coeff = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 3))
            f = f + rng.choice(jm.generators).shift(tuple(shift), coeff)
        member = rng.random() < 0.5
        if not member:
            monomials = set()
            for _ in range(rng.randint(1, 3)):
                chain = [L.bottom]
                while chain[-1] != L.top:
                    chain.append(rng.choice(upper[chain[-1]]))
                exps = [0] * ring.nvars
                for _ in range(rng.randint(1, 3)):
                    exps[var[rng.choice(chain)]] += 1
                monomials.add(tuple(exps))
            for exps in sorted(monomials):
                f = f + ring.monomial(exps, rng.randint(1, 5))
        queries.append((jm.ideal, f, member))
    return queries

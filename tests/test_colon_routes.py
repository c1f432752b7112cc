"""The colon route agrees with elimination.

For a homogeneous ideal I and any nonzero linear form l, intersect computes
I : l without elimination: modulo I's linear generators l = c·x + r, and the
automorphism x ↦ l turns the colon into a colon by the variable x.
elimination_colon is the reference it must match, reduced basis for reduced
basis: I ∩ (l) by eliminating an auxiliary t from t·I + (1 − t)·(l) under a
block order, kept here (with the order's key) as the tests' own code, as
test_reducer keeps the old reduce_basis.  The kernel computes under
degrevlex only and refuses the block order, so the elimination runs on
test_reducer's reference Buchberger and reference division alone, sharing
no code with the kernel it checks.  The split of linear generators in
groebner_basis must match plain Buchberger, and sympy is an independent
oracle for both the colon and its reduced basis.

reference_colon_by_linear_form is the variable route before it reused
C = I + (I : x)_1: it always reduces the linear generators with the
quotients.  The route must return the same basis, taking C's cached basis
exactly when the colon equals C.
"""

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cold_copy, count_computed_colons, enumerated_lattices, m3_on_m3
from joinmeet import groebner, hibi
from joinmeet.groebner import (
    GroebnerBasis,
    _colon_by_linear_form,
    _reduced_basis,
    _ring_with_last,
    _split_linear,
    buchberger,
    colon_element,
    divide_exact,
    groebner_basis,
    ideal,
    intersect,
    normal_form,
    reduce_basis,
)
from joinmeet.hibi import colon_in_H, join_meet_ideal, lattice_ring, variable_ideal
from joinmeet.koszul import search_combinatorial
from joinmeet.lattice import Lattice, boolean, chain, diamond, divisor_lattice, pentagon
from joinmeet.poly import MonomialOrder, Ring, degrevlex
from oracles import naturally_labeled_posets, poset_covers, poset_is_lattice
from test_reducer import reference_buchberger, reference_divide_exact, reference_normal_form

CORPUS = {
    "pentagon": pentagon(),
    "diamond": diamond(),
    "boolean3": boolean(3),
    "divisor12": divisor_lattice(12),
    "divisor30": divisor_lattice(30),
    "chain4": chain(4),
    "m3_on_m3": m3_on_m3(),
}


@dataclass(frozen=True)
class EliminationOrder:
    """The 2-block order on (t, x_1, ..., x_n): the exponent of t first, then
    the base ring's degrevlex, so every monomial with t is above every one
    without."""

    base: MonomialOrder

    @property
    def priority(self):
        return (0,) + tuple(p + 1 for p in self.base.priority)

    def key(self, exps):
        return (exps[0], self.base.key(exps[1:]))


def reference_reduced_basis(gens, ring):
    """The reduced basis of (gens) by the reference reducer alone: each
    element of a minimal Groebner basis, reduced by the others (their leads
    divide none of its terms after, so one pass is the fixpoint)."""
    key = ring.key
    gb = sorted(reference_buchberger(gens, ring=ring), key=lambda g: key(g.leading_monomial()))
    leads = [g.leading_monomial() for g in gb]
    minimal = [
        g for k, g in enumerate(gb)
        if not any(all(map(le, lm, leads[k])) for lm in leads[:k])
    ]
    return tuple(
        reference_normal_form(g, minimal[:k] + minimal[k + 1 :]) for k, g in enumerate(minimal)
    )


def intersect_by_elimination(I, J):
    """I ∩ J as the t-free part of a reduced basis of t·I + (1 − t)·J."""
    ring = I.ring
    aux = "t"
    while aux in ring.names:
        aux += "_"
    ring_t = Ring((aux,) + ring.names, EliminationOrder(ring.order))
    embed = lambda m: (0,) + m
    t = ring_t.var(aux)
    gens = [t * g.map_exponents(ring_t, embed) for g in I.generators]
    gens += [(1 - t) * h.map_exponents(ring_t, embed) for h in J.generators]
    kept = [p for p in reference_reduced_basis(gens, ring_t) if all(m[0] == 0 for m, _ in p.terms)]
    return ideal(ring, [p.map_exponents(ring, lambda m: m[1:]) for p in kept])


def elimination_colon(I, f):
    """Reduced basis of I : f as (1/f)·(I ∩ (f)), the intersection by elimination."""
    inter = intersect_by_elimination(I, ideal(I.ring, (f,)))
    quotients = [reference_divide_exact(g, f) for g in inter.generators]
    return reference_reduced_basis(quotients, I.ring)


def plain_basis(I):
    return reduce_basis(buchberger(I.generators, ring=I.ring)).basis


def test_elimination_ring_follows_its_own_order():
    # x^3 − t·y and y^3 − t·x lead with x^3 and y^3 in degrevlex, but with
    # t·y and t·x in the ring's order, which puts t first.  An engine that
    # packed every ring as degrevlex would take its two coprime leads for a
    # basis and eliminate nothing, so the kernel refuses the ring; the
    # reference follows the ring's order and finds x^4 − y^4
    ring_t = Ring(("t", "x", "y"), EliminationOrder(degrevlex(2)))
    t, x, y = ring_t.gens()
    gens = [x ** 3 - t * y, y ** 3 - t * x]
    flat = degrevlex(3)
    assert [max((m for m, _ in g.terms), key=flat.key) for g in gens] == [(0, 3, 0), (0, 0, 3)]
    assert [g.leading_monomial() for g in gens] == [(1, 0, 1), (1, 1, 0)]
    with pytest.raises(TypeError, match="degrevlex only"):
        buchberger(gens, ring=ring_t)
    assert reference_reduced_basis(gens, ring_t) == (
        x ** 4 - y ** 4, t * y - x ** 3, t * x - y ** 3)
    base = Ring(("x", "y"), degrevlex(2))
    u, v = base.gens()
    assert intersect_by_elimination(ideal(base, (u,)), ideal(base, (v,))).generators == (u * v,)


def test_elimination_reference_shares_nothing_with_the_kernel(monkeypatch):
    # every read of a ring's codec in the kernel goes through _codec_of, and
    # every public entry through _widening; with both failing, the reference
    # still finds the colons of the pentagon by x and the diamond by y − z
    cases = []
    for L, by in ((pentagon(), "x"), (diamond(), "y - z")):
        I, f = join_meet_ideal(L).ideal, lattice_ring(L).parse(by)
        cases.append((I, f, colon_element(I, f).generators))
    for name in ("_codec_of", "_widening"):
        monkeypatch.setattr(groebner, name, lambda *args: pytest.fail("the kernel ran"))
    for I, f, want in cases:
        assert elimination_colon(I, f) == want


def cases(L, rng):
    """Lifts (I_L, x_S) with random S, one with a non-variable linear
    generator, each paired with a variable or a general linear form."""
    R = lattice_ring(L)
    base = join_meet_ideal(L).generators
    xs = R.gens()
    out = []
    for k in range(6):
        S = [x for x in xs if rng.random() < 1 / 3]
        if k == 4:
            a, b = rng.sample(xs, 2)
            S.append(a + 2 * b)
        if k < 3:
            f = rng.choice(xs)
        else:
            a, b = rng.sample(xs, 2)
            f = a - b if k % 2 else a + 3 * b
        out.append((ideal(R, base + tuple(S)), f))
    return out


# the "-QQ" ids and the "/QQ" seed suffix name the rational coefficients and
# keep each case's name and its generated ideals stable
@pytest.mark.parametrize("name", CORPUS, ids=lambda name: f"{name}-QQ")
def test_fast_colon_matches_elimination(name):
    L = cold_copy(CORPUS[name])
    rng = random.Random(f"{L.labels}/QQ")
    for I, f in cases(L, rng):
        assert groebner_basis(I).basis == plain_basis(I), (I.generators, f)
        expected = elimination_colon(I, f)
        colon = colon_element(I, f)
        # the route returns the colon's reduced basis, and the cache holds
        # that basis for it
        assert colon.generators == expected, (I.generators, f)
        assert groebner_basis(colon).basis == expected, (I.generators, f)


def test_route_is_chosen_by_the_reduced_divisor():
    R = lattice_ring(pentagon())
    I_L = join_meet_ideal(pentagon()).ideal
    x, y, z = R.var("x"), R.var("y"), R.var("z")
    # a form that is a multiple of one variable modulo (y) colons as that
    # variable does
    I = ideal(R, I_L.generators + (y,))
    assert _colon_by_linear_form(I, x + 2 * y).basis == _colon_by_linear_form(I, x).basis
    # a form that stays a sum of two variables takes the substitution, and
    # matches elimination
    assert _colon_by_linear_form(I_L, y - z).basis == elimination_colon(I_L, y - z)
    assert groebner_basis(colon_element(I_L, y - z)).basis == elimination_colon(I_L, y - z)
    # a form inside the ideal gives the unit ideal
    assert _colon_by_linear_form(ideal(R, (y, z)), y - z).basis == (R.one(),)


def test_split_linear_basis_edge_cases():
    for text in [
        ["x - f", "y - 2*z + e"],  # linear only
        ["x - f", "x", "f"],  # dependent linear forms
        ["z - f", "x*y - 1", "x*y - y"],  # the rest yields a leading variable
        ["z - f", "x*y - 1", "y"],  # the rest yields a unit
        ["x + y", "x*z - e*f", "y*z - e*f", "x*y"],
    ]:
        R = lattice_ring(cold_copy(pentagon()))
        I = ideal(R, [R.parse(t) for t in text])
        assert groebner_basis(I).basis == plain_basis(I), text


def reference_colon_by_linear_form(I, l):
    ring = I.ring
    linear, rest = _split_linear(I.generators)
    l = normal_form(l, linear)
    if not l:
        return GroebnerBasis(ring, (ring.one(),))
    if len(l.terms) > 1:
        return None
    v = l.terms[0][0].index(1)
    ring_x = _ring_with_last(ring, v)
    var = ring_x.var(ring.names[v])
    rest = [g.map_exponents(ring_x, lambda m: m) for g in rest]
    gb = buchberger(rest, ring=ring_x)
    quotients = [divide_exact(g, var) if g.leading_monomial()[v] else g for g in gb.basis]
    quotients = [q.map_exponents(ring, lambda m: m) for q in quotients]
    return _reduced_basis(linear + quotients, ring)


def test_colon_by_a_variable_matches_the_reference_on_every_move():
    # every (R, x) with x outside R: the colon (I_L, x_R) : x.  The route
    # returns C's cached basis, C = (I_L, degree-1 part of the colon),
    # exactly when the colon is C, that is, when it is linear-generated;
    # the others take the reduction of the linear generators and quotients.
    # Every such colon of the distributive boolean(3) is linear-generated
    reused = {}
    for name in ("pentagon", "diamond", "boolean3", "m3_on_m3"):
        jm = join_meet_ideal(cold_copy(CORPUS[name]))
        L = jm.lattice
        reused[name] = {True: 0, False: 0}
        for mask in range(1 << L.n):
            xs = tuple(v for k, v in enumerate(jm.variables) if mask >> k & 1)
            I = ideal(jm.ring, jm.generators + xs)
            for x in range(L.n):
                if mask >> x & 1:
                    continue
                want = reference_colon_by_linear_form(I, jm.variables[x])
                got = _colon_by_linear_form(I, jm.variables[x])
                assert got == want, (name, mask, x)
                C = groebner_basis(ideal(jm.ring, jm.generators + want.degree1))
                assert (got is C) == (C.basis == want.basis), (name, mask, x)
                reused[name][got is C] += 1
    assert reused == {
        "pentagon": {True: 78, False: 2},
        "diamond": {True: 78, False: 2},
        "boolean3": {True: 1024, False: 0},
        "m3_on_m3": {True: 2193, False: 111},
    }


def _colon_runs_with_cached_target(monkeypatch, L, j, e, target):
    """colon_in_H(J, x_e) for J = (x_j) on a cold copy of L, with the basis
    of the target's lift cached first, and the Buchberger runs it made."""
    L = cold_copy(L)
    J = variable_ideal(L, [L.index(a) for a in j])
    target = variable_ideal(L, [L.index(a) for a in target])
    groebner_basis(target.lift)
    runs = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    report = colon_in_H(J, J.base.variables[L.index(e)])
    assert report.variable_generated
    assert report.groebner.basis == groebner_basis(target.lift).basis
    return len(runs)


def test_linear_generated_colon_runs_buchberger_once_on_a_cached_target(monkeypatch):
    # (J : ab) in H[boolean(3)] for J = (o, a) is (o, a, c, ac).  b, a lower
    # cover of ab, lies outside J, so hibi vouches for no basis; with the
    # basis of the target's lift cached the colon needs only the x-last run
    runs = _colon_runs_with_cached_target(
        monkeypatch, boolean(3), ("o", "a"), "ab", ("o", "a", "c", "ac"))
    assert runs == 1


def test_poset_ideal_colon_runs_no_buchberger_on_a_cached_target(monkeypatch):
    # (J : ab) for J = (o, a, b) is (o, a, b, c, ac, bc).  boolean(3) is
    # distributive, {o, a, b} is a poset ideal and ab's lower covers lie in
    # it, so I_L with x_o, x_a, x_b set to zero is already a basis with ab
    # last (Hibi, Bayer-Stillman), and the colon runs no Buchberger at all
    runs = _colon_runs_with_cached_target(
        monkeypatch, boolean(3), ("o", "a", "b"), "ab", ("o", "a", "b", "c", "ac", "bc"))
    assert runs == 0


def _x_last_basis(J, e):
    """The x-last run of the colon of J's lift by x_e: the substituted
    generators in the ring with x_e last, and Buchberger's basis of them."""
    jm = J.base
    v = jm.variables[e].terms[0][0].index(1)
    ring_x = _ring_with_last(jm.ring, v)
    rest = [g.map_exponents(ring_x, lambda m: m) for g in J.lift._split[1]]
    return tuple(g.monic() for g in rest), buchberger(rest, ring=ring_x).basis


def test_poset_ideal_colons_skip_only_runs_that_add_nothing(monkeypatch):
    # every move (A, e) of every distributive lattice of at most 7 elements,
    # A a poset ideal and e a minimal element of L ∖ A: the gate takes it,
    # the x-last Buchberger run it skips adds no element, and the colon with
    # the skip gives the reduced basis and variables of the colon forced
    # through Buchberger, on cold copies that share no cached basis
    lattices = [L for L in enumerated_lattices(7) if L.is_distributive()]
    assert len(lattices) == 33
    moves = 0
    for L in lattices:
        fast, slow = cold_copy(L), cold_copy(L)
        lower = L._lower
        for A in L.poset_ideals():
            for e in range(L.n):
                if e in A or not lower[e] <= A:
                    continue
                moves += 1
                J = variable_ideal(fast, A)
                f = J.base.variables[e]
                assert hibi._substituted_basis(J, f), (L, A, e)
                given, full = _x_last_basis(J, e)
                assert full == given, (L, A, e)
                got = colon_in_H(J, f)
                with monkeypatch.context() as m:
                    m.setattr(hibi, "_substituted_basis", lambda J, f: False)
                    K = variable_ideal(slow, A)
                    want = colon_in_H(K, K.base.variables[e])
                assert got.groebner.basis == want.groebner.basis, (L, A, e)
                assert got.variables == want.variables, (L, A, e)
    assert moves == 309


@pytest.mark.parametrize(
    "L, a, e, added",
    [
        # A = {a, b} is not a poset ideal: o lies below it
        (boolean(3), ("a", "b"), "ab", 1),
        # not distributive, with A = ∅ and x the bottom
        (pentagon(), (), "e", 1),
        (diamond(), (), "e", 3),
        # x = 6 is not minimal outside A = ∅: 2 and 3 lie below it
        (divisor_lattice(60), (), "6", 1),
    ],
)
def test_gate_refuses_a_move_where_skipping_would_be_wrong(L, a, e, added):
    # each move fails exactly one of the gate's conditions, and Buchberger
    # adds elements to its substituted generators, so they are no basis
    L = cold_copy(L)
    A = frozenset(L.index(x) for x in a)
    x = L.index(e)
    lower = L._lower
    conditions = (
        L.is_distributive(),
        all(lower[b] <= A for b in A),
        x not in A and lower[x] <= A,
    )
    assert conditions.count(False) == 1
    J = variable_ideal(L, A)
    f = J.base.variables[x]
    assert not hibi._substituted_basis(J, f)
    given, full = _x_last_basis(J, x)
    assert len(full) - len(given) == added
    assert full[: len(given)] == given


def test_kept_colon_matches_the_products_divided_back(monkeypatch):
    # every move (A, x) of the 51 labelled lattices of at most 6 elements,
    # A any set of elements and x outside it: colon_element reads the basis
    # intersect keeps on the ideal, and it must equal intersect's products
    # divided back by f, generator for generator.  That older route runs on
    # a second cold copy, so it computes its own colon, and a second
    # colon_element on one ideal computes none
    lattices = enumerated_lattices(6)
    assert len(lattices) == 51
    runs = count_computed_colons(monkeypatch)
    moves = 0
    for L in lattices:
        fast, slow = join_meet_ideal(cold_copy(L)), join_meet_ideal(cold_copy(L))
        for mask in range(1 << L.n):
            A = [a for a in range(L.n) if mask >> a & 1]
            I = fast.ideal.with_linear(fast.variables[a] for a in A)
            K = slow.ideal.with_linear(slow.variables[a] for a in A)
            for x in range(L.n):
                if mask >> x & 1:
                    continue
                moves += 1
                f, g = fast.variables[x], slow.variables[x]
                runs.clear()
                got = colon_element(I, f).generators
                assert len(runs) == 1, (L, mask, x)
                assert colon_element(I, f).generators == got, (L, mask, x)
                assert len(runs) == 1, (L, mask, x)
                inter = intersect(K, ideal(K.ring, (g,)))
                assert got == tuple(divide_exact(h, g) for h in inter.generators), (L, mask, x)
    assert moves == 8129


def test_colon_report_reads_the_basis_the_colon_cached(monkeypatch):
    # the colon's C and the report's linear_lift are one generator set, so
    # once the colon of (I_L, x_R) by x is computed, its report runs no
    # Buchberger, on either branch of the colon
    runs = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    seen = {True: 0, False: 0}
    colon_runs = 0
    for L in (cold_copy(pentagon()), cold_copy(diamond())):
        for mask in range(1 << L.n):
            J = variable_ideal(L, [a for a in range(L.n) if mask >> a & 1])
            for x in range(L.n):
                if mask >> x & 1:
                    continue
                f = J.base.variables[x]
                lifted = colon_element(J.lift, f)
                colon_runs += len(runs)
                runs.clear()
                report = hibi._colon_report(J, (f,), lifted)
                assert not runs, (L, mask, x)
                seen[report.linear_generated] += 1
    assert seen[False] > 0
    # the colons themselves ran Buchberger, so the reports read cold work
    assert colon_runs > 0


def _colons_in_H(monkeypatch):
    """The list of (J, f, report, unreduced) for each colon_in_H from here
    on, unreduced telling whether the report came without its reduced
    basis: its lift, groebner and nonlinear_witness not yet filled."""
    calls = []
    real = hibi.colon_in_H

    def recording(J, f):
        report = real(J, f)
        unreduced = not {"lift", "groebner", "nonlinear_witness"} & set(vars(report))
        calls.append((J, f, report, unreduced))
        return report

    monkeypatch.setattr(hibi, "colon_in_H", recording)
    return calls


def _assert_unreduced_report_is_the_eager_one(J, f, report, slow):
    """An unreduced report of J : f, read field by field, equals the report
    built from the colon's reduced basis at once on the cold copy slow of
    J's lattice, and its lift has the elimination colon as reduced basis."""
    assert {"lift", "groebner", "nonlinear_witness"}.isdisjoint(vars(report))
    assert not (report.linear_generated or report.variable_generated or report.whole_ring)
    assert report.variables is None
    K = hibi.residue_ideal(slow, [str(g) for g in J.linear_generators])
    g = K.ring.parse(str(f))
    eager = hibi._colon_report(K, (g,), colon_element(K.lift, g))
    for name in hibi.ResidueColonReport._fields:
        assert getattr(report, name) == getattr(eager, name), (name, J, f)
    assert report.semantic_key() == eager.semantic_key()
    assert report == eager
    assert groebner_basis(report.lift).basis == elimination_colon(J.lift, f)


def test_unreduced_reports_of_the_reference_searches_equal_the_eager_ones(monkeypatch):
    # every colon the search of each reference lattice takes: a colon not
    # generated by its linear part comes without its reduced basis, and
    # each field read later is the one the eager report holds
    from test_hibi import REFERENCE_LATTICES

    unreduced = {}
    for name, build in sorted(REFERENCE_LATTICES.items()):
        L = cold_copy(build())
        slow = cold_copy(L)
        with monkeypatch.context() as m:
            calls = _colons_in_H(m)
            search_combinatorial(L)
        for J, f, report, deferred in calls:
            # a report comes unreduced exactly when it is not linear-generated
            assert deferred == (not report.linear_generated), (name, J, f)
            if deferred:
                _assert_unreduced_report_is_the_eager_one(J, f, report, slow)
        unreduced[name] = sum(deferred for *_, deferred in calls), len(calls)
    assert unreduced == {
        "boolean(3)": (0, 9),
        "diamond": (2, 6),
        "divisor(12)": (0, 9),
        "m3_on_m3": (7, 15),
        "pentagon": (2, 29),
    }


def test_unreduced_reports_of_every_small_move_equal_the_eager_ones(monkeypatch):
    # every move (A, x) of the 51 labelled lattices of at most 6 elements,
    # A any set of elements and x outside it
    lattices = enumerated_lattices(6)
    moves = unreduced = 0
    for L in lattices:
        fast, slow = cold_copy(L), cold_copy(L)
        for mask in range(1 << L.n):
            J = variable_ideal(fast, [a for a in range(L.n) if mask >> a & 1])
            for x in range(L.n):
                if mask >> x & 1:
                    continue
                moves += 1
                f = J.base.variables[x]
                report = colon_in_H(J, f)
                if "lift" not in vars(report):
                    unreduced += 1
                    _assert_unreduced_report_is_the_eager_one(J, f, report, slow)
                else:
                    assert report.linear_generated or report.whole_ring, (L, mask, x)
    assert (len(lattices), moves, unreduced) == (51, 8129, 124)


def test_a_rejected_move_builds_no_reduced_basis(monkeypatch):
    # the certified none on M3-on-M3 takes 15 colons, 7 of them not
    # generated by their linear parts: the search reads only their
    # verdicts, so the colon route reduces none of them.  Reading a
    # report's lift reduces its colon once, in intersect, from the split
    # the route kept
    route, kept = [], []
    real_reduced, real_split = groebner._reduced_basis, groebner._split_reduced

    def reduced(gens, ring):
        # groebner_basis reduces the ideals it is asked for; count the rest
        if sys._getframe(1).f_code.co_name != "groebner_basis":
            route.append(gens)
        return real_reduced(gens, ring)

    def split(linear, rest, ring):
        if sys._getframe(1).f_code.co_name != "_reduced_basis":
            kept.append(rest)
        return real_split(linear, rest, ring)

    monkeypatch.setattr(groebner, "_reduced_basis", reduced)
    monkeypatch.setattr(groebner, "_split_reduced", split)
    calls = _colons_in_H(monkeypatch)
    L = cold_copy(m3_on_m3())
    assert search_combinatorial(L) is None
    assert len(calls) == 15 and route == kept == []
    unreduced = [report for _, _, report, deferred in calls if deferred]
    assert len(unreduced) == 7
    for k, report in enumerate(unreduced, 1):
        report.lift
        report.semantic_key()
        report.nonlinear_witness
        assert len(kept) == k
    assert route == []


def _small_lattices():
    out = []
    for down in naturally_labeled_posets(6):
        if len(down) >= 3 and poset_is_lattice(down):
            labels = [f"v{i}" for i in range(len(down))]
            covers = [(labels[a], labels[b]) for a, b in poset_covers(down)]
            out.append(Lattice.from_covers(labels, covers))
    return out


SMALL_LATTICES = _small_lattices()


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from(SMALL_LATTICES),
    seed=st.integers(0, 2**16),
)
def test_fast_colon_matches_elimination_on_random_lattices(L, seed):
    rng = random.Random(seed)
    for I, f in cases(L, rng)[::2]:
        assert groebner_basis(colon_element(I, f)).basis == elimination_colon(I, f)
        assert groebner_basis(I).basis == plain_basis(I)


# forms of three or four terms, the first coefficient never an integer
COEFFICIENTS = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(-1), Fraction(3)]


def long_form_cases(L, rng):
    """Lifts (I_L, x_S) with random S, one with a non-variable linear
    generator, each paired with a form of 3 or 4 terms with rational
    coefficients."""
    R = lattice_ring(L)
    base = join_meet_ideal(L).generators
    xs = R.gens()
    out = []
    for k in range(3):
        S = [x for x in xs if rng.random() < 1 / 4]
        if k == 1:
            a, b = rng.sample(xs, 2)
            S.append(a - Fraction(1, 2) * b)
        support = rng.sample(xs, min(len(xs), rng.choice((3, 4))))
        coefficients = [rng.choice(COEFFICIENTS[:3])]
        coefficients += [rng.choice(COEFFICIENTS) for _ in support[1:]]
        f = sum((c * v for c, v in zip(coefficients, support)), R.zero())
        out.append((ideal(R, base + tuple(S)), f))
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_colon_by_a_long_form_matches_elimination(name):
    L = cold_copy(CORPUS[name])
    rng = random.Random(f"{L.labels}/long")
    for I, f in long_form_cases(L, rng):
        assert len(f.terms) >= 3 and any(c.denominator > 1 for _, c in f.terms)
        colon = colon_element(I, f)
        assert colon.generators == elimination_colon(I, f), (I.generators, f)


@settings(max_examples=40, deadline=None)
@given(
    L=st.sampled_from([L for L in SMALL_LATTICES if L.n >= 4]),
    seed=st.integers(0, 2**16),
)
def test_colon_by_a_long_form_matches_elimination_on_random_lattices(L, seed):
    for I, f in long_form_cases(L, random.Random(seed)):
        assert groebner_basis(colon_element(I, f)).basis == elimination_colon(I, f)


# ---------------------------------------------------------------------------
# sympy as a second oracle


def _sympy_poly(p, symbols):
    import sympy

    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s**e for s, e in zip(symbols, m)])
        for m, c in p.terms
    ])


@pytest.mark.parametrize("name", ["pentagon", "diamond", "boolean3"])
def test_fast_colon_matches_sympy(name):
    sympy = pytest.importorskip("sympy")
    L = CORPUS[name]
    R = lattice_ring(L)
    symbols = sympy.symbols([f"v{i}" for i in range(R.nvars)])
    ordered = [symbols[i] for i in R.order.priority]  # biggest variable first
    t = sympy.Symbol("t")
    rng = random.Random(L.n)
    for I, f in cases(L, rng):
        ours = groebner_basis(colon_element(I, f)).basis
        F = _sympy_poly(f, symbols)
        # I ∩ (f) by sympy's own elimination: lex with t biggest
        E = sympy.groebner(
            [t * _sympy_poly(g, symbols) for g in I.generators] + [(1 - t) * F],
            t, *ordered, order="lex",
        )
        quotients = [sympy.cancel(e / F) for e in E.exprs if not e.has(t)]
        theirs = sympy.groebner(quotients, *ordered, order="grevlex")
        assert list(theirs.exprs) == [_sympy_poly(g, symbols) for g in reversed(ours)]

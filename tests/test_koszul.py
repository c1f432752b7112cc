import pytest

from conftest import (
    DATA,
    cold_copy,
    corpus,
    count_computed_colons,
    data_lattice,
    enumerated_lattices,
    m3_on_m3,
    m_lattice,
    modular_corpus,
    stacked_diamond,
)
from joinmeet import koszul, linalg
from joinmeet.hibi import (
    colon_in_H,
    colon_in_H_by_ideal,
    join_meet_ideal,
    residue_ideal,
    variable_ideal,
)
from joinmeet.koszul import (
    CapExceeded,
    FiltrationSpec,
    MalformedFamily,
    filtration,
    poset_ideal_filtration,
    _orbit_moves,
    search_combinatorial,
    verify_filtration,
)
from joinmeet.lattice import boolean, chain, diamond, divisor_lattice, pentagon

PENTAGON_FAMILY = [
    [],
    ["x"],
    ["x", "y"],
    ["x", "z"],
    ["x", "y", "z"],
    ["x", "y", "z", "e"],
    ["x", "y", "z", "f"],
    ["x", "y", "z", "e", "f"],
]

DIAMOND_FAMILY = [
    [],
    ["x"],
    ["y - z"],
    ["x", "y"],
    ["x", "z"],
    ["x", "y", "z"],
    ["x", "y", "z", "e"],
    ["x", "y", "z", "f"],
    ["x", "y", "z", "e", "f"],
]


# ---------------------------------------------------------------------------
# family construction


def test_combinatorial_flag():
    P = pentagon()
    assert filtration(P, PENTAGON_FAMILY).combinatorial
    D = diamond()
    assert not filtration(D, DIAMOND_FAMILY).combinatorial


def test_semantic_duplicates_rejected():
    D = diamond()
    with pytest.raises(MalformedFamily):
        filtration(D, [[], ["x", "y"], ["y", "x"]])
    with pytest.raises(MalformedFamily):
        filtration(D, [["y - z"], ["2*y - 2*z"]])


def test_verify_rejects_directly_built_duplicates():
    # the family checks itself, so a duplicate never reaches verify_filtration
    D = diamond()
    with pytest.raises(MalformedFamily, match="members 0 and 1 present the same ideal"):
        FiltrationSpec(D, (residue_ideal(D, ["x"]), residue_ideal(D, ["2*x"])))


def test_a_family_refuses_members_over_another_lattice():
    # the pentagon's poset ideals are no ideals of H[diamond]; filed under
    # Aut(diamond), their colons would contradict the scan of them
    members = poset_ideal_filtration(pentagon()).members
    with pytest.raises(ValueError, match="member 0 .* over another lattice"):
        filtration(diamond(), members)
    with pytest.raises(ValueError, match="over another lattice"):
        FiltrationSpec(diamond(), (residue_ideal(diamond(), []), members[1]))


def test_directly_built_family_derives_combinatorial():
    D = diamond()
    x, variables, form = (residue_ideal(D, g) for g in (["x"], ["x + y", "y"], ["y - z"]))
    assert FiltrationSpec(D, (x, variables)).combinatorial
    assert not FiltrationSpec(D, (x, form)).combinatorial


# ---------------------------------------------------------------------------
# verification


def test_pentagon_family_passes():
    P = pentagon()
    fam = filtration(P, PENTAGON_FAMILY)
    rep = verify_filtration(P, fam)
    assert rep.passed and rep.axiom1_ok and rep.axiom2_ok and rep.axiom3_ok
    assert len(rep.witnesses) == 7
    assert rep.replay(fam)


def test_diamond_family_passes():
    D = diamond()
    fam = filtration(D, DIAMOND_FAMILY)
    rep = verify_filtration(D, fam)
    assert rep.passed
    assert len(rep.witnesses) == 8
    assert rep.replay(fam)


def _mark_failed(rep):
    rep.passed = False


def _drop_a_witness(rep):
    rep.witnesses.pop()


def _misdirect_a_witness(rep):
    w = rep.witnesses[-1]
    w.colon_member_index = 0 if w.colon_member_index else 1


@pytest.mark.parametrize("tamper", [_mark_failed, _drop_a_witness, _misdirect_a_witness])
def test_replay_refuses_a_tampered_report(tamper):
    # a report that replays, marked failed, missing the witness of a nonzero
    # member, or with a witness whose colon points at the wrong member
    P = pentagon()
    fam = filtration(P, PENTAGON_FAMILY)
    rep = verify_filtration(P, fam)
    assert rep.replay(fam)
    tamper(rep)
    assert not rep.replay(fam)


def test_diamond_witness_chain_matches_listed_equalities():
    D = diamond()
    fam = filtration(D, DIAMOND_FAMILY)
    rep = verify_filtration(D, fam)
    members = fam.members
    got = {
        (w.member_index, w.j_index, w.colon_member_index) for w in rep.witnesses
    }
    idx = {tuple(sorted(map(str, gens))): i for i, gens in enumerate(map(tuple, [
        (), ("x",), ("y - z",), ("x", "y"), ("x", "z"), ("x", "y", "z"),
        ("x", "y", "z", "e"), ("x", "y", "z", "f"), ("x", "y", "z", "e", "f"),
    ]))}
    # (member, J, J:I) triples expected from the listed equalities
    expected = {
        (idx[("x",)], idx[()], idx[("y - z",)]),
        (idx[("y - z",)], idx[()], idx[("x",)]),
        (idx[tuple(sorted(("x", "y")))], idx[("x",)], idx[tuple(sorted(("x", "z")))]),
        (idx[tuple(sorted(("x", "z")))], idx[("x",)], idx[tuple(sorted(("x", "y")))]),
        (idx[tuple(sorted(("x", "y", "z")))], idx[tuple(sorted(("x", "y")))], idx[tuple(sorted(("x", "y")))]),
        (idx[tuple(sorted(("x", "y", "z", "e")))], idx[tuple(sorted(("x", "y", "z")))], idx[tuple(sorted(("x", "y", "z", "f")))]),
        (idx[tuple(sorted(("x", "y", "z", "f")))], idx[tuple(sorted(("x", "y", "z")))], idx[tuple(sorted(("x", "y", "z", "e")))]),
        (idx[tuple(sorted(("x", "y", "z", "e", "f")))], idx[tuple(sorted(("x", "y", "z", "e")))], idx[tuple(sorted(("x", "y", "z", "e")))]),
    }
    assert got == expected
    assert members[idx[("y - z",)]] == residue_ideal(D, ["y - z"])


def test_redundant_generator_is_passed_over_for_the_cyclic_one():
    # (x, x + y, y) spans (x, y) with one generator too many; its witness
    # names x + y, the first of its generators outside J = (x), and the
    # colon, computed again, is taken by that form
    D = diamond()
    fam = filtration(D, [[], ["x"], ["x", "x + y", "y"], ["x", "z"], list(D.labels)])
    rep = verify_filtration(D, fam)
    assert not rep.passed
    (w,) = [w for w in rep.witnesses if w.member_index == 2]
    assert (w.j_index, w.colon_member_index) == (1, 3)
    assert str(w.cyclic_generator) == "y + x"
    assert colon_in_H_by_ideal(w.j, w.member).divisors == (w.cyclic_generator,)


def test_zero_and_maximal_only_fails_axiom3():
    for L in [pentagon(), chain(3)]:
        fam = filtration(L, [[], list(L.labels)])
        rep = verify_filtration(L, fam)
        assert not rep.passed
        assert rep.axiom1_ok and rep.axiom2_ok and not rep.axiom3_ok
        assert rep.axiom3_failures[0].no_candidates


def test_missing_zero_or_maximal_is_axiom2_failure():
    P = pentagon()
    rep = verify_filtration(P, filtration(P, [["x"], list(P.labels)]))
    assert not rep.passed and not rep.axiom2_ok and not rep.has_zero
    rep = verify_filtration(P, filtration(P, [[], ["x"]]))
    assert not rep.passed and not rep.has_maximal


def test_failure_report_carries_nonlinear_witness():
    P = pentagon()
    rep = verify_filtration(P, poset_ideal_filtration(P))
    assert not rep.passed
    reasons = [t for f in rep.axiom3_failures for t in f.tried]
    assert any(r[1] == "colon-not-linear" and r[2] is not None for r in reasons)


# ---------------------------------------------------------------------------
# the poset-ideal family


def test_poset_ideal_filtration_counts():
    assert len(poset_ideal_filtration(chain(3)).members) == 4
    assert len(poset_ideal_filtration(boolean(2)).members) == 6
    assert len(poset_ideal_filtration(pentagon()).members) == 8


def test_poset_ideal_filtration_includes_zero_and_m():
    fam = poset_ideal_filtration(boolean(2))
    assert any(m.is_zero() for m in fam.members)
    assert any(m.is_maximal() for m in fam.members)
    assert fam.combinatorial


def test_poset_ideal_filtration_verdicts():
    assert verify_filtration(boolean(2), poset_ideal_filtration(boolean(2))).passed
    assert not verify_filtration(pentagon(), poset_ideal_filtration(pentagon())).passed
    assert not verify_filtration(diamond(), poset_ideal_filtration(diamond())).passed


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_pentagon_finds_passing_family():
    P = pentagon()
    fam = search_combinatorial(P)
    assert fam is not None and fam.combinatorial
    rep = verify_filtration(P, fam)
    assert rep.passed and rep.replay(fam)


def test_search_diamond_certified_absent():
    assert search_combinatorial(diamond()) is None


def test_search_chain2():
    L = chain(2)
    fam = search_combinatorial(L)
    assert fam is not None
    assert verify_filtration(L, fam).passed


def test_search_found_iff_distributive_on_modular_corpus():
    for L in modular_corpus():
        if L.n > 8:
            continue
        fam = search_combinatorial(L)
        if L.is_distributive():
            assert fam is not None, L.labels
            assert verify_filtration(L, fam).passed
        else:
            assert fam is None, L.labels


def _count_colons(monkeypatch):
    """The colons the search and verification make: both decide every move
    by colon_in_H_by_ideal."""
    calls = []
    real = koszul.colon_in_H_by_ideal

    def counted(J, I):
        calls.append((J, I))
        return real(J, I)

    monkeypatch.setattr(koszul, "colon_in_H_by_ideal", counted)
    return calls


@pytest.mark.parametrize("d, searched, replayed", [(36, 14, 0), (60, 32, 0)])
def test_replay_reads_the_colons_the_search_kept(monkeypatch, d, searched, replayed):
    # the replay takes its colons on the search's own members, so a colon
    # the search computed on a member's lift is read from that lift; the
    # replay still decides every move by colon_in_H_by_ideal.  On these
    # distributive lattices the walk's family is made of poset ideals and
    # every witness colon is one the search took, so the replay computes none
    runs = count_computed_colons(monkeypatch)
    L = divisor_lattice(d)
    fam = search_combinatorial(L)
    assert len(runs) == searched
    runs.clear()
    assert verify_filtration(L, fam).passed
    assert len(runs) == replayed


def test_found_search_makes_one_move_per_member(monkeypatch):
    calls = _count_colons(monkeypatch)
    fam = search_combinatorial(divisor_lattice(36))
    assert len(fam.members) == 19
    # at most one per non-zero member, of 511 non-empty subsets; the orbit of
    # a move under the swap of divisor(36)'s two chains 1 < 2 < 4, 1 < 3 < 9
    # decides the mirrored move too
    assert len(calls) == 14


def test_certified_none_makes_the_fixpoints_moves(monkeypatch):
    # one colon decides each move's whole orbit under Aut(L), the fixpoint
    # deletes a subset as soon as it has no surviving move, so a move whose
    # piece S \ {x} is already dead takes no colon, and a move the degree-2
    # check rejects takes none either: M3-on-M3 (|Aut| = 36) decides its 512
    # subsets in 15 colons, M_8 (|Aut| = 8!) its 1,024 in 11, and the
    # 12-element M3-on-M3 with a chain on top its 4,096 in 46.  The walk on
    # pentagon meets a dead end, so its found search runs the fixpoint too
    calls = _count_colons(monkeypatch)
    for L, found, colons in [
        (m3_on_m3(), False, 15),
        (m_lattice(8), False, 11),
        (data_lattice("m3_on_m3_chain"), False, 46),
        (stacked_diamond(), False, 17),
        (diamond(), False, 6),
        (pentagon(), True, 28),
    ]:
        calls.clear()
        assert (search_combinatorial(L) is not None) == found, L
        assert len(calls) == colons, L


def test_pentagon_times_a_two_chain_runs_the_fixpoint_and_replays(monkeypatch):
    # data/pentagon_c2.json is not modular; its walk meets a dead end, and
    # the fixpoint's colons include ones that are not linear-generated
    calls = _count_colons(monkeypatch)
    runs = count_computed_colons(monkeypatch)
    L = data_lattice("pentagon_c2")
    assert L.n == 10 and not L.is_modular()
    fam = search_combinatorial(L)
    assert len(calls) == len(runs) == 739
    runs.clear()
    rep = verify_filtration(L, fam)
    # the replay computes only the colons the search never took
    assert len(runs) == 0
    assert rep.passed and rep.replay(fam)
    assert len(runs) == 0


@pytest.mark.parametrize("d", [60, 72])
def test_twelve_element_search_verifies_and_replays(d):
    L = divisor_lattice(d)
    assert L.n == 12
    fam = search_combinatorial(L)
    rep = verify_filtration(L, fam)
    assert rep.passed and rep.replay(fam)


def test_search_respects_cap(monkeypatch):
    # the cap bounds only the fixpoint: boolean(2)'s walk reaches a family,
    # so it needs none, and the pentagon's walk dead-ends; a lattice over
    # koszul.WALK_LIMIT is refused before it takes a colon
    fam = search_combinatorial(boolean(2), cap=3)
    assert fam is not None and verify_filtration(boolean(2), fam).passed
    with pytest.raises(CapExceeded, match="walk from the full set dead-ends, and .* cap 3"):
        search_combinatorial(pentagon(), cap=3)
    runs = count_computed_colons(monkeypatch)
    assert koszul.WALK_LIMIT == 32
    with pytest.raises(CapExceeded, match="33 exceeds 32, the largest lattice"):
        search_combinatorial(chain(33), cap=40)
    assert not runs


def test_a_distributive_walk_reaches_only_poset_ideals(monkeypatch):
    # the walk tries each subset's moves in reverse linear-extension order,
    # so from a poset ideal it first deletes a maximal element: the colon
    # runs no Buchberger (hibi._substituted_basis), its target is again a
    # poset ideal, and the replay reads every colon from the members' lifts
    runs = count_computed_colons(monkeypatch)
    lattices = [L for L in enumerated_lattices(7) if L.is_distributive()]
    assert len(lattices) == 33
    for L in lattices + [divisor_lattice(60), divisor_lattice(72), boolean(4)]:
        runs.clear()
        fam = search_combinatorial(L, cap=16)
        assert all(L.is_poset_ideal(m.variable_set()) for m in fam.members), L
        assert all(substituted for _, _, substituted in runs), L
        runs.clear()
        assert verify_filtration(L, fam).passed
        assert not runs, L


def test_verification_is_deterministic():
    D = diamond()
    fam = filtration(D, DIAMOND_FAMILY)
    a = verify_filtration(D, fam)
    b = verify_filtration(D, fam)
    assert [(w.member_index, w.j_index, w.colon_member_index) for w in a.witnesses] == [
        (w.member_index, w.j_index, w.colon_member_index) for w in b.witnesses
    ]


def test_stacked_diamond_has_no_combinatorial_filtration():
    L = stacked_diamond()
    assert L.is_modular() and not L.is_distributive()
    assert search_combinatorial(L) is None


def test_search_consistent_on_all_lattices_up_to_5():
    # exhaustive consistency sweep: every found family replays to pass;
    # on modular lattices found == distributive; distributive always found
    found = absent = 0
    for L in enumerated_lattices(5):
        fam = search_combinatorial(L)
        if fam is None:
            absent += 1
            assert not L.is_distributive()
        else:
            found += 1
            assert verify_filtration(L, fam).passed
            if L.is_modular():
                assert L.is_distributive()
    assert found == 11 and absent == 1  # the diamond is the only refusal


def reference_search_combinatorial(L):
    """The fixpoint search with its witness closure found by a second scan of
    the moves, each subset's moves tried in reverse linear-extension order,
    and its subset ideals parsed from element labels."""
    n = L.n
    full = (1 << n) - 1
    ideal_of = {}

    def subset_ideal(mask):
        if mask not in ideal_of:
            labels = [L.labels[a] for a in range(n) if mask >> a & 1]
            ideal_of[mask] = residue_ideal(L, labels)
        return ideal_of[mask]

    moves = {}

    def move(mask, x):
        if (mask, x) not in moves:
            J = subset_ideal(mask & ~(1 << x))
            rep = colon_in_H(J, J.base.variables[x])
            target = sum(1 << a for a in rep.variables) if rep.variable_generated else None
            moves[(mask, x)] = (rep.variable_generated, target)
        return moves[(mask, x)]

    def first_move(mask, survivors):
        for x in reversed(L.linear_extension):
            rest = mask & ~(1 << x)
            if mask >> x & 1 and rest in survivors:
                ok, target = move(mask, x)
                if ok and target in survivors:
                    return rest, target
        return None

    survivors = set(range(1 << n))
    while True:
        doomed = [m for m in survivors if m and first_move(m, survivors) is None]
        if not doomed:
            break
        survivors.difference_update(doomed)
    if full not in survivors:
        return None
    closure = {0, full}
    stack = [full]
    while stack:
        mask = stack.pop()
        if mask == 0:
            continue
        for piece in first_move(mask, survivors):
            if piece not in closure:
                closure.add(piece)
                stack.append(piece)
    members = [subset_ideal(m) for m in sorted(closure, key=lambda m: (bin(m).count("1"), m))]
    return FiltrationSpec(L, tuple(members))


def _family(spec):
    return None if spec is None else [m.linear_generators for m in spec.members]


def test_search_matches_the_two_scan_reference():
    # the reference shares no move between the pairs of an Aut(L) orbit;
    # M_4 and M_5 have 4! and 5! automorphisms
    lattices = corpus() + [m3_on_m3(), m_lattice(4), m_lattice(5)] + enumerated_lattices(6)
    found = absent = 0
    for L in lattices:
        want = _family(reference_search_combinatorial(L))
        assert _family(search_combinatorial(L)) == want, L
        found += want is not None
        absent += want is None
    assert found and absent


def _image(sigma, mask):
    return sum(1 << sigma[a] for a in range(len(sigma)) if mask >> a & 1)


def test_image_tables_map_every_mask_as_the_bit_loop_does():
    # M_10 has 12 elements, so its masks span two bytes, the second partial
    for L in (diamond(), m_lattice(10), m3_on_m3()):
        for sigma in L.automorphism_generators():
            table = koszul._image_table(sigma)
            assert all(
                koszul._image(table, mask) == _image(sigma, mask) for mask in range(1 << L.n)
            ), sigma


@pytest.mark.parametrize(
    "build",
    [diamond, lambda: m_lattice(4), lambda: boolean(3)],
    ids=["diamond", "M_4", "boolean(3)"],
)
def test_moves_are_equivariant_and_the_orbit_memo_matches_them(build):
    # move(σR, σx) = σ·move(R, x): an automorphism fixes I_L and permutes the
    # variables, so it carries each colon to the colon of the image pair;
    # the memo, which fills whole orbits, agrees with every colon
    L = build()
    generators = L.automorphism_generators()
    assert generators
    moves = {}
    for mask in range(1, 1 << L.n):
        members = [a for a in range(L.n) if mask >> a & 1]
        for x in members:
            J = residue_ideal(L, [L.labels[a] for a in members if a != x])
            rep = colon_in_H(J, J.base.variables[x])
            moves[mask, x] = (
                sum(1 << a for a in rep.variables) if rep.variable_generated else None
            )
    for (mask, x), target in moves.items():
        for sigma in generators:
            want = None if target is None else _image(sigma, target)
            assert moves[_image(sigma, mask), sigma[x]] == want, (mask, x, sigma)
    move = _orbit_moves(L, lambda mask: _variables(L, mask))
    assert {pair: move(*pair) for pair in moves} == moves


def _variables(L, mask):
    """A fresh ideal of the variables of mask, as the search builds it."""
    return variable_ideal(L, [a for a in range(L.n) if mask >> a & 1])


@pytest.mark.parametrize(
    "build",
    [diamond, lambda: m_lattice(4), lambda: boolean(3), lambda: divisor_lattice(12)],
    ids=["diamond", "M_4", "boolean(3)", "divisor(12)"],
)
def test_the_memo_gives_one_verdict_on_fresh_ideals_and_on_members(build):
    # the search hands the memo fresh variable ideals, verification the
    # members of its family; on the moves between poset ideals, where both
    # are defined, the two memos must agree
    L = build()
    members = {
        sum(1 << a for a in m.variable_set()): m for m in poset_ideal_filtration(L).members
    }
    fresh = _orbit_moves(L, lambda mask: _variables(L, mask))
    given = _orbit_moves(L, members.__getitem__)
    pairs = [
        (mask, x)
        for mask in members
        for x in range(L.n)
        if mask >> x & 1 and mask & ~(1 << x) in members
    ]
    assert len(pairs) > L.n
    verdicts = [fresh(*pair) for pair in pairs]
    assert verdicts == [given(*pair) for pair in pairs]
    assert any(v is not None for v in verdicts)


# ---------------------------------------------------------------------------
# verification by Aut(L) orbits and candidates by mask


def _verdicts(rep):
    """A report's verdict, witnesses and failures in the reference's form."""
    witnesses = [
        (w.member_index, w.j_index, w.colon_member_index, w.cyclic_generator)
        for w in rep.witnesses
    ]
    failures = [(f.member_index, f.no_candidates, f.tried) for f in rep.axiom3_failures]
    return rep.passed, witnesses, failures


# over chain(3): (c2 + c0) and (c2) share the pivot set {c2}, and only (c2)
# lies inside (c2, c1); (c2, c1) modulo (c2 + c0) is not cyclic, so the
# colon (c2 + c0) : (c2, c1) is refused
SHARED_PIVOT_FAMILY = [[], ["c2 + c0"], ["c2"], ["c2", "c1"], ["c0", "c1", "c2"]]


def _chain_sums_family(L):
    """Every subset of y_i = c_i + c_(i+1) for i < n - 1 and y_(n-1) = c0,
    over chain(n): distinct leading variables, so 2^n members, each with its
    own pivot set, and not combinatorial."""
    n = L.n
    forms = [f"c{i} + c{i + 1}" for i in range(n - 1)] + ["c0"]
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    return filtration(L, [[forms[i] for i in range(n) if s >> i & 1] for s in subsets])


def test_verification_matches_the_scan_reference():
    # the reference scans the whole family for each member's candidates and
    # computes every colon it tries; verification looks its candidates up
    # by pivot set, files a combinatorial family's colons under their Aut(L)
    # orbits, and must report the same witnesses and the same failures
    from joinmeet.cli import load_filtration
    from oracles import reference_verify_filtration

    families = []
    for L in enumerated_lattices(6):
        families.append((L, poset_ideal_filtration(L)))
        found = search_combinatorial(L)
        if found is not None:
            families.append((L, found))
    families += [
        (pentagon(), load_filtration(pentagon(), DATA / "pentagon.filt")),
        (diamond(), load_filtration(diamond(), DATA / "diamond.filt")),
        # spans of variables given by sums: (b, o - b) is filed through the
        # orbit of (o + a, o), and names b, its first generator leaving (o)
        (boolean(2), load_filtration(boolean(2), DATA / "boolean2_sums.filt")),
        (pentagon(), poset_ideal_filtration(pentagon())),
        (diamond(), poset_ideal_filtration(diamond())),
        (chain(3), filtration(chain(3), NON_UNIT_FAMILY)),
        (chain(3), filtration(chain(3), SHARED_PIVOT_FAMILY)),
        (chain(4), _chain_sums_family(chain(4))),
    ]
    verdicts = set()
    for L, fam in families:
        got = _verdicts(verify_filtration(L, fam))
        assert got == reference_verify_filtration(fam), (L, fam.members)
        verdicts.add(got[0])
    assert verdicts == {True, False}


# over chain(3), whose H[L] is the polynomial ring: the span of member 2 holds
# member 1 only through non-unit coefficients, whose row reduction must be exact
NON_UNIT_FAMILY = [[], ["c2 - c1 + 2*c0"], ["c2 + 5*c0", "c1 + 3*c0"], ["c0", "c1", "c2"]]


def test_a_span_with_non_unit_coefficients_is_decided_exactly():
    L = chain(3)
    rep = verify_filtration(L, filtration(L, NON_UNIT_FAMILY))
    assert rep.passed
    assert [(w.member_index, w.j_index) for w in rep.witnesses] == [(1, 0), (2, 1), (3, 2)]


def test_automorphisms_are_those_of_the_members_lattice():
    # the members are ideals over the pentagon, which has no automorphism;
    # the diamond given to label the report has the 6 of its atoms
    fam = poset_ideal_filtration(pentagon())
    assert _verdicts(verify_filtration(diamond(), fam)) == _verdicts(
        verify_filtration(pentagon(), fam)
    )


@pytest.mark.parametrize(
    "build, colons",
    [(lambda: divisor_lattice(60), 37), (lambda: boolean(4), 33)],
    ids=["divisor(60)", "boolean(4)"],
)
def test_poset_ideal_verification_makes_one_colon_per_orbit(monkeypatch, build, colons):
    # the scan makes one colon per nonzero member, 49 on divisor(60) and 167
    # on boolean(4); a colon decides its move's whole Aut(L) orbit
    calls = _count_colons(monkeypatch)
    L = build()
    rep = verify_filtration(L, poset_ideal_filtration(L))
    assert rep.passed
    assert len(calls) == colons


def test_a_witness_filed_through_an_orbit_carries_no_report(monkeypatch):
    # fewer colons than witnesses, so some witnesses were filed through an
    # orbit; each names the form its colon, computed again, is taken by
    L = boolean(3)
    fam = poset_ideal_filtration(L)
    calls = _count_colons(monkeypatch)
    rep = verify_filtration(L, fam)
    assert rep.passed
    assert 0 < len(calls) < len(rep.witnesses)
    monkeypatch.undo()
    assert all(
        colon_in_H_by_ideal(w.j, w.member).divisors == (w.cyclic_generator,)
        for w in rep.witnesses
    )
    assert rep.replay(fam)


def test_candidates_are_confirmed_inside_once_each(monkeypatch):
    # each member of the chain(8) sums family has its own pivot set, so a
    # member of dimension d has d candidates, and each is confirmed inside
    # it once: 8 * 2^7 = 1,024 containment tests in all, not one per pair
    L = chain(8)
    fam = _chain_sums_family(L)
    calls = []
    real = linalg.row_space_contains

    def counted(big, small):
        calls.append(1)
        return real(big, small)

    monkeypatch.setattr(linalg, "row_space_contains", counted)
    rep = verify_filtration(L, fam)
    assert rep.passed and not fam.combinatorial
    assert len(calls) <= sum(m.dim for m in fam.members) == 1024


def test_every_distributive_poset_ideal_family_replays():
    # replay computes each witness colon again, with no memo
    lattices = [L for L in enumerated_lattices(6) if L.is_distributive()]
    assert len(lattices) > 5
    for L in lattices:
        fam = poset_ideal_filtration(L)
        rep = verify_filtration(L, fam)
        assert rep.passed and rep.replay(fam), L


def test_poset_ideal_verification_builds_no_x_last_ring():
    # every poset-ideal colon of a distributive lattice takes I_L with x_A set
    # to zero as its basis with x last, and divides in the ring's own order
    L = cold_copy(boolean(3))
    assert verify_filtration(L, poset_ideal_filtration(L)).passed
    assert not join_meet_ideal(L).ring._last


def _swap_bottom_and_an_atom(L):
    sigma = list(range(L.n))
    sigma[0], sigma[1] = 1, 0
    return (tuple(sigma),)


def test_a_colon_that_contradicts_the_degree2_check_is_an_internal_error(monkeypatch, capsys):
    # the degree-2 check names the only variable set a move's colon can
    # have; a colon generated by other variables means the engine or the
    # check is wrong, which must never come out as a verdict (exit 1)
    import json

    from joinmeet import cli

    check = koszul.degree2_move

    def wrong(L, mask, x):
        got = check(L, mask, x)
        return None if got is None else got ^ 1 << x

    monkeypatch.setattr(koszul, "degree2_move", wrong)
    with pytest.raises(RuntimeError, match="degree-2 check"):
        search_combinatorial(divisor_lattice(36))
    argv = ["filtration", "search", "--builtin", "divisor", "--n", "36", "--format", "json"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["kind"] == "internal"
    assert "degree-2 check" in err


@pytest.mark.parametrize(
    "module, name, broken, message",
    [
        (linalg, "row_space_contains", lambda rows, other: False, "does not lie inside"),
        (koszul, "_orbit_moves", lambda L, ideal: lambda mask, x: None, "none by orbits"),
    ],
    ids=["witness-outside-its-member", "memo-files-none"],
)
def test_an_orbit_verdict_that_contradicts_a_colon_is_an_internal_error(
    monkeypatch, capsys, module, name, broken, message
):
    # axiom (3) reads a combinatorial family's witnesses from the move memo;
    # a witness whose span lies outside its member, or a member the memo
    # gives no witness that a direct colon finds, means the engine is wrong,
    # which must never come out as a verdict (exit 1)
    import json

    from joinmeet import cli

    monkeypatch.setattr(module, name, broken)
    L = boolean(2)
    with pytest.raises(RuntimeError, match=message):
        verify_filtration(L, poset_ideal_filtration(L))
    argv = ["posetideals", "--builtin", "boolean", "--n", "2", "--verify", "--format", "json"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["kind"] == "internal"
    assert message in err


def test_a_map_that_is_no_automorphism_is_an_internal_error(monkeypatch, capsys):
    # element 0 is the bottom of divisor(12) and element 1 an atom, so the
    # swap preserves neither join nor meet; filing a colon under its orbit
    # would give wrong verdicts, so it is refused before any colon is filed
    from joinmeet import cli
    from joinmeet.lattice import Lattice

    monkeypatch.setattr(Lattice, "automorphism_generators", _swap_bottom_and_an_atom)
    L = divisor_lattice(12)
    with pytest.raises(RuntimeError, match="not an automorphism"):
        verify_filtration(L, poset_ideal_filtration(L))
    code = cli.main(["posetideals", "--builtin", "divisor", "--n", "12", "--verify"])
    assert code == 3
    assert "internal error" in capsys.readouterr().err

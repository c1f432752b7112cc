import pytest

from conftest import (
    corpus,
    data_lattice,
    enumerated_lattices,
    m3_on_m3,
    m_lattice,
    modular_corpus,
    stacked_diamond,
)
from joinmeet import koszul
from joinmeet.hibi import claim_check, colon_in_H, residue_ideal, variable
from joinmeet.koszul import (
    CapExceeded,
    FiltrationSpec,
    MalformedFamily,
    filtration,
    poset_ideal_filtration,
    _search_moves,
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
    # colon is taken by that form
    D = diamond()
    fam = filtration(D, [[], ["x"], ["x", "x + y", "y"], ["x", "z"], list(D.labels)])
    rep = verify_filtration(D, fam)
    assert not rep.passed
    (w,) = [w for w in rep.witnesses if w.member_index == 2]
    assert (w.j_index, w.colon_member_index) == (1, 3)
    assert str(w.cyclic_generator) == "y + x"
    assert w.colon.divisors == (w.cyclic_generator,)


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


def _count_moves(monkeypatch):
    import joinmeet.koszul as koszul

    calls = []
    real = koszul.colon_in_H

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(koszul, "colon_in_H", counted)
    return calls


def test_found_search_makes_one_move_per_member(monkeypatch):
    calls = _count_moves(monkeypatch)
    fam = search_combinatorial(divisor_lattice(36))
    assert len(fam) == 19
    # at most one per non-zero member, of 511 non-empty subsets; the orbit of
    # a move under the swap of divisor(36)'s two chains 1 < 2 < 4, 1 < 3 < 9
    # decides the mirrored move too
    assert len(calls) == 14


def test_certified_none_makes_the_fixpoints_moves(monkeypatch):
    # one colon decides each move's whole orbit under Aut(L), and the
    # fixpoint deletes a subset as soon as it has no surviving move, so a
    # move whose piece S \ {x} is already dead takes no colon: M3-on-M3
    # (|Aut| = 36) decides its 512 subsets in 17 colons, M_8 (|Aut| = 8!)
    # its 1,024 in 12, and the 12-element M3-on-M3 with a chain on top its
    # 4,096 in 62.  The walk on pentagon meets a dead end, so its found
    # search runs the fixpoint too
    calls = _count_moves(monkeypatch)
    for L, found, colons in [
        (m3_on_m3(), False, 17),
        (m_lattice(8), False, 12),
        (data_lattice("m3_on_m3_chain"), False, 62),
        (stacked_diamond(), False, 21),
        (diamond(), False, 7),
        (pentagon(), True, 30),
    ]:
        calls.clear()
        assert (search_combinatorial(L) is not None) == found, L
        assert len(calls) == colons, L


@pytest.mark.parametrize("d", [60, 72])
def test_twelve_element_search_verifies_and_replays(d):
    L = divisor_lattice(d)
    assert L.n == 12
    fam = search_combinatorial(L)
    rep = verify_filtration(L, fam)
    assert rep.passed and rep.replay(fam)


def test_search_respects_cap():
    with pytest.raises(CapExceeded):
        search_combinatorial(boolean(2), cap=3)


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
    the moves, and its subset ideals parsed from element labels."""
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
            rep = colon_in_H(subset_ideal(mask & ~(1 << x)), variable(L, x))
            target = sum(1 << a for a in rep.variables) if rep.variable_generated else None
            moves[(mask, x)] = (rep.variable_generated, target)
        return moves[(mask, x)]

    def first_move(mask, survivors):
        for x in range(n):
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
    # the search's memo, which fills whole orbits, agrees with every colon
    L = build()
    generators = L.automorphism_generators()
    assert generators
    moves = {}
    for mask in range(1, 1 << L.n):
        members = [a for a in range(L.n) if mask >> a & 1]
        for x in members:
            J = residue_ideal(L, [L.labels[a] for a in members if a != x])
            rep = colon_in_H(J, variable(L, x))
            moves[mask, x] = (
                sum(1 << a for a in rep.variables) if rep.variable_generated else None
            )
    for (mask, x), target in moves.items():
        for sigma in generators:
            want = None if target is None else _image(sigma, target)
            assert moves[_image(sigma, mask), sigma[x]] == want, (mask, x, sigma)
    _, move = _search_moves(L)
    assert {pair: move(*pair) for pair in moves} == moves


# ---------------------------------------------------------------------------
# claim_check


def test_claim_pentagon_bottom():
    P = pentagon()
    rep = claim_check(P, {P.index("e")}, P.index("e"))
    assert not rep.linear_generated
    assert rep.span_matches
    assert rep.pentagon_with_min_e and not rep.diamond_with_min_e


def test_claim_diamond_bottom():
    D = diamond()
    rep = claim_check(D, {D.index("e")}, D.index("e"))
    assert not rep.linear_generated
    assert rep.span_matches
    assert rep.diamond_with_min_e


def test_claim_distributive_case_is_linear():
    B = boolean(2)
    rep = claim_check(B, {B.index("o")}, B.index("o"))
    assert rep.linear_generated and rep.span_matches
    assert not rep.pentagon_with_min_e and not rep.diamond_with_min_e


def test_claim_requires_maximal_element():
    P = pentagon()
    with pytest.raises(ValueError):
        claim_check(P, {P.index("e"), P.index("y")}, P.index("e"))


def test_claim_holds_wherever_pentagon_or_diamond_sits_at_e():
    # wherever a pentagon or diamond sits with its minimum at e, the colon
    # must fail to be linear-form generated
    for L in [pentagon(), diamond(), stacked_diamond()]:
        for s in L.poset_ideals():
            for e in L.maximal_elements(s.members):
                rep = claim_check(L, s, e)
                if rep.pentagon_with_min_e or rep.diamond_with_min_e:
                    assert not rep.linear_generated
                assert rep.span_matches

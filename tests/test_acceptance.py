"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated runtime bound.
"""

import random
import time
from itertools import combinations_with_replacement

from conftest import modular_corpus, small_corpus
from joinmeet.groebner import (
    buchberger,
    colon_element,
    groebner_basis,
    ideal,
    ideal_member,
    reduce_basis,
)
from joinmeet.hibi import (
    claim_check,
    colon_in_H_by_ideal,
    join_meet_ideal,
    lattice_ring,
    residue_ideal,
)
from joinmeet.koszul import (
    filtration,
    poset_ideal_filtration,
    search_combinatorial,
    verify_filtration,
)
from joinmeet.lattice import (
    Lattice,
    NotALattice,
    boolean,
    chain,
    diamond,
    divisor_lattice,
    pentagon,
)
from oracles import (
    macaulay_member,
    naturally_labeled_posets,
    poset_covers,
    poset_is_lattice,
)
from test_reducer import reference_buchberger, reference_reduce_basis

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

# (J generators, colon-by generators, expected result generators)
PENTAGON_EQUALITIES = [
    ([], ["x"], []),
    (["x"], ["y"], ["z", "x"]),
    (["x"], ["z"], ["y", "x"]),
    (["x", "y"], ["z"], ["x", "y"]),
    (["x", "y", "z"], ["e"], ["x", "y", "z", "f"]),
    (["x", "y", "z"], ["f"], ["x", "y", "z", "e"]),
    (["x", "y", "z", "e"], ["f"], ["x", "y", "z", "e"]),
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

DIAMOND_EQUALITIES = [
    ([], ["x"], ["y - z"]),
    ([], ["y - z"], ["x"]),
    (["x"], ["y"], ["x", "z"]),
    (["x"], ["z"], ["x", "y"]),
    (["x", "y"], ["z"], ["x", "y"]),
    (["x", "y", "z"], ["e"], ["x", "y", "z", "f"]),
    (["x", "y", "z"], ["f"], ["x", "y", "z", "e"]),
    (["x", "y", "z", "e"], ["f"], ["x", "y", "z", "e"]),
]


def conclude(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def check_equalities(L, equalities):
    hits = 0
    for j_gens, by_gens, expected_gens in equalities:
        J = residue_ideal(L, j_gens)
        report = colon_in_H_by_ideal(J, residue_ideal(L, by_gens))
        expected = residue_ideal(L, expected_gens)
        assert report.linear_generated
        assert residue_ideal(L, report.degree1) == expected, (j_gens, by_gens, expected_gens)
        # and the lifts have identical reduced bases: the keys compare spans,
        # and the bases are compared as well
        assert report.semantic_key() == expected.semantic_key()
        assert report.groebner.basis == groebner_basis(expected.lift).basis
        hits += 1
    return hits


def test_criterion_1_pentagon_regression():
    t0 = time.perf_counter()
    P = pentagon()
    hits = check_equalities(P, PENTAGON_EQUALITIES)
    fam = filtration(P, PENTAGON_FAMILY)
    rep = verify_filtration(P, fam)
    elapsed = time.perf_counter() - t0
    ok = hits == 7 and rep.passed and len(rep.witnesses) == 7 and elapsed < 5.0
    conclude(1, ok, f"pentagon: 7/7 colon equalities, family verifies ({elapsed:.2f}s)")


def test_criterion_2_diamond_regression():
    t0 = time.perf_counter()
    D = diamond()
    hits = check_equalities(D, DIAMOND_EQUALITIES)
    fam = filtration(D, DIAMOND_FAMILY)
    rep = verify_filtration(D, fam)
    elapsed = time.perf_counter() - t0
    ok = hits == 8 and rep.passed and len(rep.witnesses) == 8 and elapsed < 5.0
    conclude(2, ok, f"diamond: 8/8 colon equalities incl. (0):(x)=(y-z), "
                    f"family verifies ({elapsed:.2f}s)")


def test_criterion_3_search_boundary():
    t0 = time.perf_counter()
    D = diamond()
    absent = search_combinatorial(D) is None
    t_diamond = time.perf_counter() - t0

    t0 = time.perf_counter()
    P = pentagon()
    fam = search_combinatorial(P)
    found = fam is not None
    replayed = found and verify_filtration(P, fam).replay(fam)
    t_pentagon = time.perf_counter() - t0

    ok = (
        absent
        and found
        and replayed
        and (1 << D.n) == 32
        and t_diamond < 30.0
        and t_pentagon < 30.0
    )
    conclude(3, ok, f"search: diamond certified none over 32 subsets "
                    f"({t_diamond:.2f}s), pentagon family found and replayed "
                    f"({t_pentagon:.2f}s)")


def test_criterion_4_poset_ideal_filtrations():
    t0 = time.perf_counter()
    cases = [
        ("chain(2)", chain(2), 3),
        ("chain(3)", chain(3), 4),
        ("chain(4)", chain(4), 5),
        ("chain(5)", chain(5), 6),
        ("boolean(2)", boolean(2), 6),
        ("boolean(3)", boolean(3), 20),
        ("divisor(12)", divisor_lattice(12), 10),
        ("divisor(30)", divisor_lattice(30), 20),
    ]
    all_ok = True
    for name, L, expected_members in cases:
        fam = poset_ideal_filtration(L)
        rep = verify_filtration(L, fam)
        all_ok &= len(fam.members) == expected_members and rep.passed
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    conclude(4, ok, f"poset-ideal family is a Koszul filtration on all 8 "
                    f"distributive corpus lattices ({elapsed:.2f}s)")


def test_criterion_5_claim():
    P = pentagon()
    D = diamond()
    rp = claim_check(P, {P.index("e")}, P.index("e"))
    rd = claim_check(D, {D.index("e")}, D.index("e"))
    negatives = not rp.linear_generated and not rd.linear_generated

    span_cases = 0
    span_ok = True
    for L in small_corpus(6):
        for s in L.poset_ideals():
            if not s:
                continue
            for e in L.maximal_elements(s):
                span_cases += 1
                span_ok &= claim_check(L, s, e).span_matches
    ok = negatives and span_ok and rp.span_matches and rd.span_matches
    conclude(5, ok, f"claim: colon not linear on pentagon/diamond at e=bottom; "
                    f"degree-1 span equals span{{a : a ≱ e}} in all "
                    f"{span_cases} corpus cases")


def test_criterion_6_lattice_law_equivalences():
    t0 = time.perf_counter()
    lattices = 0
    disagreements = 0
    for down in naturally_labeled_posets(6):
        n = len(down)
        labels = [f"v{i}" for i in range(n)]
        covers = [(labels[a], labels[b]) for a, b in poset_covers(down)]
        if not poset_is_lattice(down):
            try:
                Lattice.from_covers(labels, covers)
                disagreements += 1
            except NotALattice:
                pass
            continue
        L = Lattice.from_covers(labels, covers)
        lattices += 1
        if L.is_modular() != (L.find_pentagon() is None):
            disagreements += 1
        if L.is_distributive() != (
            L.find_pentagon() is None and L.find_diamond() is None
        ):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and lattices >= 51  # 1+1+1+2+7+39 labeled lattices
    conclude(6, ok, f"identity laws agree with N5/M3 detection on all "
                    f"{lattices} lattices with ≤ 6 elements "
                    f"({disagreements} disagreements, {elapsed:.1f}s)")


def test_criterion_7_rank_identity():
    checked = 0
    ok = True
    for L in modular_corpus():
        ok &= L.is_pure()
        for p in range(L.n):
            for q in range(L.n):
                checked += 1
                ok &= L.rank(p) + L.rank(q) == L.rank(L.meet(p, q)) + L.rank(
                    L.join(p, q)
                )
    ok &= not pentagon().is_pure()
    conclude(7, ok, f"rank(p)+rank(q)=rank(p∧q)+rank(p∨q) over {checked} pairs "
                    f"on the modular corpus; pentagon reports is_pure=false")


def _degree_le_3_monomials(ring):
    gens = list(ring.gens())
    monoms = [ring.one()]
    monoms += gens
    monoms += [a * b for a, b in combinations_with_replacement(gens, 2)]
    monoms += [a * b * c for a, b, c in combinations_with_replacement(gens, 3)]
    return monoms


def test_criterion_8_groebner_engine_properties():
    t0 = time.perf_counter()

    # (a) reduced-basis uniqueness across pair orders: the engine's smallest
    #     lcm first against the tests' reference Buchberger and reducer in
    #     pair creation order, which share no kernel code with the engine
    unique_ok = True
    order_cases = 0
    for L in [pentagon(), diamond(), boolean(2), divisor_lattice(12)]:
        R = lattice_ring(L)
        jm = join_meet_ideal(L)
        gens_list = [
            jm.generators,
            jm.generators + (R.var(L.labels[L.bottom]),),
            jm.generators + (R.parse(f"{L.labels[L.top]} - {L.labels[L.bottom]}"),),
        ]
        for gens in gens_list:
            if not gens:
                continue
            order_cases += 1
            a = reduce_basis(buchberger(gens))
            b = reference_reduce_basis(reference_buchberger(gens, strategy="first"))
            unique_ok &= a.basis == b.basis

    # (b) membership agreement with the Macaulay-matrix oracle, all
    #     monomial probes of degree <= 3 plus seeded combinations,
    #     on every corpus lattice with <= 5 elements
    member_ok = True
    member_probes = 0
    rng = random.Random(2026)
    for L in [chain(2), chain(3), chain(4), chain(5), boolean(2), pentagon(), diamond()]:
        if L.n > 5:
            continue
        R = lattice_ring(L)
        jm = join_meet_ideal(L)
        for extra in [(), (R.var(L.labels[L.bottom]),)]:
            I = ideal(R, jm.generators + extra)
            monoms = _degree_le_3_monomials(R)
            probes = list(monoms)
            for _ in range(60):
                f = R.zero()
                for _ in range(rng.randint(1, 3)):
                    f = f + rng.randint(-3, 3) * rng.choice(monoms)
                probes.append(f)
            for f in probes:
                member_probes += 1
                member_ok &= ideal_member(f, I) == macaulay_member(I.generators, f)

    # (c) colon bidirectional contract on >= 1000 sampled probes
    colon_ok = True
    colon_probes = 0
    for L in [pentagon(), diamond()]:
        R = lattice_ring(L)
        jm = join_meet_ideal(L)
        monoms = [m for m in _degree_le_3_monomials(R) if m.total_degree() <= 2]
        for divisor_text in [L.labels[L.bottom], L.labels[L.top], "x", "y - z"]:
            f = R.parse(divisor_text)
            I = ideal(
                R, jm.generators + (R.var("x"),)
            ) if divisor_text == "y - z" else ideal(R, jm.generators)
            colon = colon_element(I, f)
            for _ in range(150):
                g = R.zero()
                for _ in range(rng.randint(1, 3)):
                    g = g + rng.randint(-2, 2) * rng.choice(monoms)
                colon_probes += 1
                colon_ok &= ideal_member(g, colon) == ideal_member(g * f, I)

    elapsed = time.perf_counter() - t0
    ok = unique_ok and member_ok and colon_ok and colon_probes >= 1000
    conclude(8, ok, f"engine: pair-order-independent reduced bases "
                    f"({order_cases} ideals), Macaulay agreement on "
                    f"{member_probes} membership probes, colon contract on "
                    f"{colon_probes} probes, zero violations ({elapsed:.1f}s)")

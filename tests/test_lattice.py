import warnings
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial, prod

import pytest

from conftest import corpus, data_lattice, m3_on_m3, m_lattice, modular_corpus, stacked_diamond
from joinmeet import lattice
from joinmeet.errors import InputError
from joinmeet.lattice import (
    MAX_DIVISOR_N,
    MAX_ELEMENTS,
    CyclicCovers,
    Lattice,
    NotALattice,
    NotPureWarning,
    boolean,
    chain,
    diamond,
    divisor_lattice,
    pentagon,
)
from oracles import (
    brute_force_poset_ideals,
    naturally_labeled_posets,
    poset_covers,
    poset_is_lattice,
)


# ---------------------------------------------------------------------------
# construction


def test_pentagon_from_covers_shape(P):
    assert set(P.labels) == {"e", "x", "y", "z", "f"}
    e, x, y, z, f = (P.index(c) for c in "exyzf")
    assert P.bottom == e and P.top == f
    assert P.le(e, y) and P.le(y, x) and P.le(x, f)
    assert P.le(e, z) and P.le(z, f)
    assert not P.le(z, x) and not P.le(x, z)


def test_singleton_lattice():
    L = Lattice.from_covers(["a"], [])
    assert L.bottom == L.top == 0
    assert L.is_modular() and L.is_distributive() and L.is_pure()


def test_missing_join_rejected():
    with pytest.raises(NotALattice):
        Lattice.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])


def test_two_incomparable_maximal_rejected():
    with pytest.raises(NotALattice):
        Lattice.from_covers(["a", "b", "c"], [("a", "b"), ("a", "c")])


def test_cyclic_covers_rejected():
    with pytest.raises(CyclicCovers):
        Lattice.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CyclicCovers):
        Lattice.from_covers(["a"], [("a", "a")])


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        Lattice.from_covers(["a", "b"], [("a", "q")])


def test_empty_lattice_rejected():
    with pytest.raises(NotALattice):
        Lattice.from_covers([], [])


def test_redundant_cover_edges_are_canonicalized():
    direct = Lattice.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    redundant = Lattice.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert direct.covers == redundant.covers
    assert redundant.rank(redundant.index("c")) == 2


# ---------------------------------------------------------------------------
# join / meet


def test_pentagon_join_meet(P):
    x, z, e, f = P.index("x"), P.index("z"), P.index("e"), P.index("f")
    assert P.join(x, z) == f
    assert P.meet(x, z) == e


def test_join_idempotent_everywhere():
    for L in corpus():
        for a in range(L.n):
            assert L.join(a, a) == a
            assert L.meet(a, a) == a


def test_diamond_meets(D):
    e = D.index("e")
    mids = [D.index(c) for c in "xyz"]
    for a, b in combinations(mids, 2):
        assert D.meet(a, b) == e


def test_lattice_laws_exhaustive_small_corpus():
    # absorption, idempotence, commutativity, associativity over all
    # pairs/triples for every corpus lattice with at most 8 elements
    for L in corpus():
        if L.n > 8:
            continue
        for a, b in product(range(L.n), repeat=2):
            assert L.join(a, b) == L.join(b, a)
            assert L.meet(a, b) == L.meet(b, a)
            assert L.join(a, L.meet(a, b)) == a
            assert L.meet(a, L.join(a, b)) == a
        for a, b, c in product(range(L.n), repeat=3):
            assert L.join(a, L.join(b, c)) == L.join(L.join(a, b), c)
            assert L.meet(a, L.meet(b, c)) == L.meet(L.meet(a, b), c)


def test_join_is_least_upper_bound():
    for L in corpus():
        for a, b in product(range(L.n), repeat=2):
            j = L.join(a, b)
            assert L.le(a, j) and L.le(b, j)
            for u in range(L.n):
                if L.le(a, u) and L.le(b, u):
                    assert L.le(j, u)


def _brute_force_bounds(down):
    """Each pair's least upper and greatest lower bound, or None."""
    n = len(down)
    up = [{b for b in range(n) if a in down[b]} for a in range(n)]
    bounds = {}
    for a, b in product(range(n), repeat=2):
        uppers, lowers = up[a] & up[b], down[a] & down[b]
        least = [u for u in uppers if all(u in down[v] for v in uppers)]
        greatest = [g for g in lowers if all(v in down[g] for v in lowers)]
        bounds[a, b] = (least[0] if len(least) == 1 else None,
                        greatest[0] if len(greatest) == 1 else None)
    return bounds


def test_join_meet_tables_match_brute_force_bounds():
    for L in corpus():
        down = [frozenset(v for v in range(L.n) if L.le(v, i)) for i in range(L.n)]
        for (a, b), bounds in _brute_force_bounds(down).items():
            assert (L.join(a, b), L.meet(a, b)) == bounds
    lattices = rejected = 0
    for down in naturally_labeled_posets(6):
        labels = [f"v{i}" for i in range(len(down))]
        covers = [(labels[a], labels[b]) for a, b in poset_covers(down)]
        bounds = _brute_force_bounds(down)
        if any(None in pair for pair in bounds.values()):
            with pytest.raises(NotALattice):
                Lattice.from_covers(labels, covers)
            rejected += 1
            continue
        L = Lattice.from_covers(labels, covers)
        lattices += 1
        for (a, b), pair in bounds.items():
            assert (L.join(a, b), L.meet(a, b)) == pair
    assert lattices and rejected


# ---------------------------------------------------------------------------
# incomparable pairs


def _brute_incomparable(L):
    return [
        (a, b)
        for a, b in combinations(range(L.n), 2)
        if not L.le(a, b) and not L.le(b, a)
    ]


def test_incomparable_pairs():
    assert chain(4).incomparable_pairs() == []
    P = pentagon()
    assert {frozenset(p) for p in P.incomparable_pairs()} == {
        frozenset((P.index("x"), P.index("z"))),
        frozenset((P.index("y"), P.index("z"))),
    }
    D = diamond()
    assert len(D.incomparable_pairs()) == 3
    for L in corpus():
        assert sorted(map(sorted, L.incomparable_pairs())) == sorted(
            map(sorted, _brute_incomparable(L))
        )


# ---------------------------------------------------------------------------
# modular / distributive


def test_is_modular_examples(P, D):
    assert not P.is_modular()
    assert D.is_modular()
    assert boolean(3).is_modular()


def test_is_distributive_examples(D):
    assert not D.is_distributive()
    for n in range(1, 6):
        assert chain(n).is_distributive()
    assert divisor_lattice(12).is_distributive()


def test_distributive_brute_force_triples():
    for L in [divisor_lattice(12), boolean(2), pentagon(), diamond()]:
        expected = all(
            L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
            for a in range(L.n)
            for b in range(L.n)
            for c in range(L.n)
        )
        assert L.is_distributive() == expected


@pytest.mark.parametrize("name, n", [("m3_c3", 15), ("m3_on_m3_chain", 12), ("m10", 12)])
def test_shipped_search_lattices_are_modular_and_not_distributive(name, n):
    # a modular lattice is distributive iff H[L] has a combinatorial Koszul
    # filtration, so the search must certify none on each of these
    L = data_lattice(name)
    assert L.n == n
    assert L.is_modular() and not L.is_distributive()


def test_distributive_implies_modular():
    for L in corpus():
        if L.is_distributive():
            assert L.is_modular()


# ---------------------------------------------------------------------------
# pentagon / diamond detection


def test_find_pentagon_self(P):
    assert P.find_pentagon() == frozenset(range(5))
    assert P.find_diamond() is None


def test_find_diamond_self(D):
    assert D.find_diamond() == frozenset(range(5))
    assert D.find_pentagon() is None


def test_boolean2_has_no_diamond():
    assert boolean(2).find_diamond() is None
    assert boolean(2).find_pentagon() is None


def test_detection_matches_identities_on_corpus():
    for L in corpus():
        assert L.is_modular() == (L.find_pentagon() is None)
        assert L.is_distributive() == (
            L.find_pentagon() is None and L.find_diamond() is None
        )


def test_sublattices_are_closed():
    for L in corpus():
        for sub in (L.find_pentagon(), L.find_diamond(), L.find_rank2_diamond()):
            if sub is not None:
                members = set(sub)
                for a in members:
                    for b in members:
                        assert L.join(a, b) in members and L.meet(a, b) in members


# ---------------------------------------------------------------------------
# purity and rank


def test_diamond_ranks(D):
    assert D.rank(D.index("e")) == 0
    assert D.rank(D.index("x")) == 1
    assert D.rank(D.index("f")) == 2


def test_pentagon_not_pure(P):
    assert not P.is_pure()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert P.rank(P.index("f")) == 3
    assert any(issubclass(w.category, NotPureWarning) for w in caught)


def test_chain_rank():
    for n in range(1, 6):
        L = chain(n)
        assert L.is_pure()
        assert L.rank(L.top) == n - 1


def test_rank_identity_on_modular_corpus():
    for L in modular_corpus():
        assert L.is_pure()
        for p, q in product(range(L.n), repeat=2):
            assert L.rank(p) + L.rank(q) == L.rank(L.meet(p, q)) + L.rank(L.join(p, q))


# ---------------------------------------------------------------------------
# rank-2 diamond finder


def test_rank2_diamond_on_diamond(D):
    sub = D.find_rank2_diamond()
    assert type(sub) is frozenset and sub == frozenset(range(5))
    members = sorted(sub)
    e, f = members[0], members[-1]
    assert D.rank(f) - D.rank(e) == 2


def test_rank2_diamond_absent_for_distributive():
    assert boolean(3).find_rank2_diamond() is None
    assert chain(4).find_rank2_diamond() is None


def test_rank2_diamond_absent_for_non_modular(P):
    assert P.find_rank2_diamond() is None


def test_rank2_diamond_on_stacked_lattice():
    L = stacked_diamond()
    assert L.n == 7 and L.is_modular() and not L.is_distributive()
    sub = L.find_rank2_diamond()
    assert sub is not None
    bottom = next(a for a in sub if all(L.le(a, b) for b in sub))
    top = next(a for a in sub if all(L.le(b, a) for b in sub))
    assert L.rank(top) - L.rank(bottom) == 2
    # the open interval consists of pairwise-incomparable elements with
    # join top and meet bottom
    interval = [
        v
        for v in range(L.n)
        if L.le(bottom, v) and L.le(v, top) and v not in (bottom, top)
    ]
    assert len(interval) >= 3
    for a, b in combinations(interval, 2):
        assert not L.le(a, b) and not L.le(b, a)
        assert L.join(a, b) == top and L.meet(a, b) == bottom


# ---------------------------------------------------------------------------
# poset ideals


def test_chain_ideals_are_prefixes():
    assert len(chain(3).poset_ideals()) == 4


def test_boolean2_ideal_count():
    assert len(boolean(2).poset_ideals()) == 6


def test_pentagon_ideals_match_listing(P):
    expected = [
        set(),
        {"e"},
        {"e", "y"},
        {"e", "z"},
        {"e", "y", "x"},
        {"e", "y", "z"},
        {"e", "y", "x", "z"},
        {"e", "y", "x", "z", "f"},
    ]
    got = [P.label_set(s) for s in P.poset_ideals()]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))


def test_poset_ideals_match_brute_force():
    for L in corpus():
        if L.n > 12:
            continue
        assert L.poset_ideals() == brute_force_poset_ideals(L)
    # the stated enumeration boundary: 2^12 subsets
    L = chain(12)
    assert L.poset_ideals() == brute_force_poset_ideals(L)


def test_poset_ideals_are_frozensets_of_element_indices():
    # boolean(3): o, a, b, c, ab, ac, bc, abc are elements 0..7
    got = boolean(3).poset_ideals()
    assert all(type(s) is frozenset for s in got)
    assert got == [frozenset(s) for s in [
        [], [0], [0, 1], [0, 2], [0, 3], [0, 1, 2], [0, 1, 3], [0, 2, 3], [0, 1, 2, 3],
        [0, 1, 2, 4], [0, 1, 3, 5], [0, 2, 3, 6], [0, 1, 2, 3, 4], [0, 1, 2, 3, 5],
        [0, 1, 2, 3, 6], [0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 5, 6],
        [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7],
    ]]


def test_poset_ideals_stop_past_the_bound(monkeypatch):
    # boolean(5) has 7,581 poset ideals, within the bound; boolean(4) has
    # 168, the Dedekind number M(4), which a bound of 167 refuses
    assert len(boolean(5).poset_ideals()) == 7581
    monkeypatch.setattr(lattice, "MAX_POSET_IDEALS", 168)
    assert len(boolean(4).poset_ideals()) == 168
    monkeypatch.setattr(lattice, "MAX_POSET_IDEALS", 167)
    with pytest.raises(InputError, match="more than 167 poset ideals"):
        boolean(4).poset_ideals()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Lattice(["a", "a"], []), "labels must be distinct"),
        (lambda: Lattice(["a", "b"], [(0, 2)]), r"cover pair \(0, 2\) out of range"),
        (lambda: divisor_lattice(0), "n must be positive"),
        (lambda: Lattice(["", "a"], [(0, 1)]), "labels must not be empty"),
    ],
    ids=["duplicate-labels", "cover-out-of-range", "divisor-0", "empty-label"],
)
def test_malformed_lattice_input_is_an_input_error(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_poset_ideal_validation(P):
    with pytest.raises(ValueError):
        P.poset_ideal({P.index("x")})  # x without y and e below it
    ok = P.poset_ideal({P.index("e"), P.index("y")})
    assert ok == {P.index("e"), P.index("y")} and type(ok) is frozenset


def test_maximal_elements(P):
    members = {P.index("e"), P.index("y"), P.index("z")}
    assert set(P.maximal_elements(members)) == {P.index("y"), P.index("z")}


# ---------------------------------------------------------------------------
# builders


def test_boolean_sizes():
    for n in range(1, 4):
        assert boolean(n).n == 2**n


def test_named_lattices_count_elements_before_building(monkeypatch):
    assert divisor_lattice(999999999989).labels == ("1", "999999999989")  # a prime
    too_big = [
        (chain, MAX_ELEMENTS + 1),
        (boolean, MAX_ELEMENTS.bit_length()),
        (boolean, 10**9),
        (divisor_lattice, 963761198400),  # 6720 divisors
        (divisor_lattice, MAX_DIVISOR_N + 1),
    ]
    for build, n in too_big:
        with pytest.raises(ValueError, match=f"more than {MAX_ELEMENTS} elements|above"):
            build(n)
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 8)
    assert (chain(8).n, boolean(3).n, divisor_lattice(30).n) == (8, 8, 8)
    for build, n in ((chain, 9), (boolean, 4), (divisor_lattice, 48)):
        with pytest.raises(ValueError, match="more than 8 elements"):
            build(n)


def test_divisor_lattice_12():
    L = divisor_lattice(12)
    assert L.labels == ("1", "2", "3", "4", "6", "12")
    a, b = L.index("4"), L.index("6")
    assert L.labels[L.join(a, b)] == "12"
    assert L.labels[L.meet(a, b)] == "2"


def test_linear_extension_is_topological_and_deterministic():
    for L in corpus():
        pos = {e: i for i, e in enumerate(L.linear_extension)}
        for a, b in L.covers:
            assert pos[a] < pos[b]
    assert pentagon().linear_extension == pentagon().linear_extension
    assert pentagon().linear_extension[0] == pentagon().bottom


# ---------------------------------------------------------------------------
# automorphisms


def _closure(generators, n):
    """The group the permutations generate, listed by composing them."""
    group = {tuple(range(n))}
    stack = list(group)
    while stack:
        g = stack.pop()
        for s in generators:
            h = tuple(s[g[e]] for e in range(n))
            if h not in group:
                group.add(h)
                stack.append(h)
    return group


def _level(L, sigma):
    """The first position of the linear extension that sigma moves."""
    return next(k for k, e in enumerate(L.linear_extension) if sigma[e] != e)


def _order_by_levels(L):
    counts = Counter(_level(L, sigma) for sigma in L.automorphism_generators())
    return prod(1 + c for c in counts.values())


def test_automorphism_generators_match_brute_force():
    lattices = 0
    for down in naturally_labeled_posets(6):
        if not poset_is_lattice(down):
            continue
        n = len(down)
        labels = [f"v{i}" for i in range(n)]
        L = Lattice.from_covers(labels, [(labels[a], labels[b]) for a, b in poset_covers(down)])
        brute = {
            p
            for p in permutations(range(n))
            if all((a in down[b]) == (p[a] in down[p[b]]) for a in range(n) for b in range(n))
        }
        generators = L.automorphism_generators()
        assert _closure(generators, n) == brute
        assert _order_by_levels(L) == len(brute)
        assert len(generators) <= n * (n - 1) // 2
        for sigma in generators:
            k = _level(L, sigma)
            assert all(sigma[e] == e for e in L.linear_extension[:k])
        lattices += 1
    assert lattices == 51  # 25 lattices up to isomorphism, each once per natural labeling


@pytest.mark.parametrize(
    "build, order",
    [
        (m3_on_m3, 36),
        (lambda: boolean(4), 24),
        (lambda: divisor_lattice(36), 2),
        (lambda: divisor_lattice(72), 1),
        (lambda: m_lattice(10), factorial(10)),
    ],
    ids=["m3-on-m3", "boolean(4)", "divisor(36)", "divisor(72)", "M_10"],
)
def test_automorphism_group_order(build, order):
    L = build()
    covers = set(L.covers)
    for sigma in L.automorphism_generators():
        assert {(sigma[a], sigma[b]) for a, b in L.covers} == covers
    assert _order_by_levels(L) == order
    assert L.automorphism_generators() is L.automorphism_generators()

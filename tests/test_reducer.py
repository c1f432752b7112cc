"""normal_form and reduce_basis against the code they replaced, and linalg
against the oracle.

reference_normal_form is the division loop without a lead table or support
masks: it rebuilds the leading terms of G on every call and tests each lead
with the exponent comparison alone.  The prepared reducer must give the same
remainder for every sequence G, Groebner basis or not, because Buchberger's
pair sequence depends on the remainders of non-bases.  The zero test, which
stops at the first remainder term, must agree with that remainder being
zero.  ideal_member sums cached normal forms of single monomials, and must
agree with f's own remainder being zero and with the Macaulay-matrix oracle.

reference_reduce_basis repeats the tail reductions, by
reference_normal_form, until none changes an element; reduce_basis makes one
pass and must give the same basis.

reference_buchberger and reference_s_polynomial are the pair loop and the
S-polynomial before the growing lead table, the bitmask pair tests and the
monic fast path: every pair's lcm recomputed from the basis, the coprime test
by exponent sums, the chain criterion by exponent comparison alone, each
remainder by reference_normal_form, and S-polynomials by scaling, negating
and adding.  buchberger must return the same basis, element for element.

reference_split_linear substitutes the echelon form of the linear generators
out of the others by normal_form, which _split_linear skips when every linear
generator is one term.  reference_product and reference_divide_exact are the
general product and division loops: a one-term factor skips the first, and
the colon's quotient by one variable, _divided_by, must agree with the
second.
"""

import heapq

import random
from fractions import Fraction
from functools import cached_property

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import cold_copy, corpus, m3_on_m3
from joinmeet import groebner, linalg
from joinmeet.groebner import (
    GroebnerBasis,
    Ideal,
    _codec_of,
    _divided_by,
    _Divisors,
    _divisors_of,
    _remainder_terms,
    _ring_with_last,
    _split_linear,
    buchberger,
    groebner_basis,
    ideal,
    ideal_member,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from joinmeet.hibi import join_meet_ideal, lattice_ring
from joinmeet.poly import Polynomial, Ring, degrevlex
from joinmeet.lattice import boolean, diamond, divisor_lattice, pentagon

# the reference kernel computes on Fractions alone: an engine coefficient
# may be an int, and int / int is a float
ONE = Fraction(1)


def reference_normal_form(f, G):
    if isinstance(G, GroebnerBasis):
        G = G.basis
    leads = [(g.leading_monomial(), g.leading_term()[1], g) for g in G if g]
    if not leads or not f:
        return f
    ring = f.ring
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=ring.key)
        c = work.pop(m)
        for lm, lc, g in leads:
            if all(x <= y for x, y in zip(lm, m)):
                q = tuple(x - y for x, y in zip(m, lm))
                qc = Fraction(c) / lc
                for mg, cg in g.terms[1:]:
                    mm = tuple(x + y for x, y in zip(q, mg))
                    v = work.get(mm)
                    v = -qc * cg if v is None else v - qc * cg
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return ring.from_dict(remainder)


def reference_reduce_basis(gb):
    basis = gb.basis if isinstance(gb, GroebnerBasis) else tuple(gb)
    ring = gb.ring if isinstance(gb, GroebnerBasis) else basis[0].ring
    key = ring.key
    polys = sorted((g.monic() for g in basis if g), key=lambda g: key(g.leading_monomial()))
    kept = []
    for g in polys:
        lm = g.leading_monomial()
        if not any(all(x <= y for x, y in zip(h.leading_monomial(), lm)) for h in kept):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            r = reference_normal_form(kept[i], kept[:i] + kept[i + 1 :])
            if r != kept[i]:
                kept[i] = r.monic()
                changed = True
    kept.sort(key=lambda g: key(g.leading_monomial()))
    return GroebnerBasis(ring, tuple(kept))


def reference_s_polynomial(f, g):
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = tuple(max(x, y) for x, y in zip(lmf, lmg))
    a = tuple(x - y for x, y in zip(lcm, lmf))
    b = tuple(x - y for x, y in zip(lcm, lmg))
    return f.shift(a, ONE / lcf) - g.shift(b, ONE / lcg)


def reference_buchberger(gens, strategy="normal", ring=None):
    gens = list(gens)
    basis = [g.monic() for g in gens if g]
    if not basis:
        return GroebnerBasis(ring or gens[0].ring, ())
    ring = basis[0].ring
    key = ring.key

    def lcm_of(i, j):
        lmi, lmj = basis[i].leading_monomial(), basis[j].leading_monomial()
        return tuple(max(x, y) for x, y in zip(lmi, lmj))

    pairs = []
    counter = 0

    def push(i, j):
        nonlocal counter
        lcm = lcm_of(i, j)
        entry = (sum(lcm), key(lcm), counter, i, j) if strategy == "normal" else (counter, 0, 0, i, j)
        heapq.heappush(pairs, entry)
        counter += 1

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push(i, j)
    done = set()
    while pairs:
        *_, i, j = heapq.heappop(pairs)
        lcm = lcm_of(i, j)
        done.add((i, j))
        if sum(lcm) == sum(basis[i].leading_monomial()) + sum(basis[j].leading_monomial()):
            continue
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not all(x <= y for x, y in zip(basis[k].leading_monomial(), lcm)):
                continue
            if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
                skip = True
                break
        if skip:
            continue
        r = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            for k in range(len(basis) - 1):
                push(k, len(basis) - 1)
    return GroebnerBasis(ring, tuple(basis))


def is_zero_remainder(f, G):
    """Whether f's remainder under G is zero, read up to its first term."""
    return not any(_remainder_terms(f, G, _codec_of(f.ring)))


def assert_zero_tests_match(f, G, ring, want):
    # want is reference_normal_form(f, G); G as a plain list, a growing
    # _Divisors list and a GroebnerBasis
    divisors = _Divisors(_codec_of(ring))
    for g in G:
        divisors.append(g)
    for H in (list(G), divisors, GroebnerBasis(ring, tuple(G))):
        assert is_zero_remainder(f, H) == (not want)


def random_poly(ring, rng, terms=5, top=2, degree=None):
    # exponents up to top, or monomials of total degree up to degree
    acc = {}
    for _ in range(rng.randint(1, terms)):
        if degree is None:
            m = tuple(rng.randint(0, top) if rng.random() < 0.4 else 0 for _ in range(ring.nvars))
        else:
            exps = [0] * ring.nvars
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(ring.nvars)] += 1
            m = tuple(exps)
        acc[m] = acc.get(m, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return ring.from_dict(acc)


def test_remainders_match_the_reference_on_corpus_bases():
    rng = random.Random(4)
    for L in corpus() + [m3_on_m3(), divisor_lattice(36)]:
        jm = join_meet_ideal(L)
        gb = groebner_basis(jm.ideal)
        ring = jm.ring
        for _ in range(40):
            f = random_poly(ring, rng)
            for g in rng.sample(jm.generators, min(2, len(jm.generators))):
                f = f + g * random_poly(ring, rng, terms=2, top=1)
            want = reference_normal_form(f, gb)
            assert normal_form(f, gb) == want
            assert_zero_tests_match(f, gb.basis, ring, want)
            # f minus its remainder is a member
            assert_zero_tests_match(f - want, gb.basis, ring, ring.zero())


def test_remainders_match_the_reference_on_unordered_lists():
    # generators of I_L are no basis, and several leads divide the same
    # terms, so the remainder depends on which dividing lead comes first
    rng = random.Random(5)
    for L in [pentagon(), diamond(), boolean(3), m3_on_m3()]:
        jm = join_meet_ideal(L)
        ring = jm.ring
        for _ in range(30):
            G = list(jm.generators) + [random_poly(ring, rng, terms=3) for _ in range(3)]
            rng.shuffle(G)
            f = random_poly(ring, rng, terms=6)
            want = reference_normal_form(f, G)
            assert normal_form(f, G) == want
            assert normal_form(f, GroebnerBasis(ring, tuple(G))) == want
            assert_zero_tests_match(f, G, ring, want)


def _polys(ring, max_terms, top=2, degree=None):
    # exponents up to top, or monomials of total degree up to degree
    monoms = st.tuples(*(st.integers(0, top) for _ in range(ring.nvars)))
    if degree is not None:
        monoms = st.lists(st.integers(0, ring.nvars - 1), max_size=degree).map(
            lambda vs: tuple(vs.count(i) for i in range(ring.nvars))
        )
    coeffs = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    return st.lists(st.tuples(monoms, coeffs), min_size=1, max_size=max_terms).map(
        lambda pairs: ring.from_dict(dict(pairs))
    )


PENTAGON_RING = lattice_ring(pentagon())


@settings(max_examples=150, deadline=None)
@given(f=_polys(PENTAGON_RING, 6), G=st.lists(_polys(PENTAGON_RING, 3), max_size=5))
def test_remainders_match_the_reference_on_random_polynomials(f, G):
    want = reference_normal_form(f, G)
    assert normal_form(f, G) == want
    assert normal_form(f, GroebnerBasis(PENTAGON_RING, tuple(G))) == want
    assert_zero_tests_match(f, G, PENTAGON_RING, want)


def test_reduced_bases_match_the_fixpoint_reference_on_corpus_bases():
    # Buchberger's output, for I_L and for I_L plus a few variables and a
    # linear form, leaves tails to reduce
    rng = random.Random(7)
    for L in corpus() + [m3_on_m3()]:
        jm = join_meet_ideal(L)
        gens = list(jm.generators)
        extra = rng.sample(jm.variables, min(2, L.n))
        extra.append(sum(jm.variables[1:], jm.variables[0]))
        for G in (gens, gens + extra):
            # the engine's basis, and the reference's in pair creation order,
            # which leaves other tails
            first = reference_buchberger(G, strategy="first", ring=jm.ring)
            for gb in (buchberger(G, ring=jm.ring), first):
                want = reference_reduce_basis(gb)
                assert reduce_basis(gb) == want
                shuffled = GroebnerBasis(jm.ring, tuple(reversed(gb.basis)))
                assert reduce_basis(shuffled) == want


@settings(max_examples=150, deadline=None)
@given(G=st.lists(_polys(PENTAGON_RING, 4), min_size=1, max_size=6))
def test_reduced_bases_match_the_fixpoint_reference_on_random_polynomials(G):
    # any sequence, a Groebner basis or not: minimal leads, one tail pass
    assert reduce_basis(G) == reference_reduce_basis(G)


def test_buchberger_matches_the_reference_reducer(monkeypatch):
    # Buchberger sends each S-polynomial's remainder through normal_form,
    # so the reference reducer patched in does every reduction
    lattices = [pentagon(), diamond(), boolean(3), divisor_lattice(36), m3_on_m3()]
    gens = [join_meet_ideal(L).generators for L in lattices]
    got = [buchberger(g).basis for g in gens]
    calls = {"s_polynomial": 0, "normal_form": 0}
    s_poly = groebner.s_polynomial

    def counted_s_polynomial(f, g):
        calls["s_polynomial"] += 1
        return s_poly(f, g)

    def counted_reference(f, G):
        calls["normal_form"] += 1
        return reference_normal_form(f, G)

    monkeypatch.setattr(groebner, "s_polynomial", counted_s_polynomial)
    monkeypatch.setattr(groebner, "normal_form", counted_reference)
    want = [buchberger(g).basis for g in gens]
    assert got == want
    assert calls["normal_form"] == calls["s_polynomial"] > 0


def _assert_buchberger_matches_the_reference(G, ring):
    assert buchberger(G, ring=ring).basis == reference_buchberger(G, ring=ring).basis


def test_buchberger_matches_the_reference_on_join_meet_ideals():
    for L in corpus() + [m3_on_m3()]:
        jm = join_meet_ideal(L)
        _assert_buchberger_matches_the_reference(jm.generators, jm.ring)


def _lifts_with_a_variable_last():
    """The colon route's runs: (I_L, x_S) with the linear part substituted
    out, in degrevlex with the colon's variable smallest; (gens, ring) pairs
    over the corpus, four per lattice."""
    rng = random.Random(8)
    for L in corpus() + [m3_on_m3()]:
        jm = join_meet_ideal(L)
        for _ in range(4):
            S = rng.sample(jm.variables, rng.randint(0, L.n - 1))
            v = rng.randrange(L.n)
            ring_x = _ring_with_last(jm.ring, v)
            G = [normal_form(g, S) for g in jm.generators] if S else list(jm.generators)
            yield [g.map_exponents(ring_x, lambda m: m) for g in G if g], ring_x


def test_buchberger_matches_the_reference_on_lifts_with_a_variable_last():
    for G, ring_x in _lifts_with_a_variable_last():
        _assert_buchberger_matches_the_reference(G, ring_x)


def test_buchberger_treats_the_references_pairs_on_lifts_with_a_variable_last(monkeypatch):
    # the coprime and chain criteria skip exactly the pairs the reference
    # skips: one S-polynomial for each pair the reference computes, even
    # where a criterion that skipped more or fewer would leave the basis as
    # it is
    calls = {"engine": 0, "reference": 0}
    s_poly, ref_s_poly = groebner.s_polynomial, reference_s_polynomial

    def counted(name, fn):
        def wrapped(f, g):
            calls[name] += 1
            return fn(f, g)

        return wrapped

    monkeypatch.setattr(groebner, "s_polynomial", counted("engine", s_poly))
    monkeypatch.setitem(globals(), "reference_s_polynomial", counted("reference", ref_s_poly))
    computed = 0
    for G, ring_x in _lifts_with_a_variable_last():
        calls.update(engine=0, reference=0)
        buchberger(G, ring=ring_x)
        reference_buchberger(G, ring=ring_x)
        assert calls["engine"] == calls["reference"], (G, ring_x)
        computed += calls["engine"]
    assert computed > 0


@settings(max_examples=100, deadline=None)
@given(G=st.lists(_polys(PENTAGON_RING, 3, top=1), min_size=1, max_size=4))
def test_buchberger_matches_the_reference_on_random_polynomials(G):
    # squarefree terms keep the bases of these random, mostly inhomogeneous
    # lists small
    _assert_buchberger_matches_the_reference(G, PENTAGON_RING)


def test_exponents_past_the_field_width_widen_the_codec():
    # 8-bit fields hold exponents below 2^7 and 16-bit ones below 2^15; past
    # them the guard bits stop the kernel, the ring's fields double and the
    # call runs again, and every result is the reference's
    ring = Ring(("x", "y", "z"), degrevlex(3))
    x, y, z = ring.gens()
    assert ring._codec.width == 8
    # a division whose step makes y^160 from y^60 and y^100
    f = x ** 100 * y ** 60 + z
    G = [x ** 100 - y ** 100]
    assert normal_form(f, G) == reference_normal_form(f, G) == y ** 160 + z
    assert ring._codec.width == 16
    # inputs that fit 16 bits, whose S-polynomial does not
    big = 2 ** 14 + 5
    G = [x ** big - y ** big, x * y ** 2 ** 14 - z ** 3, y ** 200 - z ** 200]
    want = reference_buchberger(G, ring=ring)
    assert buchberger(G, ring=ring).basis == want.basis
    assert reduce_basis(want) == reference_reduce_basis(want)
    assert ring._codec.width == 32
    f = x ** (big + 3) * z + y ** big * x ** 3 * z
    assert normal_form(f, want) == reference_normal_form(f, want)
    assert s_polynomial(G[0], G[1]) == reference_s_polynomial(G[0], G[1])
    # an S-polynomial with y^160 under 8-bit fields is exact, and is packed
    # again before it divides: its unchecked fields would borrow
    ring = Ring(("x", "y", "z"), degrevlex(3))
    x, y, z = ring.gens()
    s = s_polynomial(x ** 100 - y ** 100, x * y ** 60 - z)
    assert s == reference_s_polynomial(x ** 100 - y ** 100, x * y ** 60 - z)
    assert ring._codec.width == 8
    h = x ** 2 * y ** 5 * z ** 2
    assert normal_form(h, [s]) == reference_normal_form(h, [s]) == h


@settings(max_examples=200, deadline=None)
@given(
    f=_polys(PENTAGON_RING, 5).filter(bool),
    g=_polys(PENTAGON_RING, 5).filter(bool),
    monic=st.booleans(),
)
def test_s_polynomials_match_the_reference(f, g, monic):
    # non-monic pairs take the scaled route, monic ones the one-dict route
    if monic:
        f, g = f.monic(), g.monic()
    assert s_polynomial(f, g) == reference_s_polynomial(f, g)
    assert s_polynomial(g, f) == reference_s_polynomial(g, f)


def test_repeated_membership_builds_key_and_lead_table_once(monkeypatch):
    # the ideal hashes its key once, and the basis packs its divisors on the
    # first division and keeps them for the rest of the stream
    calls = {"key": 0}
    key = Ideal._gb_key.func

    def counted_key(self):
        calls["key"] += 1
        return key(self)

    prop = cached_property(counted_key)
    prop.__set_name__(Ideal, "_gb_key")
    monkeypatch.setattr(Ideal, "_gb_key", prop)
    jm = join_meet_ideal(cold_copy(boolean(3)))
    assert jm.ideal is jm.ideal
    I = ideal(jm.ring, jm.generators)
    gb = groebner_basis(I)
    assert "_divisors" not in vars(gb)
    before = dict(calls)
    rng = random.Random(6)
    packed = None
    for _ in range(25):
        g = rng.choice(jm.generators) * random_poly(jm.ring, rng, terms=2, top=1)
        assert ideal_member(g, I)
        assert not ideal_member(g + jm.ring.var("o") ** 2, I)
        if packed is None:
            packed = vars(gb)["_divisors"]
        assert vars(gb)["_divisors"] is packed
    assert packed == list(gb.basis) and len(packed.rows) == len(gb.basis)
    assert calls["key"] == before["key"] == 1
    assert groebner_basis(I) is gb


def test_a_basis_packs_its_divisors_again_after_its_codec_widened():
    # x^3 packs the basis's divisors in 8-bit fields; x^130 does not fit
    # them, so the ring's codec widens to 16 bits and the cached divisors
    # must be packed again: the old rows, read with wider fields, would
    # never finish a division
    ring = Ring(("x", "y", "z"), degrevlex(3))
    x, y, z = ring.gens()
    gb = GroebnerBasis(ring, (x ** 2 - y * z,))
    assert normal_form(x ** 3, gb) == reference_normal_form(x ** 3, gb) == x * y * z
    assert vars(gb)["_divisors"].codec.width == ring._codec.width == 8
    f = x ** 130 * z
    want = reference_normal_form(f, gb)
    assert want == y ** 65 * z ** 66
    # widen the ring through a plain list first, so the check on the cached
    # divisors fails before a division could loop on stale rows
    assert normal_form(f, list(gb)) == want
    assert ring._codec.width == 16
    assert _divisors_of(gb, ring._codec).codec.width == 16
    assert normal_form(f, gb) == want
    # the same widening from inside a division by the basis
    ring = Ring(("x", "y", "z"), degrevlex(3))
    x, y, z = ring.gens()
    gb = GroebnerBasis(ring, (x ** 2 - y * z,))
    assert normal_form(x ** 3, gb) == x * y * z
    assert normal_form(x ** 130 * z, gb) == y ** 65 * z ** 66
    assert vars(gb)["_divisors"].codec.width == ring._codec.width == 16


def _query_stream(jm, rng, count):
    # members (combinations of generators) and, every other query, a
    # chain-supported monomial of degree 3, standard by Hibi's theorem
    L, x = jm.lattice, jm.variables
    stream = []
    for k in range(count):
        f = sum((g * rng.randint(1, 3) for g in rng.sample(jm.generators, 2)), jm.ring.zero())
        if k % 2:
            f = f + x[L.bottom] * x[rng.randrange(L.n)] * x[L.top]
        stream.append(f)
    return stream


def test_membership_divides_each_monomial_once_per_basis(monkeypatch):
    # on a fresh basis, the only divisions are one normal form per distinct
    # monomial of the stream, in first-seen order, and every division kernel
    # run is inside one of them; a second pass divides nothing and gives the
    # same answers
    rng = random.Random(10)
    for L in [boolean(3), divisor_lattice(36), divisor_lattice(60)]:
        jm = join_meet_ideal(cold_copy(L))
        stream = _query_stream(jm, rng, 30)
        gb = groebner_basis(jm.ideal)
        divided = []
        runs = []
        inside = []
        remainder_terms = groebner._remainder_terms
        reduce = groebner.normal_form

        def counted_remainder_terms(*args):
            runs.append(bool(inside))
            return remainder_terms(*args)

        def counted_normal_form(f, G):
            divided.append(f.terms)
            inside.append(f)
            try:
                return reduce(f, G)
            finally:
                inside.pop()

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_remainder_terms", counted_remainder_terms)
            patch.setattr(groebner, "normal_form", counted_normal_form)
            first = [ideal_member(f, jm.ideal) for f in stream]
            seen = list(dict.fromkeys(m for f in stream for m, _ in f.terms))
            assert divided == [((m, ONE),) for m in seen]
            assert len(runs) == len(seen) and all(runs)
            assert set(gb._forms) == set(seen)
            del runs[:], divided[:]
            second = [ideal_member(f, jm.ideal) for f in stream]
            assert not runs and not divided
        assert first == second == [not k % 2 for k in range(len(stream))]


def _assert_membership_matches(f, I, oracle=True):
    got = ideal_member(f, I)
    assert got == (not normal_form(f, groebner_basis(I))), str(f)
    if oracle:
        assert got == oracles.macaulay_member(I.generators, f), str(f)
    return got


def _pentagon_ideals():
    ring = PENTAGON_RING
    jm = join_meet_ideal(pentagon())
    x = ring.gens()
    return [
        jm.ideal,
        ideal(ring, jm.generators + (x[-1],)),
        ideal(ring, ()),
        ideal(ring, (ring.one(),)),
        # non-integral forms: the leading one of x0, x1 reduces to 2/3 or
        # 3/2 times the other
        ideal(ring, (2 * x[0] - 3 * x[1], x[2] * x[3] - Fraction(1, 2) * x[4] ** 2)),
    ]


PENTAGON_IDEALS = _pentagon_ideals()


@settings(max_examples=100, deadline=None)
@given(
    which=st.integers(0, len(PENTAGON_IDEALS) - 1),
    r=_polys(PENTAGON_RING, 4, degree=4),
    hs=st.lists(_polys(PENTAGON_RING, 2, degree=2), max_size=3),
    rest=st.booleans(),
)
def test_membership_matches_the_remainder_and_the_oracle(which, r, hs, rest):
    # f = Σ g·h over the ideal's generators, plus r half the time; the
    # coefficients have denominators up to 3
    I = PENTAGON_IDEALS[which]
    f = sum((g * h for g, h in zip(I.generators, hs)), PENTAGON_RING.zero())
    if rest:
        f = f + r
    _assert_membership_matches(f, I)


def test_membership_matches_the_remainder_on_corpus_bases():
    # f of degree at most 3; the oracle only on rings of at most six
    # variables, where its matrices stay small; a warm table answers as a
    # cold one does
    rng = random.Random(12)
    stream = []
    for L in corpus() + [divisor_lattice(36)]:
        jm = join_meet_ideal(cold_copy(L))
        ring = jm.ring
        lift = ideal(ring, jm.generators + tuple(rng.sample(jm.variables, 1)))
        for I in (jm.ideal, lift):
            for k in range(12):
                gens = rng.sample(I.generators, min(2, len(I.generators)))
                f = sum((g * random_poly(ring, rng, 2, degree=1) for g in gens), ring.zero())
                if k % 2:
                    f = f + random_poly(ring, rng, 3, degree=3)
                stream.append((I, f, ring.nvars <= 6))
    cold = [_assert_membership_matches(f, I, oracle) for I, f, oracle in stream]
    warm = [ideal_member(f, I) for I, f, _ in stream]
    assert warm == cold
    assert any(cold) and not all(cold)


def _one_class(I):
    """Five monomials of one degree, largest first in the ring's order, whose
    normal forms modulo I are nonzero multiples λ of one standard monomial,
    with their λ: the smallest degree that has such a class."""
    ring = I.ring
    gb = groebner_basis(I)
    for degree in range(2, 6):
        classes = {}
        for m in oracles._monomials_of_degree(ring.nvars, degree):
            terms = normal_form(ring.monomial(m), gb).terms
            if len(terms) == 1:
                classes.setdefault(terms[0][0], []).append((m, terms[0][1]))
        for members in classes.values():
            if len(members) >= 5:
                return sorted(members, key=lambda t: ring.key(t[0]), reverse=True)[:5]
    raise AssertionError("no class of five monomials up to degree 5")


def test_membership_rescales_the_partial_sums_exactly():
    # ideal_member keeps a running common denominator and rescales its
    # partial sums when a denominator arrives that does not divide it.
    # f = c1·lead(g) + c2·tail(g) for each generator g: an int term before
    # and after a new denominator, and forms that share an id; then sums
    # over five monomials of one class (forms λ·s) whose denominators
    # arrive in the order 2, 3, 6, 4, the fifth term cancelling the class
    # or not, and a sum with int coefficients alone
    jm = join_meet_ideal(cold_copy(divisor_lattice(36)))
    ideals = [jm.ideal, jm.ideal.with_linear(jm.variables[4:5]), PENTAGON_IDEALS[4]]
    pairs = [(1, Fraction(1, 2)), (Fraction(1, 2), 1), (Fraction(1, 2), Fraction(1, 2)),
             (Fraction(1, 3), Fraction(2, 6)), (2, 1)]
    stream, expected = [], []
    for I in ideals:
        ring = I.ring
        for g in I.generators:
            lead, tail = Polynomial(ring, g.terms[:1]), Polynomial(ring, g.terms[1:])
            stream += [(I, c1 * lead + c2 * tail) for c1, c2 in pairs]
        cls = _one_class(I)
        first = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 4)]
        cancel = -sum(c * lam for c, (_, lam) in zip(first, cls)) / cls[4][1]
        ints = [1, -2, 3, 4, -6]
        for coeffs in (first + [cancel], first + [cancel + 1], ints):
            f = ring.from_dict({m: c for c, (m, _) in zip(coeffs, cls)})
            if coeffs is ints:
                assert all(type(c) is int for _, c in f.terms)
            else:
                assert [c.denominator for _, c in f.terms][:4] == [2, 3, 6, 4]
            # theory: f lies in I iff Σ c·λ over the class is zero
            expected.append((len(stream), not sum(c * lam for c, (_, lam) in zip(coeffs, cls))))
            stream.append((I, f))
    cold = [_assert_membership_matches(f, I, I.ring.nvars <= 6) for I, f in stream]
    assert [ideal_member(f, I) for I, f in stream] == cold
    assert [cold[k] for k, _ in expected] == [want for _, want in expected]
    assert [want for _, want in expected][:6] == [True, False, True, True, False, True]


# ---------------------------------------------------------------------------
# the linear split and one-term products against the general routes


def reference_split_linear(gens):
    linear = [g for g in gens if g and g.is_linear_form()]
    rest = [g for g in gens if g and not g.is_linear_form()]
    if not linear:
        return [], rest
    echelon = []
    for g in linear:
        r = normal_form(g, echelon)
        if r:
            echelon.append(r.monic())
    echelon = reduce_basis(echelon)
    return list(echelon.basis), [r for r in (normal_form(g, echelon) for g in rest) if r]


def test_one_term_linear_split_matches_the_substitution(monkeypatch):
    # lifts (I_L, x_R) of random variable subsets R, some variables scaled
    # and repeated, shuffled in among I_L's generators
    rng = random.Random(9)
    cases = []
    for L in corpus() + [m3_on_m3()]:
        jm = join_meet_ideal(L)
        for _ in range(6):
            R = rng.sample(jm.variables, rng.randint(1, L.n))
            R += [x * rng.choice([2, -1, Fraction(1, 3)]) for x in rng.sample(R, len(R) // 2)]
            gens = list(jm.generators) + R
            rng.shuffle(gens)
            cases.append((gens, reference_split_linear(gens)))
    calls = []
    monkeypatch.setattr(groebner, "normal_form", lambda *args: calls.append(args))
    for gens, want in cases:
        assert _split_linear(gens) == want
    assert not calls


def reference_product(f, g):
    acc = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            m = tuple(a + b for a, b in zip(m1, m2))
            acc[m] = acc.get(m, 0) + c1 * c2
    return f.ring.from_dict(acc)


def reference_divide_exact(f, g):
    ring = f.ring
    lm, lc = g.leading_term()
    work = dict(f.terms)
    quotient = {}
    while work:
        m = max(work, key=ring.key)
        c = work.pop(m)
        if not all(x <= y for x, y in zip(lm, m)):
            raise ArithmeticError("inexact polynomial division")
        q = tuple(x - y for x, y in zip(m, lm))
        quotient[q] = Fraction(c) / lc
        for mg, cg in g.terms[1:]:
            mm = tuple(x + y for x, y in zip(q, mg))
            v = work.get(mm, 0) - Fraction(c) / lc * cg
            if v:
                work[mm] = v
            else:
                work.pop(mm, None)
    return ring.from_dict(quotient)


@settings(max_examples=200, deadline=None)
@given(
    f=_polys(PENTAGON_RING, 5),
    g=_polys(PENTAGON_RING, 1).filter(bool),
    h=_polys(PENTAGON_RING, 3),
    monic=st.booleans(),
)
def test_one_term_products_and_quotients_match_the_general_routes(f, g, h, monic):
    # g is one term, h any polynomial; a product by g keeps the term order.
    # A quotient by a variable x keeps it too: it is the general loop's
    # exact quotient when x divides every term, and f itself otherwise
    if monic:
        g = g.monic()
    for a, b in ((f, g), (g, f), (h, g), (f, h)):
        assert a * b == reference_product(a, b)
    for v, x in enumerate(PENTAGON_RING.gens()):
        assert _divided_by(f * x, v) == reference_divide_exact(f * x, x) == f
        if all(m[v] for m, _ in f.terms):
            assert _divided_by(f, v) == reference_divide_exact(f, x)
        else:
            assert _divided_by(f, v) is f


# ---------------------------------------------------------------------------
# linalg against the oracle's row reduction


_entries = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(1)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


def _matrix(ncols):
    return st.lists(st.lists(_entries, min_size=ncols, max_size=ncols), max_size=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 6))
def test_linalg_matches_the_oracle_on_sparse_matrices(data, ncols):
    big = data.draw(_matrix(ncols))
    small = data.draw(_matrix(ncols))
    assert linalg.rref(big) == oracles.rref(big)
    assert len(linalg.rref(big + small)) == len(oracles.rref(big + small))
    expected = [oracles.in_span(big, v) for v in small]
    reduced = linalg.rref(big)
    assert [linalg.in_row_space(reduced, v) for v in small] == expected
    assert linalg.row_space_contains(reduced, small) == all(expected)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 6))
def test_linalg_is_exact_on_int_rows(data, ncols):
    # koszul's span rows hold integral coefficients as ints; a pivot other
    # than 1 must rescale its row to Fractions, never to floats
    ints = st.lists(
        st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 5]), min_size=ncols, max_size=ncols),
        max_size=6,
    )
    big = data.draw(ints)
    small = data.draw(ints)
    reduced = linalg.rref(big)
    assert reduced == oracles.rref(big)
    assert not any(isinstance(v, float) for row in reduced for v in row)
    assert [linalg.in_row_space(reduced, v) for v in small] == [
        oracles.in_span(big, v) for v in small
    ]


def test_a_form_in_a_span_with_non_unit_pivots_is_found_in_it():
    reduced = linalg.rref([[5, 0, 1], [3, 1, 0]])
    assert reduced == [[1, 0, Fraction(1, 5)], [0, 1, Fraction(-3, 5)]]
    assert linalg.in_row_space(reduced, [2, -1, 1])


def _with_int_zeros(rows):
    return [[v if v else 0 for v in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ncols=st.integers(1, 6))
def test_linalg_gives_equal_results_on_int_zeros(data, ncols):
    # koszul's span rows hold int zeros; each matrix is drawn once and given
    # with Fraction(0) zeros and with int 0 zeros
    big = data.draw(_matrix(ncols))
    small = data.draw(_matrix(ncols))
    results = []
    for b, s in ((big, small), (_with_int_zeros(big), _with_int_zeros(small))):
        reduced = linalg.rref(b)
        results.append(
            (
                reduced,
                [linalg.in_row_space(reduced, v) for v in s],
                linalg.row_space_contains(reduced, s),
            )
        )
    assert results[0] == results[1]

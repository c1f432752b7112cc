import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from joinmeet import groebner
from joinmeet.groebner import (
    buchberger,
    colon_element,
    groebner_basis,
    ideal,
    ideal_member,
    normal_form,
    reduce_basis,
    s_polynomial,
)
from joinmeet.poly import (
    MAX_COEFFICIENT_BITS,
    MAX_EXPONENT,
    MonomialOrder,
    PolyParseError,
    Ring,
    _Codec,
    _Overflow,
    degrevlex,
)
from joinmeet.lattice import boolean
from oracles import member_queries


def pentagon_ring():
    # linear-extension variable order e < y < x < z < f, top biggest
    return Ring(("e", "y", "x", "z", "f"), degrevlex(5, priority=(4, 3, 2, 1, 0)))


@pytest.fixture
def R():
    return pentagon_ring()


# ---------------------------------------------------------------------------
# arithmetic examples


def test_additive_inverse(R):
    f = R.parse("x*z - e*f")
    assert f + (-f) == 0


def test_product_used_by_pentagon_colon(R):
    assert R.var("e") * R.parse("f*x - f*y") == R.parse("e*f*x - e*f*y")


def test_scaling(R):
    assert 3 * R.var("x") + (-3) * R.var("x") == 0
    assert Fraction(1, 2) * R.var("x") == R.parse("1/2*x")


def test_constants_equal_their_coefficient(R):
    # a constant polynomial equals the int or Fraction it is, and hashes as
    # it does, so a == b implies hash(a) == hash(b) across the two types
    assert R.one() == 1 and 1 == R.one() and R.one() != 2
    assert R.constant(Fraction(-2, 3)) == Fraction(-2, 3)
    assert R.zero() == 0 and R.zero() != 1 and R.one() != 0
    assert R.var("x") != 1 and R.var("x") != 0 and R.parse("x + 1") != 1
    assert R.constant(0) == R.zero()
    for p, c in [(R.zero(), 0), (R.one(), 1), (R.constant(-5), -5),
                 (R.constant(Fraction(2, 7)), Fraction(2, 7))]:
        assert p == c and hash(p) == hash(c)
    assert {R.one(): "unit"}[1] == "unit"
    assert {0: "zero"}[R.parse("x - x")] == "zero"
    assert R.one() != "1"


def test_leading_term_custom_priority():
    R = Ring(("x", "z", "e", "f"), degrevlex(4))  # x > z > e > f
    f = R.parse("x*z - e*f")
    m, c = f.leading_term()
    assert m == (1, 1, 0, 0) and c == 1


def test_is_linear_form(R):
    assert R.parse("y - z").is_linear_form()
    assert not R.parse("x*z").is_linear_form()


def test_monic(R):
    f = R.parse("2*x*z - 2*e*f")
    assert f.monic() == R.parse("x*z - e*f")


def test_degrevlex_classic_tiebreak():
    # x*z^2 < y^3 under degrevlex with x > y > z
    R = Ring(("x", "y", "z"), degrevlex(3))
    k = R.key
    assert k((1, 0, 2)) < k((0, 3, 0))


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_print_round_trip(R):
    for text in ["x*z - e*f", "y - z", "-x + 2*y", "3", "x^2*y - 1/3*f", "e"]:
        f = R.parse(text)
        assert R.parse(str(f)) == f


def test_juxtaposition_and_whitespace(R):
    assert R.parse("3x^2y") == R.parse("3*x^2*y")
    assert R.parse("x z") == R.parse("x*z")
    assert R.parse("xz") == R.parse("x*z")


def test_multi_character_labels_prefer_longest_match():
    R = Ring(("o", "a", "b", "ab"), degrevlex(4, priority=(3, 2, 1, 0)))
    v = R.parse("ab")
    assert v == R.var("ab")
    prod = R.parse("a*b")
    assert prod == R.var("a") * R.var("b")
    # the join-meet relation of the square, printable and re-parseable
    rel = R.var("a") * R.var("b") - R.var("ab") * R.var("o")
    assert R.parse(str(rel)) == rel


def test_numeric_labels():
    R = Ring(("1", "2", "3", "4", "6", "12"), degrevlex(6, priority=(5, 4, 3, 2, 1, 0)))
    rel = R.parse("4*6 - 12*2")
    assert rel == R.var("4") * R.var("6") - R.var("12") * R.var("2")


def test_parse_errors(R):
    for bad in ["", "   ", "x +", "* x", "x ^ q", "x + $"]:
        with pytest.raises(PolyParseError):
            R.parse(bad)
    for bad, message in [
        ("x²", "invalid literal"),
        ("-", "empty polynomial"),
        ("x / y", "expected \\+ or - before '/'"),
        ("x^y", "bad exponent"),
        ("1/0", "bad rational coefficient"),
    ]:
        with pytest.raises(PolyParseError, match=message):
            R.parse(bad)


def test_exponent_literals_are_bounded(R):
    assert R.parse(f"x^{MAX_EXPONENT}") == R.var("x") ** MAX_EXPONENT
    assert R.parse(f"2^{MAX_EXPONENT}*x") == R.var("x") * 2**MAX_EXPONENT
    for bad in [f"x^{MAX_EXPONENT + 1}", "x^99999999", f"y + 3^{MAX_EXPONENT + 1}*x"]:
        with pytest.raises(PolyParseError, match="exponent"):
            R.parse(bad)


def test_coefficients_are_bounded(R):
    top = 2**MAX_COEFFICIENT_BITS - 1
    assert R.parse(f"{top}*x + 1/{top}*y") == R.var("x") * top + R.var("y") * Fraction(1, top)
    half = MAX_COEFFICIENT_BITS // 2
    assert R.parse(f"4^{half - 1}*x") == R.var("x") * 4 ** (half - 1)
    for bad in [f"{top + 1}*x", f"1/{top + 1}*x", f"4^{half}*x", "99999^1000*x + y",
                f"{top}*{top}*x", f"1/{top}*x + 1/{top - 2}*x"]:
        with pytest.raises(PolyParseError, match="bits"):
            R.parse(bad)


def test_coefficients_are_ints_fractions_or_strings(R):
    assert R.constant(3) == R.constant("3") == R.constant(Fraction(3))
    assert R.monomial((0, 0, 1, 0, 0), "-2/3") == R.parse("-2/3*x")
    for bad in (1.5, 2.0, None):
        with pytest.raises(TypeError):
            R.constant(bad)
        with pytest.raises(TypeError):
            R.var("x") * bad


def test_zero_prints_as_zero(R):
    assert str(R.zero()) == "0"
    assert R.parse("x - x") == 0


# ---------------------------------------------------------------------------
# ring axioms on random inputs


def polys(ring, max_terms=4):
    monoms = st.tuples(*(st.integers(0, 3) for _ in range(ring.nvars)))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    terms = st.lists(st.tuples(monoms, coeffs), max_size=max_terms)

    def build(pairs):
        acc = {}
        for m, c in pairs:
            acc[m] = acc.get(m, Fraction(0)) + c
        return ring.from_dict(acc)

    return terms.map(build)


RAND = Ring(("x", "y", "z"), degrevlex(3))


@settings(max_examples=60, deadline=None)
@given(polys(RAND), polys(RAND), polys(RAND))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == 0


@settings(max_examples=60, deadline=None)
@given(polys(RAND))
def test_canonicalization_idempotent(f):
    assert RAND.from_dict(dict(f.terms)) == f
    # strictly decreasing keys, no zero coefficients
    keys = [RAND.key(m) for m, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(len(set(keys)) == len(keys) for _ in [0])
    assert all(c != 0 for _, c in f.terms)
    # each monomial is the ring's own tuple, and its key the order's
    assert all(m is RAND._key_cache[m][1] for m, _ in f.terms)
    assert keys == [RAND.order.key(m) for m, _ in f.terms]


MONOMS = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
ORDERS = [
    degrevlex(3),
    degrevlex(3, priority=(2, 0, 1)),
    MonomialOrder((1, 2, 0)),
]


@settings(max_examples=100, deadline=None)
@given(MONOMS, MONOMS, MONOMS)
def test_monomial_order_properties(a, b, c):
    for order in ORDERS:
        ka, kb = order.key(a), order.key(b)
        # total: trichotomy via key comparison
        assert (ka < kb) + (ka == kb) + (ka > kb) == 1
        assert (ka == kb) == (a == b)
        # multiplicative
        if ka < kb:
            shifted_a = tuple(x + y for x, y in zip(a, c))
            shifted_b = tuple(x + y for x, y in zip(b, c))
            assert order.key(shifted_a) < order.key(shifted_b)
        # 1 is minimal
        assert order.key((0, 0, 0)) <= ka


# ---------------------------------------------------------------------------
# packed monomials: each ring's codec against exponent tuples


def assert_codec_matches_tuples(codec, order, a, b):
    """Order, product, quotient, divisibility and lcm of the packed a and b
    against the same on exponent tuples."""
    pa, pb = codec.pack(a), codec.pack(b)
    assert codec.unpack(pa) == a and codec.unpack(pb) == b
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    product = tuple(map(add, a, b))
    assert codec.unpack(pa + pb) == product
    if max(product) < 2 ** (codec.width - 1):
        assert pa + pb == codec.pack(product)
    ea, eb = -pa & codec.mask, -pb & codec.mask
    H = codec.guard
    divides = all(x <= y for x, y in zip(a, b))
    assert (((eb | H) - ea) & H == H) == divides
    if divides:
        assert pb - pa == codec.pack(tuple(map(sub, b, a)))
    lcm = tuple(map(max, a, b))
    assert codec.lcm(ea, eb) == codec.pack(lcm)


@st.composite
def codec_inputs(draw):
    """A random priority on 1 to 12 variables and two monomials, their
    exponents small (many ties) or up to the 8-bit guard."""
    n = draw(st.integers(1, 12))
    priority = tuple(draw(st.permutations(range(n))))
    monomial = st.tuples(*[st.integers(0, 4) | st.integers(0, 127)] * n)
    return priority, draw(monomial), draw(monomial)


@settings(max_examples=100, deadline=None)
@given(codec_inputs())
def test_packed_monomials_match_exponent_tuples(inputs):
    # 8-bit fields through bytes, wider ones through shifts
    priority, a, b = inputs
    order = degrevlex(len(priority), priority)
    for width in (8, 16, 32):
        assert_codec_matches_tuples(_Codec(priority, width), order, a, b)


def test_packed_lcms_of_many_wide_exponents_keep_their_degree():
    # 40 and 600 variables with exponents up to 127: an lcm's degree is far
    # above one 8-bit field, so its digit sum needs one fold, then two
    rng = random.Random(3)
    for n in (40, 600):
        order = degrevlex(n, priority=tuple(rng.sample(range(n), n)))
        codec = Ring(tuple(f"x{i}" for i in range(n)), order)._codec
        assert codec.width == 8
        for _ in range(5):
            a, b = (tuple(rng.randint(100, 127) for _ in range(n)) for _ in range(2))
            assert_codec_matches_tuples(codec, order, a, b)


def test_packing_refuses_exponents_past_the_guard_bit():
    codec = _Codec((0, 1, 2), 8)
    assert codec.unpack(codec.pack((127, 0, 127))) == (127, 0, 127)
    for exps in [(128, 0, 0), (0, 300, 0), (200, 200, 200)]:
        with pytest.raises(_Overflow):
            codec.pack(exps)
    # a sum of two packed monomials carries out of no field: the guard bit
    # shows the overflow and the exponent still unpacks exactly
    p = codec.pack((127, 1, 0)) + codec.pack((127, 0, 0))
    assert -p & codec.mask & codec.guard
    assert codec.unpack(p) == (254, 1, 0)


def test_rings_refuse_orders_they_cannot_pack(monkeypatch):
    # a ring under an order other than degrevlex has no codec, and every
    # kernel entry refuses it rather than pack its monomials as degrevlex;
    # groebner_basis by a two-term linear form, and a colon, too.  Each
    # refuses before any Buchberger run: the colon route would otherwise run
    # one in its degrevlex ring with the colon's variable last
    class LexOrder:
        def __init__(self, n):
            self.priority = tuple(range(n))

        def key(self, exps):
            return exps

    runs = []
    run = groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger", lambda *args: runs.append(args) or run(*args))
    ring = Ring(("x", "y"), LexOrder(2))
    assert ring._codec is None
    x, y = ring.gens()
    f, g = x ** 2 - y, x * y - 1
    ring3 = Ring(("x", "y", "z"), LexOrder(3))
    u, v, w = ring3.gens()
    I = ideal(ring3, (u * v - w ** 2, u * w - v ** 2))
    entries = [
        lambda: normal_form(x ** 2 * y, [f, g]),
        lambda: s_polynomial(f, g),
        lambda: buchberger([f, g]),
        lambda: reduce_basis([f, g]),
        lambda: groebner_basis(ideal(ring, (f, g))),
        lambda: groebner_basis(ideal(ring, (x - y, x * y))),
        lambda: colon_element(ideal(ring, (x * y,)), x - y),
        lambda: colon_element(I, u),
        lambda: colon_element(I, u - v),
    ]
    for entry in entries:
        with pytest.raises(TypeError, match="degrevlex only, not .*LexOrder"):
            entry()
    assert not runs


def test_ring_hash_is_computed_once(monkeypatch):
    R, S = pentagon_ring(), pentagon_ring()
    assert hash(R) == hash((R.names, R.order)) == hash(S) and R == S
    monkeypatch.setattr(MonomialOrder, "__hash__", lambda self: pytest.fail("order rehashed"))
    assert {R: 1}[S] == 1


def test_mixed_rings_rejected(R):
    other = Ring(("x", "y"), degrevlex(2))
    with pytest.raises(ValueError):
        R.var("x") + other.var("x")


def test_a_ring_refuses_an_empty_variable_name():
    # the reader tries names longest first, and "" matches at every position
    # without advancing, so a ring with it could never read a polynomial
    with pytest.raises(ValueError, match="must not be empty"):
        Ring(("", "x"), degrevlex(2))


# ---------------------------------------------------------------------------
# the ring's monomial table: one exponent tuple per monomial


def test_equal_monomials_of_one_ring_are_one_object(R):
    f = R.parse("x*z - e*f") + R.parse("y^2 + 2*x*z")
    # equal tuples built afresh, not the ones the sum wrote
    xz, ef = tuple([0, 0, 1, 1, 0]), tuple([1, 0, 0, 0, 1])
    g = R.from_dict({xz: Fraction(1, 2), ef: 3})
    h = R.var("x") * R.parse("z + y") + R.var("e") * R.parse("f - y")
    table = {m: m for m, _ in f.terms}
    for m, _ in g.terms + h.terms:
        if m in table:
            assert m is table[m]
        assert m is R._key_cache[m][1]
        assert R.key(m) == R.order.key(m)
    assert {m for m, _ in g.terms} <= set(table)


def test_an_equal_ring_built_apart_starts_with_an_empty_table(R):
    f = R.parse("x*z - e*f")
    S = pentagon_ring()
    assert R._key_cache and S == R and not S._key_cache
    g = S.parse("x*z - e*f")
    assert g == f and all(a is not b for (a, _), (b, _) in zip(g.terms, f.terms))


def test_a_query_stream_holds_each_monomial_once():
    # every sum's monomials are the ring's tuples, so the 2,000 queries hold
    # one tuple per distinct monomial, and so do the cached forms' keys
    queries = member_queries([boolean(4)], 5, 2000)
    monomials = [m for _, f, _ in queries for m, _ in f.terms]
    assert len(monomials) > 4 * len(set(monomials))
    assert len({id(m) for m in monomials}) == len(set(monomials))
    for I, f, member in queries:
        assert ideal_member(f, I) == member, str(f)
    ring = queries[0][0].ring
    forms = groebner_basis(queries[0][0])._forms
    assert forms and all(m is ring._key_cache[m][1] for m in forms)


# ---------------------------------------------------------------------------
# every coefficient stays an exact Fraction


TERM_TEXTS = st.builds(
    "{}{}*{}^{}".format,
    st.integers(0, 12),
    st.sampled_from(["", "/1", "/2", "/6"]),
    st.sampled_from("xyz"),
    st.integers(0, 2),
)
DIVISORS = [RAND.parse("x^2 - 2*y*z"), RAND.parse("3*y - 1/2*z")]


def all_fractions(f):
    return all(type(c) is Fraction for _, c in f.terms)


@settings(max_examples=60, deadline=None)
@given(st.lists(TERM_TEXTS, min_size=1, max_size=4),
       st.lists(TERM_TEXTS, min_size=1, max_size=4), st.integers(-4, 4))
def test_coefficients_stay_fractions(left, right, k):
    # an int/int division anywhere on these paths would leave a float
    f, g = RAND.parse(" + ".join(left)), RAND.parse(" - ".join(right))
    gb = groebner_basis(ideal(RAND, DIVISORS))
    products = [f * g, f * k, k * g, f - 1, 2 + g]
    reduced = [normal_form(p, DIVISORS) for p in products]
    reduced += [normal_form(p, gb) for p in products]
    for p in [f, g, *products, *reduced, *gb.basis]:
        assert all_fractions(p) and all_fractions(p.monic()), p

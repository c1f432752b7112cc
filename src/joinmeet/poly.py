"""Exact multivariate polynomials under degrevlex.

One variable per lattice element; every coefficient is a Fraction.
Exponent vectors are dense tuples, the public form of a monomial: terms,
printing and parsing use them.  The Groebner kernel works on packed-integer
monomials instead, through the codec each degrevlex Ring holds (see
_Codec): one int per monomial, whose order as an int is degrevlex.

The package's value classes are plain classes on two small bases, _Record
and _Frozen, which give the constructor, ==, the repr and, for a frozen
class, the hash, from the fields each class lists once; a class whose
constructor checks or computes something writes its own __init__.
MonomialOrder and Ring are frozen.  No module imports dataclasses, whose
import and code generation cost every fresh interpreter milliseconds.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, lshift

from .errors import InputError


class PolyParseError(InputError):
    """A polynomial string does not match the grammar."""


# ---------------------------------------------------------------------------
# coefficients: exact rationals

ONE = Fraction(1)


def coefficient(value):
    """value as a Fraction; only ints, Fractions and strings like "-2/3"."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} into a rational coefficient")


# ---------------------------------------------------------------------------
# records: classes named by their fields


class _Record:
    """A class named by the fields ``_fields`` lists, in order: the
    constructor takes each of them once, by position or by keyword, ``==``
    compares them between two objects of one class, and the repr names them.
    A record is unhashable, as its fields may change."""

    _fields = ()

    def __init__(self, *args, **kwargs):
        # the values go straight into __dict__, so a _Frozen is built too
        fields = self._fields
        given = len(args) + len(kwargs)
        kwargs.update(zip(fields, args))
        if not given == len(kwargs) == len(fields) or not all(map(kwargs.__contains__, fields)):
            raise TypeError(f"{type(self).__qualname__}() takes each of {fields} once")
        self.__dict__.update(kwargs)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


class _Frozen(_Record):
    """A record whose attributes are set once, by its constructor writing
    them into ``__dict__`` (functools.cached_property writes there too); it
    hashes by its fields, and assigning or deleting an attribute raises
    AttributeError."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder(_Frozen):
    """Degrevlex; ``priority`` lists variable indices from biggest to
    smallest."""

    _fields = ("priority",)

    def __init__(self, priority):
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of the variables")
        self.__dict__["priority"] = priority

    def key(self, exps):
        # degree first, then the negated exponents from the smallest variable
        # up (ties broken against the smallest variable)
        return (sum(exps), tuple(-exps[i] for i in reversed(self.priority)))


def degrevlex(nvars, priority=None):
    return MonomialOrder(tuple(range(nvars) if priority is None else priority))


# ---------------------------------------------------------------------------
# packed monomials


class _Overflow(ArithmeticError):
    """A monomial does not fit fields of ``width`` bits; the caller widens its
    ring's codec and runs again."""

    def __init__(self, width):
        super().__init__(f"a monomial does not fit {width}-bit fields")
        self.width = width


class _Codec:
    """Packed-integer degrevlex monomials, in fields of ``width`` bits, for
    the variables listed from biggest to smallest in ``priority``.

    The order's key compares the degree first, then the negated exponents
    from the smallest variable up.  A monomial packs into the int

        P = d << (F·n)  −  E,   E = Σ_k e[priority[k]] << (F·k),

    where d is its degree and each exponent has an F-bit field, so the
    smallest variable has the highest field.  The degree sits above all the
    fields, so ints compare exactly as the order's keys do; a product is an
    addition and a quotient a subtraction, and E = −P mod 2^(F·n) gives the
    fields back.

    The top bit of each field is a guard: pack raises _Overflow for an
    exponent of 2^(F−1) or more.  Adding two packed monomials carries out of
    no field, so the sum still compares and unpacks exactly, and its guard
    bits say whether it fits.  On fields with clear guard bits, a | b iff
    ((E_b | H) − E_a) & H == H, with H the guard bits, since no field
    borrows; the same borrow picks the larger field of an lcm, whose degree
    is the digit sum of its fields, after folding them into groups wide
    enough for any sum.

    The codec's functions, closures over its constants:
    pack(exps), the packed monomial of an exponent tuple, raising _Overflow
    for an exponent of 2^(F−1) or more; unpack(P), its exponent tuple;
    lcm(a, b), the packed lcm of the monomials with fields a and b, whose
    guard bits are clear.
    """

    def __init__(self, priority, width):
        nvars = len(priority)
        F = self.width = width
        K = F * nvars
        mask = self.mask = (1 << K) - 1
        self.ones = sum(1 << (F * k) for k in range(nvars))
        H = self.guard = self.ones << (F - 1)
        limit = 1 << (F - 1)
        # pairwise folds until a group holds any sum of fields below 2^F,
        # then the digit sum modulo 2^group − 1 is exact
        folds = []
        group = F
        while nvars * (limit - 1) >= (1 << group) - 1:
            folds.append((sum(((1 << group) - 1) << (2 * group * k) for k in range(nvars)), group))
            group *= 2
        modulus = (1 << group) - 1

        # exponents in field order, then 8-bit fields as bytes
        shifts = tuple(F * k for k in range(nvars))
        field_mask = (1 << F) - 1
        reorder = restore = None
        if priority != tuple(range(nvars)):
            reorder = _permutation(priority)
            restore = _permutation(tuple(sorted(range(nvars), key=priority.__getitem__)))

        def fields(exps):
            seq = exps if reorder is None else reorder(exps)
            if F == 8:
                return int.from_bytes(bytes(seq), "little")
            return sum(map(lshift, seq, shifts))

        def pack(exps):
            d = sum(exps)
            if d >= limit and max(exps) >= limit:
                raise _Overflow(F)
            return (d << K) - fields(exps)

        def lcm(a, b):
            ge = ((a | H) - b) & H  # guard bits of the fields where a ≥ b
            sel = ge - (ge >> (F - 1))
            e = (a & sel) | (b & ~sel)
            d = e
            for fold_mask, s in folds:
                d = (d & fold_mask) + ((d >> s) & fold_mask)
            return ((d % modulus) << K) - e

        def unpack(P):
            e = -P & mask
            if F == 8:
                # the permutation reads the bytes, one field per byte
                e = e.to_bytes(nvars, "little")
                return tuple(e) if restore is None else restore(e)
            exps = tuple([(e >> s) & field_mask for s in shifts])
            return exps if restore is None else restore(exps)

        self.pack = pack
        self.unpack = unpack
        self.lcm = lcm


def _permutation(order):
    """The function that takes a tuple t to (t[order[0]], t[order[1]], ...)."""
    if len(order) == 1:
        return lambda t: (t[order[0]],)
    return itemgetter(*order)


# ---------------------------------------------------------------------------
# rings and polynomials


class Ring(_Frozen):
    """A polynomial ring over the rationals: variable names and a monomial order.
    It equals and hashes as its names and order, with the hash computed once;
    its caches below take no part.

    A degrevlex ring (its order a MonomialOrder) packs monomials with one
    codec (see _Codec), widened when a monomial outgrows its fields; equal
    rings with codecs of equal width pack alike.  A ring under any other
    order has no codec, and the Groebner kernel refuses it.

    ``_key_cache`` is the ring's monomial table: it maps an exponent tuple
    to (its key in the order, the ring's own tuple of it), the first equal
    tuple seen.  from_dict, which builds every sum, every map into the ring
    and every result that needs sorting, takes each term's sort key from it
    and writes the ring's tuple into the term, so equal monomials of its
    results are one object, and a stream of sums holds each distinct
    monomial once (hash-consing).  ``_bases`` is groebner_basis's cache of
    the reduced bases of ideals over this ring object.  Both are freed with
    the ring, and an equal ring built apart has its own.  ``_last`` holds,
    by variable index v, the ring with v moved to the end of the order that
    a colon by v computes in (groebner._ring_with_last), so each such ring,
    with its codec and monomial table, is built once per ring object and
    freed with it.
    """

    _fields = ("names", "order")

    def __init__(self, names, order):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if "" in names:
            raise ValueError("variable names must not be empty")
        if len(order.priority) != len(names):
            raise ValueError("order priority size must match variable count")
        d = self.__dict__
        d["names"] = names
        d["order"] = order
        d["_key_cache"] = {}
        d["_index"] = {name: i for i, name in enumerate(names)}
        d["_bases"] = {}
        d["_last"] = {}
        d["_hash"] = hash((names, order))
        d["_codec"] = _Codec(order.priority, 8) if isinstance(order, MonomialOrder) else None

    def __eq__(self, other):
        # every polynomial comparison compares rings, mostly a ring with itself
        if other.__class__ is not Ring:
            return NotImplemented
        return self is other or (self.names == other.names and self.order == other.order)

    def __hash__(self):
        return self._hash

    def _widen(self, width):
        """After fields of width bits overflowed, use fields twice as wide,
        unless the ring's codec is already wider."""
        if self._codec.width <= width:
            self.__dict__["_codec"] = _Codec(self.order.priority, 2 * width)

    @property
    def nvars(self):
        return len(self.names)

    def key(self, exps):
        entry = self._key_cache.get(exps)
        if entry is None:
            entry = self._key_cache[exps] = (self.order.key(exps), exps)
        return entry[0]

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return self.monomial((0,) * self.nvars, c)

    def var(self, name):
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, ((tuple(exps), ONE),))

    def gens(self):
        return tuple(self.var(name) for name in self.names)

    def monomial(self, exps, coeff=1):
        coeff = coefficient(coeff)
        if not coeff:
            return self.zero()
        return Polynomial(self, ((tuple(exps), coeff),))

    def from_dict(self, mapping):
        """The polynomial with mapping's nonzero terms, in order, each
        monomial the table's own tuple: the lookup that gives the sort key
        gives the tuple too."""
        cache = self._key_cache
        get = cache.get
        rows = []
        for m, c in mapping.items():
            if c:
                entry = get(m)
                if entry is None:
                    entry = cache[m] = (self.order.key(m), m)
                rows.append((entry, c))
        rows.sort(key=itemgetter(0), reverse=True)
        return Polynomial(self, tuple([(entry[1], c) for entry, c in rows]))

    def parse(self, text):
        return _parse(self, text)


class Polynomial:
    """Canonical form: terms strictly decreasing in the ring's order, no zeros.

    ``_packed`` is None or (codec, lead-table row): the Groebner kernel's
    packed form, kept so that a polynomial is packed once per codec.
    ``_hash`` is None or the hash of the terms, computed on first use, so an
    ideal's key in its ring's cache of bases hashes each coefficient once.

    A polynomial equals an int or a Fraction when it is that constant, so
    ``ring.one() == 1``; a constant hashes as its coefficient, and the zero
    polynomial as 0, so equal values hash alike.
    """

    __slots__ = ("ring", "terms", "_packed", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._packed = None
        self._hash = None

    # -- basic structure

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self.ring.constant(other).terms
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            terms = self.terms
            if not terms:
                h = 0
            elif len(terms) == 1 and not any(terms[0][0]):
                h = hash(terms[0][1])
            else:
                h = hash(terms)
            self._hash = h
        return h

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def total_degree(self):
        """Maximum term degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) <= 1

    def is_linear_form(self):
        return all(sum(m) == 1 for m, _ in self.terms)

    def monic(self):
        if not self.terms or self.terms[0][1] == ONE:
            return self
        lc = self.terms[0][1]
        return Polynomial(self.ring, tuple((m, c / lc) for m, c in self.terms))

    # -- arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            v = acc.get(m)
            v = c if v is None else v + c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return self.ring.from_dict(acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = coefficient(other)
            if not c:
                return self.ring.zero()
            return Polynomial(self.ring, tuple((m, cc * c) for m, cc in self.terms))
        # a product by one term keeps the other factor's term order
        if len(other.terms) == 1:
            return self.shift(*other.terms[0])
        if len(self.terms) == 1:
            return other.shift(*self.terms[0])
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                v = acc.get(m)
                v = c1 * c2 if v is None else v + c1 * c2
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return self.ring.from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        for _ in range(k):
            result = result * self
        return result

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other
        return self.ring.constant(other)

    def shift(self, exps, coeff):
        """Multiply by coeff * x^exps; order-preserving, no re-sort needed."""
        if not coeff:
            return self.ring.zero()
        terms = self.terms if coeff == 1 else tuple((m, c * coeff) for m, c in self.terms)
        return Polynomial(self.ring, tuple((tuple(map(add, m, exps)), c) for m, c in terms))

    def map_exponents(self, ring, fn):
        """Carry this polynomial into another ring, rewriting exponent vectors."""
        return ring.from_dict({fn(m): c for m, c in self.terms})

    # -- printing

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for i, (m, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            factors = []
            for j, e in enumerate(m):
                if e == 1:
                    factors.append(names[j])
                elif e > 1:
                    factors.append(f"{names[j]}^{e}")
            body = "*".join(factors)
            if not body:
                body = str(mag)
            elif mag != ONE:
                body = f"{mag}*{body}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<poly {self}>"


# ---------------------------------------------------------------------------
# parsing
#
# grammar: poly := [sign] term ((+|-) term)* ; term := factor ((* | juxtapose) factor)*
#          factor := coefficient | NAME [^ INT] ; coefficient := INT [/ INT]
# Variable names are matched longest-first, so labels take precedence over
# integer literals (relevant in divisor lattices whose labels are numerals).
# An exponent literal above MAX_EXPONENT is rejected before any power is taken,
# and so is a coefficient whose numerator or denominator has more than
# MAX_COEFFICIENT_BITS bits: such a rational soon prints to more digits than
# Python's int-to-string limit allows.

MAX_EXPONENT = 1000
MAX_COEFFICIENT_BITS = 1024


def _tokenize(ring, text):
    names_by_len = sorted(ring.names, key=len, reverse=True)
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/":
            tokens.append(("op", ch))
            i += 1
            continue
        matched = None
        for name in names_by_len:
            if text.startswith(name, i):
                matched = name
                break
        if matched is not None:
            tokens.append(("name", matched))
            i += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            try:
                tokens.append(("int", int(text[i:j])))
            except ValueError as exc:  # digits int() refuses: too many, or not ASCII
                raise PolyParseError(str(exc)) from None
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r} at position {i} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, ring, tokens, text):
        self.ring = ring
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, why):
        raise PolyParseError(f"{why} in {self.text!r}")

    def bounded(self, c):
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_COEFFICIENT_BITS:
            self.fail(f"a coefficient has more than {MAX_COEFFICIENT_BITS} bits")
        return c

    def parse(self):
        result = self.ring.zero()
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        if self.peek()[0] is None:
            self.fail("empty polynomial")
        while True:
            result = result + self.term() * sign
            kind, val = self.peek()
            if kind is None:
                for _, c in result.terms:
                    self.bounded(c)
                return result
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
            else:
                self.fail(f"expected + or - before {val!r}")

    def exponent(self):
        kind, val = self.take()
        if kind != "int":
            self.fail("bad exponent")
        if val > MAX_EXPONENT:
            self.fail(f"exponent {val} is above {MAX_EXPONENT}")
        return val

    def term(self):
        coeff = ONE
        exps = [0] * self.ring.nvars
        while True:
            kind, val = self.take()
            if kind == "int":
                c = coefficient(val)
                nk, nv = self.peek()
                if nk == "op" and nv == "/":
                    self.take()
                    dk, dv = self.take()
                    if dk != "int" or dv == 0:
                        self.fail("bad rational coefficient")
                    c = c / dv
                elif nk == "op" and nv == "^":
                    self.take()
                    e = self.exponent()
                    # val ** e has at least (bits(val) - 1) * e + 1 bits
                    if (val.bit_length() - 1) * e >= MAX_COEFFICIENT_BITS:
                        self.fail(f"a coefficient has more than {MAX_COEFFICIENT_BITS} bits")
                    c = coefficient(val ** e)
                coeff = self.bounded(coeff * c)
            elif kind == "name":
                e = 1
                nk, nv = self.peek()
                if nk == "op" and nv == "^":
                    self.take()
                    e = self.exponent()
                exps[self.ring.index(val)] += e
            else:
                self.fail("expected a coefficient or variable")
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                continue
            if kind in ("name", "int"):
                continue  # juxtaposition
            break
        return self.ring.monomial(tuple(exps), coeff)


def _parse(ring, text):
    tokens = _tokenize(ring, text)
    if not tokens:
        raise PolyParseError(f"empty polynomial in {text!r}")
    return _Parser(ring, tokens, text).parse()

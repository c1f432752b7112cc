"""Finite lattices: validated join/meet structure, order-theoretic predicates,
poset-ideal enumeration, and pentagon/diamond sublattice search.

Elements are identified by index; labels are presentation-only.  A set of
elements (a poset ideal, a pentagon or diamond sublattice) is a frozenset
of element indices.  A fixed linear extension (topological order of the
covers, ties broken by input order) is computed once and shared with the
polynomial ring so variable ordering is deterministic across runs.
"""

from __future__ import annotations

import heapq
import warnings
from itertools import combinations
from math import isqrt

from .errors import InputError


class NotALattice(InputError):
    """The input poset is missing a unique join or meet for some pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class CyclicCovers(InputError):
    """The cover relation contains a cycle."""


class NotPureWarning(UserWarning):
    """Rank was requested on a lattice whose maximal chains differ in length."""


class Lattice:
    """Immutable finite lattice with precomputed join/meet tables.

    Construction fails eagerly (NotALattice / CyclicCovers) rather than
    deferring surprises to operation time.
    """

    __slots__ = (
        "labels",
        "covers",
        "bottom",
        "top",
        "linear_extension",
        "_down",
        "_lower",
        "_join",
        "_meet",
        "_ranks",
        "_pure",
        "_cache",
        "_hash",
    )

    def __init__(self, labels, cover_pairs):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise NotALattice("a lattice needs at least one element")
        if len(set(labels)) != len(labels):
            raise InputError("labels must be distinct")
        if "" in labels:
            raise InputError("labels must not be empty")
        n = len(labels)
        self.labels = labels

        edges = set()
        for a, b in cover_pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"cover pair ({a}, {b}) out of range")
            if a == b:
                raise CyclicCovers(f"self-loop on {labels[a]!r}")
            edges.add((a, b))

        above = [[] for _ in range(n)]  # a -> elements covering a (per input)
        indeg = [0] * n
        for a, b in edges:
            above[a].append(b)
            indeg[b] += 1

        # topological order, ties broken by input index
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        topo = []
        indeg_work = list(indeg)
        while ready:
            v = heapq.heappop(ready)
            topo.append(v)
            for w in above[v]:
                indeg_work[w] -= 1
                if indeg_work[w] == 0:
                    heapq.heappush(ready, w)
        if len(topo) != n:
            raise CyclicCovers("cover relation contains a cycle")
        self.linear_extension = tuple(topo)

        # reflexive-transitive closure: down-sets along the topological order
        down = [None] * n
        below = [[] for _ in range(n)]
        for a, b in edges:
            below[b].append(a)
        for v in topo:
            s = {v}
            for u in below[v]:
                s |= down[u]
            down[v] = frozenset(s)
        self._down = tuple(down)
        up = [set() for _ in range(n)]
        for b in range(n):
            for a in down[b]:
                up[a].add(b)
        up = tuple(frozenset(s) for s in up)

        # canonical cover relation from the closure (input may hold redundant pairs)
        canon = []
        for b in range(n):
            for a in down[b]:
                # b covers a when the interval [a, b] is {a, b}
                if len(down[b] & up[a]) == 2:
                    canon.append((a, b))
        self.covers = tuple(sorted(canon))
        self._hash = hash((labels, self.covers))

        # join/meet tables; reject pairs lacking a unique bound.  A least
        # upper bound lies below every other upper bound, so it is the one
        # with the smallest down-set, and it exists exactly when that
        # candidate lies below all the others; dually for meets.
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                uppers = up[a] & up[b]
                least = min(uppers, key=lambda u: len(down[u]), default=None)
                if least is None or not uppers <= up[least]:
                    raise NotALattice(
                        f"elements {labels[a]!r}, {labels[b]!r} have no unique join",
                        pair=(labels[a], labels[b]),
                    )
                lowers = down[a] & down[b]
                greatest = max(lowers, key=lambda v: len(down[v]), default=None)
                if greatest is None or not lowers <= down[greatest]:
                    raise NotALattice(
                        f"elements {labels[a]!r}, {labels[b]!r} have no unique meet",
                        pair=(labels[a], labels[b]),
                    )
                join[a][b] = join[b][a] = least
                meet[a][b] = meet[b][a] = greatest
        self._join = tuple(tuple(row) for row in join)
        self._meet = tuple(tuple(row) for row in meet)

        bottom = 0
        top = 0
        for v in range(n):
            bottom = meet[bottom][v]
            top = join[top][v]
        self.bottom = bottom
        self.top = top

        # longest chain from bottom; purity = every cover climbs exactly one rank
        lower = [set() for _ in range(n)]
        for a, b in self.covers:
            lower[b].add(a)
        self._lower = lower = tuple(frozenset(s) for s in lower)
        ranks = [0] * n
        for v in topo:
            ranks[v] = max((ranks[u] + 1 for u in lower[v]), default=0)
        self._ranks = tuple(ranks)
        self._pure = all(ranks[b] == ranks[a] + 1 for a, b in self.covers)
        self._cache = {}

    # -- construction helpers

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """Build from labels and (lower, upper) label pairs."""
        labels = [str(x) for x in labels]
        index = {x: i for i, x in enumerate(labels)}
        pairs = []
        for a, b in cover_pairs:
            a, b = str(a), str(b)
            if a not in index or b not in index:
                raise InputError(f"cover pair ({a!r}, {b!r}) references unknown label")
            pairs.append((index[a], index[b]))
        return cls(labels, pairs)

    # -- basics

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None

    def label_set(self, members):
        return {self.labels[i] for i in members}

    def le(self, a, b):
        return a in self._down[b]

    def join(self, a, b):
        return self._join[a][b]

    def meet(self, a, b):
        return self._meet[a][b]

    def incomparable_pairs(self):
        """All unordered pairs with neither a <= b nor b <= a."""
        return [
            (a, b)
            for a, b in combinations(range(self.n), 2)
            if not self.le(a, b) and not self.le(b, a)
        ]

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.labels == other.labels and self.covers == other.covers

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Lattice({list(self.labels)}, covers={len(self.covers)})"

    # -- lattice laws

    def is_modular(self):
        """x <= b implies x v (a ^ b) = (x v a) ^ b, checked over all triples."""
        got = self._cache.get("modular")
        if got is None:
            n = self.n
            join, meet = self._join, self._meet
            got = all(
                join[x][meet[a][b]] == meet[join[x][a]][b]
                for b in range(n)
                for x in range(n)
                if self.le(x, b)
                for a in range(n)
            )
            self._cache["modular"] = got
        return got

    def is_distributive(self):
        """Both distributive laws over all triples."""
        got = self._cache.get("distributive")
        if got is None:
            n = self.n
            join, meet = self._join, self._meet
            got = all(
                meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                and join[a][meet[b][c]] == meet[join[a][b]][join[a][c]]
                for a in range(n)
                for b in range(n)
                for c in range(n)
            )
            self._cache["distributive"] = got
        return got

    # -- symmetry

    def automorphism_generators(self):
        """Generators of Aut(L), each a tuple sending element e to its image.

        A bijection is an automorphism iff it maps each element's lower covers
        onto the lower covers of its image, so images are chosen by
        backtracking along the linear extension.  For each k, and each image
        w ≠ b of b = linear_extension[k] under the automorphisms that fix the
        elements before b, one such automorphism is kept.  These are the
        transversals of the stabilizer chain: they generate Aut(L), whose
        order is the product over k of (1 + the number kept at k), and there
        are at most n(n-1)/2 of them, so the group itself is never listed.
        """
        got = self._cache.get("automorphisms")
        if got is None:
            got = self._cache["automorphisms"] = tuple(self._transversals())
        return got

    def _transversals(self):
        n, topo, lower = self.n, self.linear_extension, self._lower
        with_lower = {}
        for w in range(n):
            with_lower.setdefault(lower[w], []).append(w)
        image = list(range(n))
        used = [False] * n

        def extend(i):
            """Complete image from position i of topo on; False at a dead end."""
            if i == n:
                return True
            v = topo[i]
            for w in with_lower.get(frozenset(image[u] for u in lower[v]), ()):
                if not used[w]:
                    image[v], used[w] = w, True
                    if extend(i + 1):
                        return True
                    used[w] = False
            return False

        for k, b in enumerate(topo):
            # image fixes topo[:k], which holds b's lower covers, so an image
            # of b has the same lower covers as b
            free = topo[k:]
            for w in with_lower[lower[b]]:
                if w == b or w not in free:
                    continue
                for v in free:
                    used[v] = False
                image[b], used[w] = w, True
                if extend(k + 1):
                    yield tuple(image)
            image[b], used[b] = b, True

    # -- forbidden sublattices

    def iter_pentagons(self):
        """All N5 sublattices as (e, y, x, z, f) with e < y < x < f, e < z < f."""
        n = self.n
        for z in range(n):
            for x in range(n):
                if x == z or self.le(x, z) or self.le(z, x):
                    continue
                for y in range(n):
                    if y == x or not self.le(y, x):
                        continue
                    if self.le(y, z) or self.le(z, y):
                        continue
                    f = self.join(x, z)
                    if self.join(y, z) != f:
                        continue
                    e = self.meet(y, z)
                    if self.meet(x, z) != e:
                        continue
                    yield (e, y, x, z, f)

    def find_pentagon(self):
        for e, y, x, z, f in self.iter_pentagons():
            return frozenset((e, y, x, z, f))
        return None

    def iter_diamonds(self):
        """All M3 sublattices as (e, x, y, z, f) with pairwise-incomparable x, y, z."""
        for x, y, z in combinations(range(self.n), 3):
            if self.le(x, y) or self.le(y, x):
                continue
            if self.le(x, z) or self.le(z, x):
                continue
            if self.le(y, z) or self.le(z, y):
                continue
            f = self.join(x, y)
            if self.join(x, z) != f or self.join(y, z) != f:
                continue
            e = self.meet(x, y)
            if self.meet(x, z) != e or self.meet(y, z) != e:
                continue
            yield (e, x, y, z, f)

    def find_diamond(self):
        for e, x, y, z, f in self.iter_diamonds():
            return frozenset((e, x, y, z, f))
        return None

    # -- rank and purity

    def is_pure(self):
        return self._pure

    def rank(self, a):
        """Longest chain from the bottom to a (warns when the lattice is not pure)."""
        if not self._pure:
            warnings.warn(
                f"rank({self.labels[a]!r}) on a non-pure lattice: maximal chains "
                "differ in length, value is the longest-chain rank",
                NotPureWarning,
                stacklevel=2,
            )
        return self._ranks[a]

    def find_rank2_diamond(self):
        """A diamond sublattice whose top sits exactly two ranks above its bottom.

        Defined for modular non-distributive lattices; returns None otherwise.
        """
        if not self.is_modular() or self.is_distributive():
            return None
        for e, x, y, z, f in self.iter_diamonds():
            if self._ranks[f] - self._ranks[e] == 2:
                return frozenset((e, x, y, z, f))
        return None

    # -- poset ideals

    def poset_ideals(self):
        """All downward-closed subsets, including the empty set and the whole
        lattice.  More than MAX_POSET_IDEALS of them raise InputError as soon
        as the enumeration passes that count (boolean(6) has 7,828,354)."""
        topo, lower = self.linear_extension, self._lower
        ideals = []

        def extend(i, current):
            if i == len(topo):
                if len(ideals) == MAX_POSET_IDEALS:
                    raise InputError(f"the lattice has more than {MAX_POSET_IDEALS} poset ideals")
                ideals.append(frozenset(current))
                return
            v = topo[i]
            extend(i + 1, current)
            if all(u in current for u in lower[v]):
                current.add(v)
                extend(i + 1, current)
                current.remove(v)

        extend(0, set())
        ideals.sort(key=lambda s: (len(s), sorted(s)))
        return ideals

    def is_poset_ideal(self, members):
        # down-closed iff closed under lower covers, by induction on the order
        members = frozenset(members)
        return all(self._lower[v] <= members for v in members)

    def poset_ideal(self, members):
        members = frozenset(members)
        if not self.is_poset_ideal(members):
            raise InputError(f"{self.label_set(members)} is not downward closed")
        return members

    def maximal_elements(self, members):
        members = set(members)
        return sorted(a for a in members if not any(b != a and self.le(a, b) for b in members))


# ---------------------------------------------------------------------------
# builders
#
# Each function below counts its elements before building and refuses more than
# MAX_ELEMENTS, so an oversized request fails at once instead of running for
# minutes.  divisor_lattice also refuses n above MAX_DIVISOR_N, which bounds
# the trial division that counts the divisors.  A lattice within MAX_ELEMENTS
# can still have millions of poset ideals, so Lattice.poset_ideals stops past
# MAX_POSET_IDEALS of them.

MAX_ELEMENTS = 128
MAX_DIVISOR_N = 10**12
MAX_POSET_IDEALS = 2**16


def _check_size(name, count):
    if count > MAX_ELEMENTS:
        raise InputError(f"{name} has more than {MAX_ELEMENTS} elements")


def chain(n):
    """Totally ordered lattice c0 < c1 < ... < c(n-1)."""
    _check_size(f"chain({n})", n)
    labels = [f"c{i}" for i in range(n)]
    return Lattice.from_covers(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def boolean(n):
    """Lattice of subsets of an n-set; bottom labelled 'o', atoms 'a', 'b', ..."""
    if n < 0:
        raise InputError("n must not be negative")
    # 2^n elements; the shift is capped so that a huge n costs nothing
    _check_size(f"boolean({n})", 1 << min(n, MAX_ELEMENTS.bit_length()))
    atoms = "abcdefghijklmnopqrstuvwxyz"[:n]
    subsets = sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s))
    label = lambda s: "".join(atoms[i] for i in range(n) if s >> i & 1) or "o"
    covers = [
        (label(s), label(s | 1 << i))
        for s in subsets
        for i in range(n)
        if not s >> i & 1
    ]
    return Lattice.from_covers([label(s) for s in subsets], covers)


def divisor_lattice(n):
    """Divisors of n ordered by divisibility; join = lcm, meet = gcd."""
    if n < 1:
        raise InputError("n must be positive")
    if n > MAX_DIVISOR_N:
        raise InputError(f"divisor lattice of {n}: n is above {MAX_DIVISOR_N}")
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divs = sorted(set(small + [n // d for d in small]))
    _check_size(f"divisor lattice of {n}", len(divs))
    covers = [
        (a, b)
        for a in divs
        for b in divs
        if b % a == 0 and a != b and not any(c % a == 0 and b % c == 0 and c not in (a, b) for c in divs)
    ]
    return Lattice.from_covers([str(d) for d in divs], [(str(a), str(b)) for a, b in covers])


def pentagon():
    """The five-element non-modular lattice N5 with e < y < x < f and e < z < f."""
    return Lattice.from_covers(
        ["e", "x", "y", "z", "f"],
        [("e", "y"), ("y", "x"), ("x", "f"), ("e", "z"), ("z", "f")],
    )


def diamond():
    """The five-element modular non-distributive lattice M3."""
    return Lattice.from_covers(
        ["e", "x", "y", "z", "f"],
        [("e", "x"), ("e", "y"), ("e", "z"), ("x", "f"), ("y", "f"), ("z", "f")],
    )

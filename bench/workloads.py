"""The benchmark's workloads: their inputs, and the verdicts theory predicts.

No expected answer is taken from the engine.  Distributive lattices must give
a found-and-replayed combinatorial filtration and a passing poset-ideal family;
a modular non-distributive lattice must give a certified none (a modular
lattice is distributive iff H[L] has a combinatorial Koszul filtration).  In
``member``, a combination of generators of I_L lies in I_L by construction,
and adding a positive combination of distinct chain-supported monomials takes
it out, because for a distributive L those monomials are linearly independent
modulo I_L (Hibi, 1987).

Import this module after ``src`` of the checkout is on ``sys.path``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import joinmeet
import joinmeet.cli

M3_ON_M3 = Path(__file__).resolve().parent / "data" / "m3_on_m3.json"

DISTRIBUTIVE = "distributive"
MODULAR_ONLY = "modular, not distributive"


def m3_on_m3():
    """Two diamonds M3 stacked top-to-bottom: e<x,y,z<f<p,q,r<t."""
    doc = json.loads(M3_ON_M3.read_text())
    return joinmeet.Lattice.from_covers(doc["elements"], doc["covers"])


# name -> [(label, builder, size, lattice class)]; the CLI workloads' lattice
# is the one their command line builds.
LATTICES = {
    "search-found": [("divisor(36)", lambda: joinmeet.divisor_lattice(36), 9, DISTRIBUTIVE)],
    "search-none": [("m3-on-m3", m3_on_m3, 9, MODULAR_ONLY)],
    "verify": [("divisor(60)", lambda: joinmeet.divisor_lattice(60), 12, DISTRIBUTIVE)],
    "member": [
        ("boolean(4)", lambda: joinmeet.boolean(4), 16, DISTRIBUTIVE),
        ("divisor(60)", lambda: joinmeet.divisor_lattice(60), 12, DISTRIBUTIVE),
        ("divisor(72)", lambda: joinmeet.divisor_lattice(72), 12, DISTRIBUTIVE),
    ],
}

CLI_ARGV = {
    "search-found": ["filtration", "search", "--builtin", "divisor", "--n", "36"],
    "search-none": ["filtration", "search", "--input", str(M3_ON_M3)],
    "verify": ["posetideals", "--builtin", "divisor", "--n", "60", "--verify"],
}

# Queries answered by one ``member`` request process.
MEMBER_QUERIES = 20000


def build(name):
    return [builder() for _, builder, _, _ in LATTICES[name]]


# ---------------------------------------------------------------------------
# input checks, made before any timing


def _laws(L):
    """(modular, distributive) by brute force over the join/meet tables."""
    n = range(L.n)
    distributive = all(
        L.meet(x, L.join(y, z)) == L.join(L.meet(x, y), L.meet(x, z))
        for x, y, z in product(n, n, n)
    )
    modular = all(
        L.join(x, L.meet(a, b)) == L.meet(L.join(x, a), b)
        for x, a, b in product(n, n, n)
        if L.le(x, b)
    )
    return modular, distributive


def down_set_count(L):
    """Number of poset ideals, counted over all subsets with ``Lattice.le``."""
    n = L.n
    below = [sum(1 << a for a in range(n) if L.le(a, b)) for b in range(n)]
    return sum(
        all(not mask >> b & 1 or below[b] & mask == below[b] for b in range(n))
        for mask in range(1 << n)
    )


def check_inputs(name, lattices):
    """Problems with the workload's lattices; empty when all are as stated."""
    problems = []
    for (label, _, size, kind), L in zip(LATTICES[name], lattices):
        want = (True, kind == DISTRIBUTIVE)
        api = (L.is_modular(), L.is_distributive())
        if L.n != size:
            problems.append(f"{label}: {L.n} elements, expected {size}")
        if api != want:
            problems.append(f"{label}: Lattice API says (modular, distributive) = {api}, expected {want}")
        if _laws(L) != want:
            problems.append(f"{label}: lattice laws give {_laws(L)}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# the CLI workloads


def run_cli(name):
    """Run the workload's command line in this process; (exit code, document)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = joinmeet.cli.main(CLI_ARGV[name] + ["--format", "json"])
    return code, json.loads(out.getvalue())


def expected_cli(name, lattices):
    """What theory says the command must report, worked out before timing."""
    L = lattices[0]
    if name == "verify":
        return {"count": down_set_count(L)}
    return {"subsets": 1 << L.n, "labels": set(L.labels)}


def check_cli(name, expected, code, doc):
    """Problems with a CLI verdict against the theory; empty when correct."""
    result = doc.get("result", {})
    problems = []
    if name == "verify":
        if code != 0 or result.get("koszul_filtration") is not True:
            problems.append(f"poset-ideal family of a distributive lattice did not pass (exit {code})")
        if result.get("count") != expected["count"]:
            problems.append(f"{result.get('count')} poset ideals, expected {expected['count']}")
        return problems
    if result.get("subsets_examined") != expected["subsets"]:
        problems.append(f"{result.get('subsets_examined')} subsets processed, "
                        f"expected {expected['subsets']}")
    if name == "search-none":
        if code != 1 or result.get("found") is not False:
            problems.append(f"modular non-distributive lattice was not certified none (exit {code})")
        return problems
    if code != 0 or result.get("found") is not True or result.get("replay_passed") is not True:
        problems.append(f"distributive lattice did not give a found-and-replayed family (exit {code})")
        return problems
    ideals = [set(m) for m in result["filtration"]["ideals"]]
    if set() not in ideals or expected["labels"] not in ideals:
        problems.append("found family lacks the zero or the maximal ideal")
    if any(not m <= expected["labels"] for m in ideals):
        problems.append("found family has a member not generated by variables")
    return problems


# ---------------------------------------------------------------------------
# the member workload


def _random_maximal_chain(L, upper, rng):
    chain = [L.bottom]
    while chain[-1] != L.top:
        chain.append(rng.choice(upper[chain[-1]]))
    return chain


def member_queries(lattices, seed, count=MEMBER_QUERIES):
    """A seeded stream of (ideal, f, expected membership) over the lattices.

    f is a sum of one to three generators of I_L, each times a coefficient and
    a monomial of degree at most one.  Half of the queries add a positive
    combination of distinct monomials supported on a maximal chain.
    """
    rng = random.Random(seed)
    bases = []
    for L in lattices:
        jm = joinmeet.join_meet_ideal(L)
        ring = jm.ring
        upper = {a: [b for c, b in L.covers if c == a] for a in range(L.n)}
        var = [ring.index(label) for label in L.labels]
        bases.append((L, ring, jm.generators, jm.ideal, upper, var))
    coefficients = [c for c in range(-5, 6) if c]
    queries = []
    for _ in range(count):
        L, ring, gens, ideal, upper, var = rng.choice(bases)
        f = ring.zero()
        for _ in range(rng.randint(1, 3)):
            shift = [0] * ring.nvars
            if rng.random() < 0.5:
                shift[rng.randrange(ring.nvars)] = 1
            coeff = Fraction(rng.choice(coefficients), rng.randint(1, 3))
            f = f + rng.choice(gens).shift(tuple(shift), coeff)
        member = rng.random() < 0.5
        if not member:
            monomials = set()
            for _ in range(rng.randint(1, 3)):
                chain = _random_maximal_chain(L, upper, rng)
                exps = [0] * ring.nvars
                for _ in range(rng.randint(1, 3)):
                    exps[var[rng.choice(chain)]] += 1
                monomials.add(tuple(exps))
            for exps in sorted(monomials):
                f = f + ring.monomial(exps, rng.randint(1, 5))
        queries.append((ideal, f, member))
    return queries

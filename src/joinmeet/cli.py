"""Command-line surface: ingest lattices and filtration files, run checks,
emit human-readable text or a single structured JSON document per run.

Lattice file:    {"elements": [...], "covers": [["a", "b"], ...]}
Filtration file: {"ideals": [[poly-string, ...], ...]} where [] is the zero
ideal and the string "m" abbreviates the maximal graded ideal.

Exit codes: 0 success / pass, 1 fail or certified-none verdicts, 2 input
errors.  Prime-field mode (--field prime) is a performance cross-check only;
its reports are stamped as unverified arithmetic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .groebner import groebner_basis
from .hibi import (
    NotLinear,
    colon_in_H,
    join_meet_ideal,
    lattice_ring,
    residue_ideal,
)
from .koszul import (
    CapExceeded,
    DEFAULT_SEARCH_CAP,
    MalformedFamily,
    filtration,
    poset_ideal_filtration,
    search_combinatorial,
    verify_filtration,
)
from .lattice import (
    CyclicCovers,
    Lattice,
    NotALattice,
    boolean,
    chain,
    diamond,
    divisor_lattice,
    pentagon,
)
from .poly import GF, PolyParseError, QQ

SEARCH_CAP_ENV = "JOINMEET_SEARCH_CAP"

_INPUT_ERRORS = (
    NotALattice,
    CyclicCovers,
    NotLinear,
    PolyParseError,
    MalformedFamily,
    CapExceeded,
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
)


@dataclass
class RunConfig:
    command: str
    builtin: str = None
    n: int = None
    input: str = None
    format: str = "text"
    field_mode: str = "rational"
    prime: int = 32003
    cap: int = None

    @property
    def field(self):
        return QQ if self.field_mode == "rational" else GF(self.prime)

    @property
    def arithmetic(self):
        if self.field_mode == "rational":
            return "rational (exact)"
        return f"prime({self.prime}), unverified arithmetic"

    def to_dict(self):
        return {
            "command": self.command,
            "builtin": self.builtin,
            "n": self.n,
            "input": self.input,
            "format": self.format,
            "field": self.field_mode,
            "prime": self.prime if self.field_mode == "prime" else None,
            "cap": self.cap,
        }


BUILTINS = {
    "pentagon": lambda n: pentagon(),
    "diamond": lambda n: diamond(),
    "chain": chain,
    "boolean": boolean,
    "divisor": divisor_lattice,
}

_NEEDS_N = {"chain", "boolean", "divisor"}


def load_lattice(config):
    if config.builtin:
        name = config.builtin
        if name not in BUILTINS:
            raise ValueError(f"unknown builtin {name!r} (choose from {sorted(BUILTINS)})")
        if name in _NEEDS_N and config.n is None:
            raise ValueError(f"builtin {name!r} needs --n")
        return BUILTINS[name](config.n)
    if config.input:
        path = config.input
        doc = _load_json(path, "elements", "covers")
        for name in doc["elements"]:
            if not isinstance(name, _NAMES):
                raise ValueError(f"{path}: element {name!r} is not a name")
        for pair in doc["covers"]:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(a, _NAMES) for a in pair)):
                raise ValueError(f"{path}: cover {pair!r} is not a [lower, upper] pair of names")
        return Lattice.from_covers(doc["elements"], doc["covers"])
    raise ValueError("provide --builtin or --input")


# element names may be JSON strings or numbers; from_covers turns them into strings
_NAMES = (str, int, float)


def _load_json(path, *lists):
    """The JSON object in path, which must hold a list under each key."""
    with open(path) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in lists)):
        raise ValueError(f"{path}: expected an object with lists {', '.join(lists)}")
    return doc


def load_filtration(L, path, field):
    doc = _load_json(path, "ideals")
    members = []
    for entry in doc["ideals"]:
        if entry == "m":
            entry = list(L.labels)
        elif not (isinstance(entry, list) and all(isinstance(g, str) for g in entry)):
            raise ValueError(f'{path}: ideal {entry!r} is neither "m" nor a list of linear forms')
        members.append(residue_ideal(L, entry, field))
    return filtration(L, members, field)


def filtration_document(family):
    return {
        "ideals": [[str(g) for g in m.linear_generators] for m in family.members]
    }


# ---------------------------------------------------------------------------
# reporting helpers


class Report:
    """One document per run: config echo, verdicts, witnesses, timing."""

    def __init__(self, config):
        self.config = config
        self.lines = []
        self.data = {"config": config.to_dict(), "arithmetic": config.arithmetic}
        self.started = time.perf_counter()

    def text(self, line=""):
        self.lines.append(line)

    def emit(self, stream=None):
        if stream is None:
            stream = sys.stdout
        self.data["timing_seconds"] = round(time.perf_counter() - self.started, 6)
        if self.config.format == "json":
            json.dump(self.data, stream, indent=2, default=str)
            stream.write("\n")
        else:
            if self.config.field_mode == "prime":
                self.lines.insert(0, f"[{self.config.arithmetic}]")
            for line in self.lines:
                stream.write(line + "\n")


def _sub_labels(L, sub):
    return "{" + ", ".join(L.labels[i] for i in sorted(sub.members)) + "}"


def _ideal_str(gens):
    return "(" + ", ".join(str(g) for g in gens) + ")"


# ---------------------------------------------------------------------------
# commands


def cmd_check(config):
    report = Report(config)
    L = load_lattice(config)
    pent = L.find_pentagon()
    diam = L.find_diamond()
    rank2 = L.find_rank2_diamond()
    result = {
        "elements": list(L.labels),
        "is_modular": L.is_modular(),
        "is_distributive": L.is_distributive(),
        "is_pure": L.is_pure(),
        "pentagon": sorted(L.label_set(pent.members)) if pent else None,
        "diamond": sorted(L.label_set(diam.members)) if diam else None,
        "rank2_diamond": sorted(L.label_set(rank2.members)) if rank2 else None,
    }
    report.data["result"] = result
    report.text(f"lattice: {len(L.labels)} elements: {' '.join(L.labels)}")
    report.text(f"is_modular: {result['is_modular']}")
    report.text(f"is_distributive: {result['is_distributive']}")
    report.text(f"is_pure: {result['is_pure']}")
    report.text(f"pentagon sublattice: {_sub_labels(L, pent) if pent else 'none'}")
    report.text(f"diamond sublattice: {_sub_labels(L, diam) if diam else 'none'}")
    if rank2:
        report.text(f"rank-2 diamond: {_sub_labels(L, rank2)}")
    elif L.is_modular() and not L.is_distributive():
        report.text("rank-2 diamond: none")
    else:
        why = "not modular" if not L.is_modular() else "distributive"
        report.text(f"rank-2 diamond: n/a (lattice is {why})")
    report.emit()
    return 0


def cmd_ideal(config):
    report = Report(config)
    L = load_lattice(config)
    jm = join_meet_ideal(L, config.field)
    gb = groebner_basis(jm.ideal)
    report.data["result"] = {
        "generators": [str(g) for g in jm.generators],
        "reduced_groebner_basis": [str(g) for g in gb.basis],
    }
    report.text(f"join-meet ideal of {len(L.labels)}-element lattice")
    report.text(f"generators ({len(jm.generators)}):")
    for g in jm.generators:
        report.text(f"  {g}")
    report.text(f"reduced Groebner basis ({len(gb.basis)}):")
    for g in gb.basis:
        report.text(f"  {g}")
    report.emit()
    return 0


def _parse_gens(raw):
    if raw is None:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def cmd_colon(config, j_gens, by):
    report = Report(config)
    L = load_lattice(config)
    field = config.field
    J = residue_ideal(L, _parse_gens(j_gens), field)
    rep = colon_in_H(J, lattice_ring(L, field).parse(by))
    report.data["result"] = {
        "j": [str(g) for g in J.linear_generators],
        "by": by,
        "lift_groebner_basis": [str(g) for g in rep.groebner.basis],
        "degree1": [str(g) for g in rep.degree1],
        "linear_generated": rep.linear_generated,
        "variable_generated": rep.variable_generated,
        "variables": rep.variable_labels(),
        "nonlinear_witness": str(rep.nonlinear_witness) if rep.nonlinear_witness else None,
    }
    report.text(f"colon {J!r} : ({by}) in H[L]")
    report.text(f"lifted colon reduced GB: {_ideal_str(rep.groebner.basis)}")
    report.text(f"degree-1 part: {_ideal_str(rep.degree1)}")
    if rep.linear_generated:
        report.text("generated by linear forms: yes")
    else:
        report.text(f"NOT generated by linear forms (witness: {rep.nonlinear_witness})")
    if rep.variable_generated:
        report.text("generated by variables: yes {" + ", ".join(rep.variable_labels()) + "}")
    else:
        report.text("generated by variables: no")
    report.emit()
    return 0


def _witness_lines(L, family, rep):
    lines = []
    for w in rep.witnesses:
        lines.append(
            f"  {family.members[w.member_index]!r}: J = {w.j!r}, "
            f"cyclic via {w.cyclic_generator}, J:I = member {w.colon_member_index} "
            f"{family.members[w.colon_member_index]!r}"
        )
    return lines


def _verify_into_report(report, L, family, rep):
    report.data["result"] = {
        "members": len(family.members),
        "passed": rep.passed,
        "axiom1": rep.axiom1_ok,
        "axiom2": {"ok": rep.axiom2_ok, "has_zero": rep.has_zero, "has_maximal": rep.has_maximal},
        "axiom3": rep.axiom3_ok,
        "witnesses": [
            {
                "member": repr(w.member),
                "j": repr(w.j),
                "cyclic_generator": str(w.cyclic_generator),
                "colon_member": w.colon_member_index,
            }
            for w in rep.witnesses
        ],
        "failures": [
            {
                "member": repr(f.member),
                "no_candidates": f.no_candidates,
                "tried": [
                    {"j": j, "reason": reason, "detail": str(detail)}
                    for j, reason, detail in f.tried
                ],
            }
            for f in rep.axiom3_failures
        ],
    }
    report.text(f"family of {len(family.members)} ideals "
                f"({'combinatorial' if family.combinatorial else 'general linear forms'})")
    report.text(f"axiom 1 (linear generators): {'pass' if rep.axiom1_ok else 'FAIL'}")
    report.text(
        f"axiom 2 (0 and m present): {'pass' if rep.axiom2_ok else 'FAIL'}"
        f" (zero: {rep.has_zero}, maximal: {rep.has_maximal})"
    )
    report.text(f"axiom 3 (cyclic colon steps): {'pass' if rep.axiom3_ok else 'FAIL'}")
    if rep.witnesses:
        report.text("witnesses:")
        report.lines.extend(_witness_lines(L, family, rep))
    for f in rep.axiom3_failures:
        report.text(f"  no witness for {f.member!r}:")
        if f.no_candidates:
            report.text("    no member sits inside it with codimension one")
        for j, reason, detail in f.tried:
            report.text(f"    J = member {j}: {reason} ({detail})")
    report.text(f"verdict: {'pass' if rep.passed else 'fail'}")


def cmd_filtration_verify(config, path):
    report = Report(config)
    L = load_lattice(config)
    family = load_filtration(L, path, config.field)
    rep = verify_filtration(L, family)
    _verify_into_report(report, L, family, rep)
    report.emit()
    return 0 if rep.passed else 1


def cmd_filtration_search(config, out=None):
    report = Report(config)
    L = load_lattice(config)
    cap = config.cap if config.cap is not None else DEFAULT_SEARCH_CAP
    family = search_combinatorial(L, cap=cap, field=config.field)
    subsets = 1 << L.n
    if family is None:
        report.data["result"] = {"found": False, "subsets_examined": subsets}
        report.text(f"no combinatorial Koszul filtration: none (certified, {subsets} subsets examined)")
        report.emit()
        return 1
    rep = verify_filtration(L, family)
    report.data["result"] = {
        "found": True,
        "subsets_examined": subsets,
        "members": len(family.members),
        "replay_passed": rep.passed,
        "filtration": filtration_document(family),
    }
    report.text(f"combinatorial Koszul filtration found ({len(family.members)} members, "
                f"{subsets} subsets examined):")
    for m in family.members:
        report.text(f"  {m!r}")
    report.text(f"replay verification: {'pass' if rep.passed else 'FAIL'}")
    if out:
        with open(out, "w") as fh:
            json.dump(filtration_document(family), fh, indent=2)
            fh.write("\n")
        report.text(f"filtration written to {out}")
    report.emit()
    return 0 if rep.passed else 1


def cmd_posetideals(config, verify):
    report = Report(config)
    L = load_lattice(config)
    ideals = L.poset_ideals()
    report.data["result"] = {
        "count": len(ideals),
        "ideals": [sorted(L.label_set(s.members)) for s in ideals],
    }
    report.text(f"{len(ideals)} poset ideals:")
    for s in ideals:
        report.text("  {" + ", ".join(sorted(L.label_set(s.members))) + "}")
    code = 0
    if verify:
        rep = verify_filtration(L, poset_ideal_filtration(L, config.field))
        report.data["result"]["koszul_filtration"] = rep.passed
        report.text(f"Koszul filtration: {'pass' if rep.passed else 'fail'}")
        code = 0 if rep.passed else 1
    report.emit()
    return code


# ---------------------------------------------------------------------------
# argument parsing


_PRIME_LIMIT = 2**64
# Miller-Rabin with these bases decides primality of every n < 3.1e23
# (Sorenson-Webster 2015), which covers every --prime below _PRIME_LIMIT.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_odd_prime(n):
    """Deterministic Miller-Rabin for 2 < n < _PRIME_LIMIT."""
    if n % 2 == 0:
        return False
    if n in _MILLER_RABIN_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_prime(text):
    """argparse type for --prime: an odd prime below 2^64."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not 2 < p < _PRIME_LIMIT or not _is_odd_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not an odd prime below 2^64")
    return p


def _add_common(parser, needs_lattice=True):
    if needs_lattice:
        parser.add_argument("--builtin", help="pentagon, diamond, chain, boolean, divisor")
        parser.add_argument("--n", type=int, help="parameter for chain/boolean/divisor")
        parser.add_argument("--input", help="lattice JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--field", choices=("rational", "prime"), default="rational")
    parser.add_argument("--prime", type=_odd_prime, default=32003,
                        help="odd prime below 2^64 for --field prime (default 32003)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="joinmeet",
        description="Join-meet ideals, colon ideals in H[L], Koszul filtrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="order-theoretic report for a lattice")
    _add_common(p)

    p = sub.add_parser("ideal", help="print the join-meet ideal and its reduced basis")
    _add_common(p)

    p = sub.add_parser("colon", help="colon of residue ideals in H[L]")
    _add_common(p)
    p.add_argument("--j", default="", help="comma-separated linear generators of J")
    p.add_argument("--by", required=True, help="linear form to colon by")

    p = sub.add_parser("posetideals", help="enumerate poset ideals")
    _add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="also verify the poset-ideal family as a Koszul filtration")

    p = sub.add_parser("filtration", help="verify or search Koszul filtrations")
    fsub = p.add_subparsers(dest="subcommand", required=True)

    v = fsub.add_parser("verify", help="check the three axioms for a filtration file")
    _add_common(v)
    v.add_argument("file", help="filtration JSON file")

    s = fsub.add_parser("search", help="exhaustive combinatorial filtration search")
    _add_common(s)
    s.add_argument("--cap", type=int, default=None,
                   help=f"max lattice size (default {DEFAULT_SEARCH_CAP}, "
                        f"env {SEARCH_CAP_ENV})")
    s.add_argument("--out", help="write the found filtration to this file")
    return parser


def _config_from(args):
    command = args.command
    if command == "filtration":
        command = f"filtration {args.subcommand}"
    cap = getattr(args, "cap", None)
    if cap is None and os.environ.get(SEARCH_CAP_ENV):
        cap = int(os.environ[SEARCH_CAP_ENV])
    return RunConfig(
        command=command,
        builtin=getattr(args, "builtin", None),
        n=getattr(args, "n", None),
        input=getattr(args, "input", None),
        format=args.format,
        field_mode=args.field,
        prime=args.prime,
        cap=cap,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = _config_from(args)
    try:
        if args.command == "check":
            return cmd_check(config)
        if args.command == "ideal":
            return cmd_ideal(config)
        if args.command == "colon":
            return cmd_colon(config, args.j, args.by)
        if args.command == "posetideals":
            return cmd_posetideals(config, args.verify)
        if args.command == "filtration" and args.subcommand == "verify":
            return cmd_filtration_verify(config, args.file)
        if args.command == "filtration" and args.subcommand == "search":
            return cmd_filtration_search(config, args.out)
        raise ValueError(f"unknown command {args.command!r}")
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

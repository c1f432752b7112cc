"""Command-line surface: ingest lattices and filtration files, run checks,
emit human-readable text or a single structured JSON document per run.

Lattice file:    {"elements": [...], "covers": [["a", "b"], ...]}
Filtration file: {"ideals": [[poly-string, ...], ...]} where [] is the zero
ideal and the string "m" abbreviates the maximal graded ideal.

Each command computes one result dict: the "result" of the JSON document,
and the only thing its text rendering reads.  All arithmetic is exact,
over the rationals.

Exit codes: 0 success / pass, 1 fail or certified-none verdicts, 2 input
errors, 3 internal errors (message and traceback on stderr).  With --format
json an error is the document {"config", "error", "kind": "input" | "internal"}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from .errors import InputError
from .groebner import groebner_basis
from .hibi import colon_in_H, join_meet_ideal, lattice_ring, maximal_ideal, residue_ideal
from .koszul import (
    DEFAULT_SEARCH_CAP,
    filtration,
    poset_ideal_filtration,
    search_combinatorial,
    verify_filtration,
)
from .lattice import Lattice, boolean, chain, diamond, divisor_lattice, pentagon

# Every input error the library raises is an InputError (NotALattice,
# CyclicCovers, NotLinear, PolyParseError, MalformedFamily, CapExceeded and
# the checks here), and an input file may also fail to open.  Any other
# exception, such as an engine ValueError, is an internal error.
_INPUT_ERRORS = (InputError, OSError)


# each builtin lattice and whether it takes --n
BUILTINS = {
    "pentagon": (pentagon, False),
    "diamond": (diamond, False),
    "chain": (chain, True),
    "boolean": (boolean, True),
    "divisor": (divisor_lattice, True),
}


def load_lattice(args):
    if args.builtin and args.input:
        raise InputError("give --builtin or --input, not both")
    if args.builtin:
        name = args.builtin
        if name not in BUILTINS:
            raise InputError(f"unknown builtin {name!r} (choose from {sorted(BUILTINS)})")
        build, takes_n = BUILTINS[name]
        if takes_n != (args.n is not None):
            raise InputError(f"builtin {name!r} {'needs' if takes_n else 'takes no'} --n")
        return build(args.n) if takes_n else build()
    if args.input:
        if args.n is not None:
            raise InputError("--input takes no --n")
        path = args.input
        doc = _load_json(path, "elements", "covers")
        for name in doc["elements"]:
            if not isinstance(name, _NAMES):
                raise InputError(f"{path}: element {name!r} is not a name")
        for pair in doc["covers"]:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(a, _NAMES) for a in pair)):
                raise InputError(f"{path}: cover {pair!r} is not a [lower, upper] pair of names")
        return Lattice.from_covers(doc["elements"], doc["covers"])
    raise InputError("provide --builtin or --input")


# element names may be JSON strings or numbers; from_covers turns them into strings
_NAMES = (str, int, float)


def _load_json(path, *lists):
    """The JSON object in path, which must hold a list under each key."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or a number int() refuses
            raise InputError(str(exc)) from None
    if not (isinstance(doc, dict) and all(isinstance(doc.get(k), list) for k in lists)):
        raise InputError(f"{path}: expected an object with lists {', '.join(lists)}")
    return doc


def load_filtration(L, path):
    doc = _load_json(path, "ideals")
    members = []
    for entry in doc["ideals"]:
        if entry == "m":
            members.append(maximal_ideal(L))
        elif isinstance(entry, list) and all(isinstance(g, str) for g in entry):
            members.append(residue_ideal(L, entry))
        else:
            raise InputError(f'{path}: ideal {entry!r} is neither "m" nor a list of linear forms')
    return filtration(L, members)


def _strs(polys):
    return [str(g) for g in polys]


def _braces(names):
    return "{" + ", ".join(names) + "}"


def _parens(gens):
    return "(" + ", ".join(gens) + ")"


# ---------------------------------------------------------------------------
# commands: each maps (lattice, args, config) to (exit code, result dict), and
# its text_* renders that result dict


def cmd_check(L, args, config):
    def labels(sub):  # in element order
        return [L.labels[i] for i in sub] if sub else None

    return 0, {
        "elements": list(L.labels),
        "is_modular": L.is_modular(),
        "is_distributive": L.is_distributive(),
        "is_pure": L.is_pure(),
        "pentagon": labels(L.find_pentagon()),
        "diamond": labels(L.find_diamond()),
        "rank2_diamond": labels(L.find_rank2_diamond()),
    }


def text_check(r):
    if r["rank2_diamond"]:
        rank2 = _braces(r["rank2_diamond"])
    elif r["is_modular"] and not r["is_distributive"]:
        rank2 = "none"
    else:
        rank2 = f"n/a (lattice is {'distributive' if r['is_modular'] else 'not modular'})"
    return [
        f"lattice: {len(r['elements'])} elements: {' '.join(r['elements'])}",
        f"is_modular: {r['is_modular']}",
        f"is_distributive: {r['is_distributive']}",
        f"is_pure: {r['is_pure']}",
        f"pentagon sublattice: {_braces(r['pentagon']) if r['pentagon'] else 'none'}",
        f"diamond sublattice: {_braces(r['diamond']) if r['diamond'] else 'none'}",
        f"rank-2 diamond: {rank2}",
    ]


def cmd_ideal(L, args, config):
    jm = join_meet_ideal(L)
    return 0, {
        "elements": list(L.labels),
        "generators": _strs(jm.generators),
        "reduced_groebner_basis": _strs(groebner_basis(jm.ideal).basis),
    }


def text_ideal(r):
    return [
        f"join-meet ideal of {len(r['elements'])}-element lattice",
        f"generators ({len(r['generators'])}):",
        *(f"  {g}" for g in r["generators"]),
        f"reduced Groebner basis ({len(r['reduced_groebner_basis'])}):",
        *(f"  {g}" for g in r["reduced_groebner_basis"]),
    ]


def cmd_colon(L, args, config):
    J = residue_ideal(L, [g.strip() for g in args.j.split(",") if g.strip()])
    rep = colon_in_H(J, lattice_ring(L).parse(args.by))
    return 0, {
        "j": _strs(J.linear_generators),
        "by": args.by,
        "lift_groebner_basis": _strs(rep.groebner.basis),
        "degree1": _strs(rep.degree1),
        "linear_generated": rep.linear_generated,
        "variable_generated": rep.variable_generated,
        "variables": rep.variable_labels(),
        "nonlinear_witness": str(rep.nonlinear_witness) if rep.nonlinear_witness else None,
    }


def text_colon(r):
    return [
        f"colon {_parens(r['j'])} : ({r['by']}) in H[L]",
        f"lifted colon reduced GB: {_parens(r['lift_groebner_basis'])}",
        f"degree-1 part: {_parens(r['degree1'])}",
        "generated by linear forms: yes" if r["linear_generated"]
        else f"NOT generated by linear forms (witness: {r['nonlinear_witness']})",
        f"generated by variables: yes {_braces(r['variables'])}" if r["variable_generated"]
        else "generated by variables: no",
    ]


def cmd_filtration_verify(L, args, config):
    family = load_filtration(L, args.file)
    rep = verify_filtration(L, family)
    return 0 if rep.passed else 1, {
        "members": len(family.members),
        "combinatorial": family.combinatorial,
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
                "colon": repr(family.members[w.colon_member_index]),
            }
            for w in rep.witnesses
        ],
        "failures": [
            {
                "member": repr(f.member),
                "no_candidates": f.no_candidates,
                "tried": [
                    {"j": j, "reason": reason, "detail": _detail(reason, detail)}
                    for j, reason, detail in f.tried
                ],
            }
            for f in rep.axiom3_failures
        ],
    }


def _detail(reason, detail):
    """A failed step's detail: the colon's linear forms, listed as a member's
    generators are, or the generator that makes it nonlinear."""
    return ", ".join(_strs(detail)) if reason == "colon-not-member" else str(detail)


def text_filtration_verify(r):
    axiom2 = r["axiom2"]
    lines = [
        f"family of {r['members']} ideals "
        f"({'combinatorial' if r['combinatorial'] else 'general linear forms'})",
        f"axiom 1 (linear generators): {'pass' if r['axiom1'] else 'FAIL'}",
        f"axiom 2 (0 and m present): {'pass' if axiom2['ok'] else 'FAIL'}"
        f" (zero: {axiom2['has_zero']}, maximal: {axiom2['has_maximal']})",
        f"axiom 3 (cyclic colon steps): {'pass' if r['axiom3'] else 'FAIL'}",
    ]
    if r["witnesses"]:
        lines.append("witnesses:")
    for w in r["witnesses"]:
        lines.append(f"  {w['member']}: J = {w['j']}, cyclic via {w['cyclic_generator']}, "
                     f"J:I = member {w['colon_member']} {w['colon']}")
    for f in r["failures"]:
        lines.append(f"  no witness for {f['member']}:")
        if f["no_candidates"]:
            lines.append("    no member sits inside it with codimension one")
        for t in f["tried"]:
            lines.append(f"    J = member {t['j']}: {t['reason']} ({t['detail']})")
    lines.append(f"verdict: {'pass' if r['passed'] else 'fail'}")
    return lines


def cmd_filtration_search(L, args, config):
    family = search_combinatorial(L, cap=DEFAULT_SEARCH_CAP if args.cap is None else args.cap)
    subsets = 1 << L.n
    if family is None:
        return 1, {"found": False, "subsets_examined": subsets}
    rep = verify_filtration(L, family)
    result = {
        "found": True,
        "subsets_examined": subsets,
        "members": len(family.members),
        "replay_passed": rep.passed,
        "filtration": {"ideals": [_strs(m.linear_generators) for m in family.members]},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result["filtration"], fh, indent=2)
            fh.write("\n")
        result["written_to"] = args.out
    return 0 if rep.passed else 1, result


def text_filtration_search(r):
    subsets = r["subsets_examined"]
    if not r["found"]:
        return [f"no combinatorial Koszul filtration: none (certified, {subsets} subsets examined)"]
    lines = [
        f"combinatorial Koszul filtration found ({r['members']} members, "
        f"{subsets} subsets examined):",
        *(f"  {_parens(m)}" for m in r["filtration"]["ideals"]),
        f"replay verification: {'pass' if r['replay_passed'] else 'FAIL'}",
    ]
    if "written_to" in r:
        lines.append(f"filtration written to {r['written_to']}")
    return lines


def cmd_posetideals(L, args, config):
    ideals = L.poset_ideals()
    result = {
        "count": len(ideals),
        "ideals": [sorted(L.label_set(s.members)) for s in ideals],
    }
    if not args.verify:
        return 0, result
    rep = verify_filtration(L, poset_ideal_filtration(L))
    result["koszul_filtration"] = rep.passed
    return 0 if rep.passed else 1, result


def text_posetideals(r):
    lines = [f"{r['count']} poset ideals:", *(f"  {_braces(s)}" for s in r["ideals"])]
    if "koszul_filtration" in r:
        lines.append(f"Koszul filtration: {'pass' if r['koszul_filtration'] else 'fail'}")
    return lines


COMMANDS = {
    "check": (cmd_check, text_check),
    "ideal": (cmd_ideal, text_ideal),
    "colon": (cmd_colon, text_colon),
    "posetideals": (cmd_posetideals, text_posetideals),
    "filtration verify": (cmd_filtration_verify, text_filtration_verify),
    "filtration search": (cmd_filtration_search, text_filtration_search),
}


# ---------------------------------------------------------------------------
# output


def _write_json(doc):
    json.dump(doc, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def emit(config, result, render, started):
    """Write the run's one document: JSON, or the text rendered from result."""
    if config["format"] == "json":
        _write_json({
            "config": config,
            "arithmetic": "rational (exact)",
            "result": result,
            "timing_seconds": round(time.perf_counter() - started, 6),
        })
        return
    for line in render(result):
        sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--builtin", help="pentagon, diamond, chain, boolean, divisor")
    parser.add_argument("--n", type=int, help="parameter for chain/boolean/divisor")
    parser.add_argument("--input", help="lattice JSON file")
    parser.add_argument("--format", choices=("text", "json"), default="text")


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
                   help=f"max lattice size (default {DEFAULT_SEARCH_CAP})")
    s.add_argument("--out", help="write the found filtration to this file")
    return parser


def _config(args):
    """The config echo of a run: the shared options, as parsed."""
    command = args.command
    if command == "filtration":
        command = f"filtration {args.subcommand}"
    return {
        "command": command,
        "builtin": args.builtin,
        "n": args.n,
        "input": args.input,
        "format": args.format,
        "cap": getattr(args, "cap", None),
    }


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = _config(args)
    try:
        code = _run(args, config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (as `| head -1` does): end as SIGPIPE
        # would, with no traceback and no second failure when Python flushes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(args, config):
    """Run one command and write its document; the exit code."""
    run, render = COMMANDS[config["command"]]
    started = time.perf_counter()
    try:
        code, result = run(load_lattice(args), args, config)
    except Exception as exc:
        kind = "input" if isinstance(exc, _INPUT_ERRORS) else "internal"
        if config["format"] == "json":
            _write_json({"config": config, "error": str(exc), "kind": kind})
        else:
            print(f"{'error' if kind == 'input' else 'internal error'}: {exc}", file=sys.stderr)
        if kind == "input":
            return 2
        traceback.print_exc()
        return 3
    emit(config, result, render, started)
    return code


if __name__ == "__main__":
    sys.exit(main())

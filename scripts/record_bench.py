"""Record the benchmark's end-to-end metrics of a parent checkout and of a
change, alternated, in BENCH_<label>_parent.json and BENCH_<label>.json.

    python3 scripts/record_bench.py --label NAME --parent CHECKOUT [--root CHECKOUT]

The change is the checkout at ``--root``, by default the one holding this
script, and both files are written at its root.  Each measurement below runs
in rounds (run_order): a round runs every command once in the parent and
once in the change, back to back, and the checkout that goes first
alternates from one round to the next, so the two records meet the same
load of the machine and neither is always first.

For each workload W that the change's BENCHMARK.json lists, it runs the
command of each checkout's own BENCHMARK.json with ``--workload W --seed S
--seconds T`` in that checkout, T the file's ``run_seconds``, in one round
per seed S = 1, 2 and 3, one run at a time, and writes, per workload and
metric, the value of each run and their median and quartiles, with the
seeds, the Python version, ``nproc``, the checkout's commit and, as
``dirty``, the paths ``git status --porcelain`` lists at the start, empty
when the working tree is the commit. A run that fails or reports ``correct:
false`` stops the recording with exit 1.

It also records the start-up floor, which is most of each short CLI time:
the wall time of STARTUP_RUNS fresh interpreters that only import
joinmeet.cli, and of as many that run ``check --builtin pentagon``, the
cheapest command, in STARTUP_RUNS rounds, with ``PYTHONPATH=src`` in the
checkout; and the bytecode state at the start and the end of the recording,
that is
``PYTHONDONTWRITEBYTECODE`` and whether ``src/joinmeet/__pycache__``
exists.  With no bytecode cache every interpreter compiles the package
again, so records made in different bytecode states are not comparable, and
the start-up cost follows the size of the source: ``src_lines`` records the
physical line count of each ``src/joinmeet/*.py`` and their total.  Beside
it, ``code_lines`` records, per module and in total, the lines that hold a
token of code: a token from ``tokenize`` that is neither a comment nor part
of a module, class or function docstring, which ``ast`` finds.  Blank lines,
comment lines and docstrings count in ``src_lines`` only, so a change that
removes prose lowers ``src_lines`` and leaves ``code_lines`` as it was.

Then it runs each of HEAVY_CASES HEAVY_RUNS times, as ``python -m
joinmeet.cli`` with ``PYTHONPATH=src`` in the checkout, in HEAVY_RUNS
rounds, and records its exit code, the wall time of each run and
their median, the CPU seconds of each run (user plus system) and their
median, and the largest peak RSS of its runs; CPU time and peak RSS are read
from ``os.wait4`` for each child alone.  One run follows the load of the
machine at that moment; the median of rounds spread over the recording
follows it less, and CPU time, which leaves out the time the child waited
for a processor, less again.
The lattices these cases read come from the ``data`` and ``bench/data``
directories of the checkout holding this script, which they only read, so a
recording of an older checkout runs the same inputs, and each search case
over the default cap gives its ``--cap``, so an older checkout whose cap
refused a lattice before its walk runs it too.  Beside the heavy runs, the
cases time the short CLI verdicts: the searches on ``m3_on_m3`` (the
bench's ``search-none`` lattice), boolean(3) and divisor(30), (36) and (60),
and the poset-ideal verification of divisor(60).  A case that exits with a
code other than the one it lists stops the recording with exit 1.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

SEEDS = (1, 2, 3)
HEAVY_RUNS = 3
STARTUP_RUNS = 20
STARTUP_COMMANDS = {
    "import_cli": ["-c", "import joinmeet.cli"],
    "check_pentagon": ["-m", "joinmeet.cli", "check", "--builtin", "pentagon"],
}

DATA = Path(__file__).resolve().parent.parent / "data"
BENCH_DATA = DATA.parent / "bench" / "data"
# name: (CLI arguments, expected exit code); a certified none exits 1
HEAVY_CASES = {
    "m3_on_m3": (["filtration", "search", "--input", BENCH_DATA / "m3_on_m3.json"], 1),
    "boolean3": (["filtration", "search", "--builtin", "boolean", "--n", "3"], 0),
    "divisor30": (["filtration", "search", "--builtin", "divisor", "--n", "30"], 0),
    "divisor36": (["filtration", "search", "--builtin", "divisor", "--n", "36"], 0),
    "divisor60": (["filtration", "search", "--builtin", "divisor", "--n", "60"], 0),
    "divisor60_verify": (["posetideals", "--builtin", "divisor", "--n", "60", "--verify"], 0),
    "m3_c3_cap15": (["filtration", "search", "--input", DATA / "m3_c3.json", "--cap", "15"], 1),
    "pentagon_c2": (["filtration", "search", "--input", DATA / "pentagon_c2.json"], 0),
    "m3_on_m3_chain": (["filtration", "search", "--input", DATA / "m3_on_m3_chain.json"], 1),
    "m3_c4_cap20": (["filtration", "search", "--input", DATA / "m3_c4.json", "--cap", "20"], 1),
    "pentagon_c3_cap15": (
        ["filtration", "search", "--input", DATA / "pentagon_c3.json", "--cap", "15"], 0),
    "divisor720_verify": (["posetideals", "--builtin", "divisor", "--n", "720", "--verify"], 0),
    "boolean5_verify": (["posetideals", "--builtin", "boolean", "--n", "5", "--verify"], 0),
    "divisor360_cap24": (
        ["filtration", "search", "--builtin", "divisor", "--n", "360", "--cap", "24"], 0),
    "divisor720_cap30": (
        ["filtration", "search", "--builtin", "divisor", "--n", "720", "--cap", "30"], 0),
    "boolean5_cap32": (
        ["filtration", "search", "--builtin", "boolean", "--n", "5", "--cap", "32"], 0),
}


SIDES = ("parent", "change")


def run_order(rounds, names):
    """(round, name, side) of each run, in the order they run: each round
    runs every name in both checkouts, back to back, and the checkout that
    goes first alternates from one round to the next."""
    return [(round_, name, side) for round_ in range(rounds) for name in names
            for side in (SIDES if round_ % 2 == 0 else SIDES[::-1])]


def run_bench(root, command, workload, seed, seconds):
    """The last line of one bench run, parsed; exits on a failed run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{root}: {workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    doc = json.loads(lines[-1])
    if doc.get("correct") is not True:
        sys.exit(f"{root}: {workload} seed {seed}: correct is not true\n{done.stdout}")
    return doc


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def workload_runs(roots, benches):
    """Per side, each workload's attempted and failed operations and the
    summary of each metric over the seeds, one round per seed."""
    names = [w["name"] for w in benches["change"]["workloads"]]
    runs = {side: {name: [] for name in names} for side in SIDES}
    for round_, name, side in run_order(len(SEEDS), names):
        bench = benches[side]
        doc = run_bench(roots[side], bench["command"], name, SEEDS[round_], bench["run_seconds"])
        runs[side][name].append(doc)
        print(f"{side} {name} seed {SEEDS[round_]}: verdict_s "
              f"{doc['metrics']['verdict_s']['value']:.4f}", file=sys.stderr)
    workloads = {side: {} for side in SIDES}
    for side in SIDES:
        for name, docs in runs[side].items():
            metrics = {metric: {"unit": first["unit"],
                                **summary([d["metrics"][metric]["value"] for d in docs])}
                       for metric, first in docs[0]["metrics"].items()}
            workloads[side][name] = {"attempted": sum(d["attempted"] for d in docs),
                                     "failed": sum(d["failed"] for d in docs),
                                     "metrics": metrics}
    return workloads


def startup_floor(roots):
    """Per side, the wall seconds of each start-up command, STARTUP_RUNS
    fresh interpreters each, in rounds; exits on a failed run."""
    env = dict(os.environ, PYTHONPATH="src")
    times = {side: {name: [] for name in STARTUP_COMMANDS} for side in SIDES}
    for _, name, side in run_order(STARTUP_RUNS, STARTUP_COMMANDS):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, *STARTUP_COMMANDS[name]], cwd=roots[side],
                              env=env, capture_output=True)
        elapsed = time.perf_counter() - started
        if done.returncode != 0:
            sys.exit(f"{side} start-up {name}: exit {done.returncode}\n{done.stderr.decode()}")
        times[side][name].append(elapsed)
    return {side: {name: {"unit": "s", **summary(values)} for name, values in by_name.items()}
            for side, by_name in times.items()}


def heavy_run(root, name, args, expected):
    """Wall seconds, CPU seconds and peak RSS in MB of one run of a heavy
    case; exits on an unexpected exit code."""
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "-m", "joinmeet.cli", *map(str, args)]
    started = time.perf_counter()
    child = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    if code != expected:
        sys.exit(f"{root}: heavy case {name}: exit {code}, not {expected}\n{stderr.decode()}")
    # ru_maxrss is in KiB on Linux
    return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def heavy_cases(roots):
    """Per side, the exit code, wall and CPU seconds of each run and their
    medians, and the largest peak RSS of each heavy case, over HEAVY_RUNS
    rounds."""
    runs = {side: {name: [] for name in HEAVY_CASES} for side in SIDES}
    for round_, name, side in run_order(HEAVY_RUNS, HEAVY_CASES):
        args, expected = HEAVY_CASES[name]
        elapsed, cpu, peak = heavy_run(roots[side], name, args, expected)
        runs[side][name].append((elapsed, cpu, peak))
        print(f"{side} {name} run {round_ + 1}: {elapsed:.2f} s, {cpu:.2f} s CPU, "
              f"{peak:.1f} MB", file=sys.stderr)
    cases = {side: {} for side in SIDES}
    for side in SIDES:
        for name, (args, expected) in HEAVY_CASES.items():
            walls, cpus, peaks = zip(*runs[side][name])
            cases[side][name] = {"argv": " ".join(map(str, args)), "exit": expected,
                                 "wall_s": statistics.median(walls), "wall_s_runs": list(walls),
                                 "cpu_s": statistics.median(cpus), "cpu_s_runs": list(cpus),
                                 "peak_rss_mb": max(peaks)}
    return cases


def bytecode_state(root):
    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache": (root / "src" / "joinmeet" / "__pycache__").is_dir(),
    }


def source_lines(root):
    """The physical line count of each module of the package, and the total."""
    counts = {path.name: len(path.read_bytes().splitlines())
              for path in sorted((root / "src" / "joinmeet").glob("*.py"))}
    return {"files": counts, "total": sum(counts.values())}


# tokens that hold no code: layout and comments
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_line_count(source):
    """The number of lines of source that hold a token of code: not a
    comment, and not a string of a module, class or function docstring.
    A docstring is known by where ast puts its first string; the strings
    that follow it up to the end of its statement belong to it too."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    in_docstring = False
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.STRING and (in_docstring or token.start in docstrings):
            in_docstring = True
        elif token.type not in NOT_CODE:
            in_docstring = False
            lines.update(range(token.start[0], token.end[0] + 1))
        elif token.type == tokenize.NEWLINE:
            in_docstring = False
    return len(lines)


def code_lines(root):
    """code_line_count of each module of the package, and the total."""
    counts = {path.name: code_line_count(path.read_text(encoding="utf-8"))
              for path in sorted((root / "src" / "joinmeet").glob("*.py"))}
    return {"files": counts, "total": sum(counts.values())}


def commit_of(root):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return done.stdout.strip() or None


def dirty_paths(root):
    """The paths ``git status --porcelain`` lists in the checkout: its
    uncommitted changes and untracked files, so an empty list means the
    commit is the code measured."""
    done = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True,
                          text=True)
    return [line[3:] for line in done.stdout.splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.root.resolve()}
    benches = {side: json.loads((root / "BENCHMARK.json").read_text())
               for side, root in roots.items()}

    dirty = {side: dirty_paths(root) for side, root in roots.items()}
    bytecode_at_start = {side: bytecode_state(root) for side, root in roots.items()}
    startup = startup_floor(roots)
    for side in SIDES:
        print(f"{side} start-up: " + ", ".join(f"{name} {m['median']:.4f} s"
                                               for name, m in startup[side].items()),
              file=sys.stderr)
    workloads = workload_runs(roots, benches)
    heavy = heavy_cases(roots)
    labels = {"parent": f"{args.label}_parent", "change": args.label}
    for side, root in roots.items():
        bench = benches[side]
        doc = {
            "label": labels[side],
            "commit": commit_of(root),
            "dirty": dirty[side],
            "command": " ".join(bench["command"])
            + f" --workload W --seed S --seconds {bench['run_seconds']}",
            "seeds": list(SEEDS),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "bytecode": {"start": bytecode_at_start[side], "end": bytecode_state(root)},
            "src_lines": source_lines(root),
            "code_lines": code_lines(root),
            "startup": startup[side],
            "workloads": workloads[side],
            "heavy": heavy[side],
        }
        out = roots["change"] / f"BENCH_{labels[side]}.json"
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

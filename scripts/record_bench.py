"""Record the benchmark's end-to-end metrics of one checkout in BENCH_<label>.json.

    python3 scripts/record_bench.py --label NAME [--root CHECKOUT] [--out FILE]

Runs the command of the checkout's BENCHMARK.json with ``--workload W
--seed S --seconds T`` in the checkout, for each workload W it lists, T its
``run_seconds`` and the seeds S = 1, 2 and 3, one run at a time, and writes,
per workload and metric, the value of each run and their median and
quartiles, with the seeds, the Python version, ``nproc``, the checkout's
commit and, as ``dirty``, the paths ``git status --porcelain`` lists at the
start, empty when the working tree is the commit.  The checkout defaults to
the one holding this script, and the file to BENCH_<label>.json at its
root.  A run that fails or reports ``correct: false`` stops the recording
with exit 1.

It also records the start-up floor, which is most of each short CLI time:
the wall time of STARTUP_RUNS fresh interpreters that only import
joinmeet.cli, and of as many that run ``check --builtin pentagon``, the
cheapest command, alternated, with ``PYTHONPATH=src`` in the checkout; and
the bytecode state at the start and the end of the recording, that is
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
joinmeet.cli`` with ``PYTHONPATH=src`` in the checkout, in rounds that take
every case once, and records its exit code, the wall time of each run and
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


def run_bench(root, command, workload, seed, seconds):
    """The last line of one bench run, parsed; exits on a failed run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    doc = json.loads(lines[-1])
    if doc.get("correct") is not True:
        sys.exit(f"{workload} seed {seed}: correct is not true\n{done.stdout}")
    return doc


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def startup_floor(root):
    """The wall seconds of each start-up command, STARTUP_RUNS fresh
    interpreters each, alternated; exits on a failed run."""
    env = dict(os.environ, PYTHONPATH="src")
    times = {name: [] for name in STARTUP_COMMANDS}
    for _ in range(STARTUP_RUNS):
        for name, args in STARTUP_COMMANDS.items():
            started = time.perf_counter()
            done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True)
            elapsed = time.perf_counter() - started
            if done.returncode != 0:
                sys.exit(f"start-up {name}: exit {done.returncode}\n{done.stderr.decode()}")
            times[name].append(elapsed)
    return {name: {"unit": "s", **summary(values)} for name, values in times.items()}


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
        sys.exit(f"heavy case {name}: exit {code}, not {expected}\n{stderr.decode()}")
    # ru_maxrss is in KiB on Linux
    return elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def heavy_cases(root):
    """Exit code, wall and CPU seconds of each run and their medians, and the
    largest peak RSS of each heavy case, over HEAVY_RUNS rounds of all cases."""
    runs = {name: [] for name in HEAVY_CASES}
    for round_ in range(HEAVY_RUNS):
        for name, (args, expected) in HEAVY_CASES.items():
            runs[name].append(heavy_run(root, name, args, expected))
            elapsed, cpu, peak = runs[name][-1]
            print(f"{name} run {round_ + 1}: {elapsed:.2f} s, {cpu:.2f} s CPU, {peak:.1f} MB",
                  file=sys.stderr)
    cases = {}
    for name, (args, expected) in HEAVY_CASES.items():
        walls, cpus, peaks = zip(*runs[name])
        cases[name] = {"argv": " ".join(map(str, args)), "exit": expected,
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
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    out = args.out or root / f"BENCH_{args.label}.json"
    bench = json.loads((root / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]

    dirty = dirty_paths(root)
    bytecode_at_start = bytecode_state(root)
    startup = startup_floor(root)
    print("start-up: " + ", ".join(f"{name} {m['median']:.4f} s" for name, m in startup.items()),
          file=sys.stderr)
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_bench(root, command, workload, seed, seconds))
            print(f"{workload} seed {seed}: verdict_s "
                  f"{runs[-1]['metrics']['verdict_s']['value']:.4f}", file=sys.stderr)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = {"unit": first["unit"],
                             **summary([r["metrics"][name]["value"] for r in runs])}
        workloads[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    doc = {
        "label": args.label,
        "commit": commit_of(root),
        "dirty": dirty,
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds}",
        "seeds": list(SEEDS),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode": {"start": bytecode_at_start, "end": bytecode_state(root)},
        "src_lines": source_lines(root),
        "code_lines": code_lines(root),
        "startup": startup,
        "workloads": workloads,
        "heavy": heavy_cases(root),
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

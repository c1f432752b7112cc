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
physical line count of each ``src/joinmeet/*.py`` and their total.

Then it runs each of HEAVY_CASES once, as ``python -m joinmeet.cli`` with
``PYTHONPATH=src`` in the checkout, and records its exit code, wall time and
peak RSS, read from ``os.wait4`` for that child alone.  The lattices these
cases read come from the ``data`` directory beside this script, so a
recording of an older checkout runs the same inputs.  A case that exits
with a code other than the one it lists stops the recording with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEEDS = (1, 2, 3)
STARTUP_RUNS = 20
STARTUP_COMMANDS = {
    "import_cli": ["-c", "import joinmeet.cli"],
    "check_pentagon": ["-m", "joinmeet.cli", "check", "--builtin", "pentagon"],
}

DATA = Path(__file__).resolve().parent.parent / "data"
# name: (CLI arguments, expected exit code); a certified none exits 1
HEAVY_CASES = {
    "m3_c3_cap15": (["filtration", "search", "--input", DATA / "m3_c3.json", "--cap", "15"], 1),
    "pentagon_c2": (["filtration", "search", "--input", DATA / "pentagon_c2.json"], 0),
    "m3_on_m3_chain": (["filtration", "search", "--input", DATA / "m3_on_m3_chain.json"], 1),
    "m3_c4_cap20": (["filtration", "search", "--input", DATA / "m3_c4.json", "--cap", "20"], 1),
    "pentagon_c3_cap15": (
        ["filtration", "search", "--input", DATA / "pentagon_c3.json", "--cap", "15"], 0),
    "divisor720_verify": (["posetideals", "--builtin", "divisor", "--n", "720", "--verify"], 0),
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


def heavy_cases(root):
    """Exit code, wall seconds and peak RSS of each heavy case, run once;
    exits on an unexpected exit code."""
    env = dict(os.environ, PYTHONPATH="src")
    cases = {}
    for name, (args, expected) in HEAVY_CASES.items():
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
        cases[name] = {"argv": " ".join(map(str, args)), "exit": code, "wall_s": elapsed,
                       "peak_rss_mb": usage.ru_maxrss / 1024}
        print(f"{name}: {elapsed:.2f} s, {usage.ru_maxrss / 1024:.1f} MB", file=sys.stderr)
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
        "startup": startup,
        "workloads": workloads,
        "heavy": heavy_cases(root),
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time to a checked verdict on joinmeet's search, certified-none, verification
and membership workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.  One
client sends requests in a closed loop, each request in a fresh interpreter
(``bench/worker.py``), so every request starts with the empty global caches a
CLI user starts with.  A request of ``search-found``, ``search-none`` or
``verify`` is one CLI command; a request of ``member`` is one process that
answers a seeded stream of ``ideal_member`` queries.  Requests repeat until S
seconds have passed (at least two), and each metric is the median over
them.  Set-up is also timed in separate set-up-only processes.

With ``--trace 0`` the last line of output reports the end-to-end metrics.
With ``--trace 1`` untraced and traced requests alternate; the last line
reports per-layer calls, self time and ratios from the traced ones, and the
traced minus the untraced ``verdict_s`` as ``trace.overhead_s``.  Spans are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("search-found", "search-none", "verify", "member")
MIN_REQUESTS = 2
SETUP_PROBES = 11
# No request starts when it is expected to end later than LAST_END_S after
# the run began, and none runs past DEADLINE_S, so a run ends within three
# minutes even if requests slow down.
LAST_END_S = 100.0
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "verdict_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layers whose calls, self time or ratios are reported by the traced run.
CALLS = (
    "groebner.buchberger", "groebner.s_polynomial", "groebner.intersect",
    "groebner.colon_element", "groebner.normal_form", "groebner.groebner_basis",
    "groebner.ideal_member", "groebner.ideal_equal", "hibi.colon_in_H",
    "hibi.colon_in_H_by_ideal", "hibi.join_meet_ideal", "linalg.rref",
    "linalg.in_row_space", "linalg.row_space_contains",
)
SELF = (
    "groebner.buchberger", "groebner.intersect", "groebner.colon_element",
    "groebner.normal_form", "groebner.reduce_basis", "groebner.ideal_member",
    "groebner.ideal_equal", "hibi.colon_in_H", "hibi.colon_in_H_by_ideal",
    "hibi.join_meet_ideal", "koszul.search_combinatorial", "koszul.verify_filtration",
    "linalg.rref", "linalg.in_row_space", "linalg.row_space_contains",
    "lattice.build", "lattice.poset_ideals",
)

# Layers that must be called at least once by a workload's traced request:
# those whose metrics the workload is meant to move.
_ENGINE = (
    "groebner.buchberger", "groebner.s_polynomial", "groebner.intersect",
    "groebner.colon_element", "groebner.normal_form", "groebner.groebner_basis",
    "groebner.reduce_basis", "groebner.ideal_member", "groebner.ideal_equal",
    "hibi.join_meet_ideal", "lattice.build", "cli.main",
)
MUST_CALL = {
    "search-found": _ENGINE + ("hibi.colon_in_H", "koszul.search_combinatorial"),
    "search-none": _ENGINE + ("hibi.colon_in_H", "koszul.search_combinatorial"),
    "verify": _ENGINE + (
        "hibi.colon_in_H_by_ideal", "koszul.verify_filtration", "linalg.rref",
        "linalg.in_row_space", "linalg.row_space_contains", "lattice.poset_ideals",
    ),
    "member": (
        "groebner.buchberger", "groebner.normal_form", "groebner.groebner_basis",
        "groebner.reduce_basis", "groebner.ideal_member", "hibi.join_meet_ideal",
        "lattice.build",
    ),
}


def _spawn(mode, workload, seed, timeout, extra=()):
    """Run one worker; returns (parsed last line or None, wall seconds, stderr)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - spawned, "request timed out"
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, proc.stderr.strip()[-2000:]
    return json.loads(lines[-1]), wall, proc.stderr


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Run:
    """The requests of one run and what they reported."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.per_request = 1

    def spawn(self, mode, extra=()):
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        return _spawn(mode, self.workload, self.seed, remaining, extra)

    def request(self, mode, extra=()):
        out, wall, err = self.spawn(mode, extra)
        if out is None:
            # A crashed request loses every answer it was to give.
            self.attempted += self.per_request
            self.failed += self.per_request
            self.problems.append(f"{mode} request failed: {err}")
            return None
        out["wall_s"] = wall
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems.extend(out["problems"])
        return out

    def check(self, ok, problem):
        """Count one check of the run as attempted, and as failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def more(self, count, minimum, last_wall):
        """Whether to start another request (or pair of requests) that is
        expected to take ``last_wall`` seconds."""
        elapsed = time.monotonic() - self.started
        if elapsed + last_wall > LAST_END_S:
            return False
        return count < minimum or elapsed < self.seconds

    def check_inputs(self):
        """Check the workload's lattices before anything is timed."""
        out, _, err = self.spawn("check")
        if out is None:
            raise SystemExit(f"error: the benchmark could not start joinmeet: {err}")
        if out["problems"]:
            raise SystemExit("error: workload inputs are not as stated: "
                             + "; ".join(out["problems"]))
        self.per_request = out["per_request"]


def end_to_end(run):
    setups = []
    for _ in range(SETUP_PROBES):
        out, _, err = run.spawn("setup")
        if out is None:
            raise SystemExit(f"error: set-up failed: {err}")
        setups.append(out["setup_s"])
    requests = []
    wall = 0.0
    while run.more(len(requests), MIN_REQUESTS, wall):
        out = run.request("run")
        if out is None:
            break
        requests.append(out)
        wall = out["wall_s"]
    if not requests:
        raise SystemExit("error: no request completed: " + "; ".join(run.problems))
    setups += [r["setup_s"] for r in requests]
    if run.workload == "member":
        latencies = [t for r in requests for t in r["latencies"]]
        busy = sum(r["verdict_s"] for r in requests)
    else:
        # the whole command, spawn to exit, less probe time
        latencies = [(r["wall_s"] - r["probe_s"]) * r["factor"] for r in requests]
        busy = sum(latencies)
    values = {
        "verdict_s": statistics.median(r["verdict_s"] for r in requests),
        "queries_per_s": len(latencies) / busy,
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_p99_ms": 1000 * _percentile(latencies, 99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in requests),
    }
    notes = [
        f"requests: {len(requests)}, query samples: {len(latencies)}, "
        f"set-up samples: {len(setups)}",
        "verdict_s per request: " + " ".join(f"{r['verdict_s']:.3f}" for r in requests),
        "unscaled verdict_s: " + " ".join(f"{r['verdict_raw_s']:.3f}" for r in requests),
        "speed factor: " + " ".join(f"{r['factor']:.3f}" for r in requests),
    ]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, notes


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer(run):
    TRACE_DIR.mkdir(exist_ok=True)
    plain, traced = [], []
    wall = 0.0
    while run.more(len(traced), 1, wall):
        started = time.monotonic()
        out = run.request("run")
        if out is not None:
            plain.append(out)
        path = TRACE_DIR / f"spans-{run.workload}-seed{run.seed}-{len(traced)}.tsv.gz"
        out = run.request("trace", ("--trace-out", str(path)))
        if out is None:
            break
        traced.append(out)
        wall = time.monotonic() - started
    if not traced or not plain:
        raise SystemExit("error: no traced request completed: " + "; ".join(run.problems))

    verdicts = {json.dumps(r["verdict"], sort_keys=True) for r in plain + traced}
    run.check(len(verdicts) == 1, "traced and untraced verdicts differ")

    def layer_median(name, field):
        return statistics.median(
            r["trace"]["layers"].get(name, {}).get(field, 0) for r in traced
        )

    idle = [name for name in MUST_CALL[run.workload] if layer_median(name, "calls") == 0]
    run.check(not idle, f"layers never called: {', '.join(idle)}")

    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (layer_median(name, "calls"), "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (layer_median(name, "self_s"), "s")
    metrics["groebner.normal_form.zero_ratio"] = (
        _ratio(layer_median("groebner.normal_form", "true"),
               layer_median("groebner.normal_form", "calls")), "ratio")
    metrics["groebner.gb_cache.hit_ratio"] = (
        1 - _ratio(statistics.median(r["trace"]["gb_misses"] for r in traced),
                   layer_median("groebner.groebner_basis", "calls")), "ratio")
    metrics["hibi.colon_in_H.variable_generated_ratio"] = (
        _ratio(layer_median("hibi.colon_in_H", "true"),
               layer_median("hibi.colon_in_H", "calls")), "ratio")
    metrics["cli.self_s"] = (
        statistics.median(
            sum(v["self_s"] for k, v in r["trace"]["layers"].items() if k.startswith("cli."))
            for r in traced
        ), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(r["verdict_s"] for r in traced)
        - statistics.median(r["verdict_s"] for r in plain), "s")
    notes = [
        f"traced requests: {len(traced)}, untraced: {len(plain)}, "
        f"spans per traced request: {traced[0]['trace']['spans']}",
        f"spans written to {TRACE_DIR.relative_to(ROOT)}/",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "joinmeet" / "__init__.py").is_file():
        print(f"error: no joinmeet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    run.check_inputs()
    metrics, notes = (per_layer if args.trace else end_to_end)(run)
    for line in notes:
        print(line)
    print(f"error_rate: {run.failed}/{run.attempted}"
          f" = {_ratio(run.failed, run.attempted):.6f}")
    for problem in run.problems[:10]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark request in a fresh interpreter.

    python3 bench/worker.py MODE --workload NAME --seed N --spawned T [--trace-out PATH]

MODE is ``check`` (check the workload's lattices, time nothing), ``setup``
(set up and stop), ``run`` (set up and answer the request) or ``trace``
(like ``run``, with every public joinmeet function wrapped in spans).  T is
the ``time.monotonic()`` reading of the parent just before it started this
process, so set-up time counts interpreter start-up.

Times are reported in nominal seconds (see ``speed.py``): ``factor`` is the
multiplier this request applied, and ``probe_s`` the probe time it left out.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def _import_joinmeet():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import joinmeet
    import joinmeet.cli  # noqa: F401  (the CLI workloads call it)

    where = Path(joinmeet.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"joinmeet imported from {where}, not from this checkout")
    return joinmeet


def _run_cli(workloads, name, expected):
    code, doc = workloads.run_cli(name)
    problems = workloads.check_cli(name, expected, code, doc)
    return {"attempted": 1, "failed": int(bool(problems)), "problems": problems,
            "verdict": doc.get("result")}


def _run_member(queries, clock):
    import joinmeet

    member = joinmeet.ideal_member
    latencies = []
    answers = []
    problems = []
    failed = 0
    for ideal, f, expected in queries:
        start = clock()
        try:
            got = member(f, ideal)
        except Exception:
            got = None
            if len(problems) < 3:
                problems.append(traceback.format_exc(limit=3))
        latencies.append(clock() - start)
        answers.append("!" if got is None else "1" if got else "0")
        if got is not expected:
            failed += 1
    if failed and not problems:
        problems.append(f"{failed} membership answers disagree with theory")
    return {"attempted": len(queries), "failed": failed, "problems": problems,
            "verdict": "".join(answers), "latencies": latencies}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("check", "setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    joinmeet = _import_joinmeet()
    from speed import Speedometer

    speed = Speedometer()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(clock=speed.clock)
        tracer.install(joinmeet)
    import workloads

    lattices = workloads.build(args.workload)
    setup_raw = time.monotonic() - args.spawned
    speed.burst()
    out = {"setup_s": setup_raw * speed.factor()}

    if args.mode == "check":
        out["problems"] = workloads.check_inputs(args.workload, lattices)
        out["per_request"] = workloads.MEMBER_QUERIES if args.workload == "member" else 1
    elif args.mode in ("run", "trace"):
        if args.workload == "member":
            queries = workloads.member_queries(lattices, args.seed)
            run = lambda: _run_member(queries, speed.clock)
        else:
            expected = workloads.expected_cli(args.workload, lattices)
            run = lambda: _run_cli(workloads, args.workload, expected)
        speed.start()
        start = speed.clock()
        try:
            result = run()
        finally:
            speed.stop()
        verdict = speed.clock() - start
        factor = speed.factor()
        result.update(verdict_s=verdict * factor, verdict_raw_s=verdict,
                      factor=factor, probe_s=speed.spent)
        if "latencies" in result:
            result["latencies"] = [t * factor for t in result["latencies"]]
        out.update(result)
        if tracer is not None:
            out["trace"] = tracer.summary(scale=factor)
            if args.trace_out:
                tracer.write(args.trace_out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

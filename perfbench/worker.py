"""One pass of a workload in a fresh interpreter.

Started by ``run.py``, one at a time, so grakit's caches start cold in every
pass.  Prints one JSON object: set-up time, per-job times and outcomes, peak
memory, and with ``--trace`` the per-layer numbers of :mod:`tracing`.  Plain
passes also give every time in reference seconds (:mod:`speed`); traced
passes do not, so no probe lands inside a traced call.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports grakit from ROOT/src)
from speed import SpeedClock, slowdown  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_jobs(jobs: list, tracer=None) -> dict:
    """Run every job, timing only ``job.run``; a job that raises, exits
    non-zero or answers wrongly is recorded as failed and the pass goes on.
    Untraced, each job's time is also given in reference seconds."""
    records = []
    output_bytes = 0
    clock = SpeedClock() if tracer is None else None
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            error = None
            ref_s = None
            if clock is not None:
                clock.start()
            t0 = time.perf_counter()
            try:
                answer = job.run()
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            finally:
                elapsed = time.perf_counter() - t0
                if clock is not None:
                    elapsed, ref_s = clock.stop()
            if error is None:
                if job.cli:
                    output_bytes += len(answer.encode())
                try:
                    if not job.check(answer):
                        error = "wrong answer"
                except Exception as exc:
                    error = f"unreadable answer: {type(exc).__name__}: {exc}"
            records.append({"name": job.name, "s": elapsed, "ref_s": ref_s, "error": error})
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = [r["s"] for r in records]
    out = {
        "jobs": records,
        "wall_s": sum(times),
        "failed": sum(1 for r in records if r["error"]),
        "output_bytes": output_bytes,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["top_level_s"] = tracer.top_level_s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s / slowdown(),
        "digest": workloads.digest(jobs),
    }
    if not args.setup_only:
        result.update(run_jobs(jobs, Tracer() if args.trace else None))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""grakit benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the root of a grakit checkout:

    python3 perfbench/run.py --workload koszul --seed 1 --seconds 28 --trace 0

Each pass of the workload's job list runs in a fresh interpreter
(``worker.py``), one at a time, so grakit's caches start cold.  Passes
repeat until ``--seconds`` is used up.  Each job's time is its median over
the passes, which filters out bursts of load from other processes; the
workload's wall time is the sum of these, its slowest job their maximum.
End-to-end times are in reference seconds: wall time corrected for the
host's changing speed, measured while the jobs run (see ``speed.py``); the
raw wall times go to the line before the result.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` plain
and traced passes alternate and the per-layer metrics are printed, the
tracing overhead being the difference of the two.  The last line of
standard output is the result; the line before it records the inputs'
digest, the code version and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CACHES, COUNTERS, function_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_ROUND = 2  # set-up-only processes per pass, spread over the run
TIME_LIMIT_S = 170  # a run that would take longer is stopped and fails
WORKLOADS = ("koszul", "monomials", "faces", "relations")

END_TO_END = {"wall_s": "s", "job_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update(dict.fromkeys(CACHES, "ratio"))
    units["cli.output_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    units["trace.unattributed_s"] = "s"
    return units


class PassFailed(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def run_pass(workload: str, seed: int, deadline: float, *,
             trace=False, smoke=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=deadline - spawned_at)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"run exceeded {TIME_LIMIT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grakit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def job_medians(passes: list[dict], key: str = "s") -> list[float]:
    """Each job's median time over passes of one job list: ``s`` for wall
    seconds, ``ref_s`` for reference seconds."""
    return [statistics.median(p["jobs"][i][key] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups, plain, traced = [], [], []
    while True:
        setups += [run_pass(workload, seed, deadline, smoke=smoke, setup_only=True)
                   for _ in range(SETUPS_PER_ROUND)]
        plain.append(run_pass(workload, seed, deadline, smoke=smoke))
        if trace:
            traced.append(run_pass(workload, seed, deadline, trace=True, smoke=smoke))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(plain) > seconds:  # the next round would not fit
            break
    passes = plain + traced
    digests = {p["digest"] for p in passes}
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    median = statistics.median

    if trace:
        metrics = {name: median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["cli.output_bytes"] = median(p["output_bytes"] for p in traced)
        metrics["trace.overhead_s"] = sum(job_medians(traced)) - sum(job_medians(plain))
        metrics["trace.unattributed_s"] = median(p["wall_s"] - p["top_level_s"] for p in traced)
        units = per_layer_units()
    else:
        job_s = job_medians(plain, "ref_s")
        metrics = {
            "wall_s": sum(job_s),
            "job_max_s": max(job_s),
            "setup_s": median(p["setup_ref_s"] for p in setups + plain),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in plain),
        }
        units = END_TO_END
    raw_s = job_medians(plain)
    raw = {"wall_s": sum(raw_s), "job_max_s": max(raw_s),
           "setup_s": median(p["setup_s"] for p in setups + plain)}
    errors = sorted({f'{j["name"]}: {j["error"]}' for p in passes for j in p["jobs"] if j["error"]})
    meta = {
        "workload": workload, "seed": seed, "trace": trace, "smoke": smoke,
        "inputs_digest": sorted(digests), "commit": git_commit(),
        "source_digest": source_digest(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "raw_wall_seconds": raw,
        "passes": len(plain), "traced_passes": len(traced),
        "setup_samples": len(setups) + len(plain), "errors": errors[:20],
    }
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grakit" / "__init__.py").is_file():
        print(f"perfbench: no grakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        meta, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

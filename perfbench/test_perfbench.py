"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import worker  # puts the grakit sources on sys.path
import workloads
from workloads import Job, cli_job, connected_classes, family, f_vector, h_from_f

import grakit
import speed
from run import END_TO_END, WORKLOADS, per_layer_units
from tracing import _MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_COUNTS = (".calls", ".sets", ".terms", ".cells", ".nnz")


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Contract: smoke runs, metric names and units.
# ---------------------------------------------------------------------------

def test_workload_lists_agree():
    assert WORKLOADS == workloads.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = bench(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert want == END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_runs_repeat_work_counters(workload):
    first, second = bench(workload, trace=1), bench(workload, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == per_layer_units()
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k in want if k.endswith(WORK_COUNTS)]
    assert [first["metrics"][k] for k in counts] == [second["metrics"][k] for k in counts]
    assert first["correct"] and second["correct"]


def test_traced_pass_covers_job_time_and_restores_grakit():
    modules = [sys.modules[m] for m in _MODULES]
    before = [dict(vars(m)) for m in modules]
    jobs = workloads.build("koszul", 5, smoke=True)
    out = worker.run_jobs(jobs, Tracer())
    layers = out["layers"]
    assert out["failed"] == 0
    assert layers["cli.main.calls"] == len(jobs)
    assert layers["groebner.cobar_complex.calls"] == len(jobs)
    assert layers["tubings.enumerate_nested.sets"] > 0
    # cli.main encloses every other wrapped call of a CLI job
    assert layers["cli.main.total_s"] <= out["top_level_s"] <= out["wall_s"]
    assert layers["cli.main.self_s"] < layers["cli.main.total_s"]
    assert [dict(vars(m)) for m in modules] == before


# ---------------------------------------------------------------------------
# Reference seconds.
# ---------------------------------------------------------------------------

def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_clock_scales_job_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_PROBE_S)
    previous = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock(interval_s=0.005)
    t0 = time.perf_counter()
    clock.start()
    _busy(0.1)
    raw, ref = clock.stop()
    assert 0.09 < raw <= time.perf_counter() - t0  # the handlers are not job time
    assert ref == pytest.approx(raw / 2)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def _spin(loops: int = 300_000) -> int:
    return sum(i * i % 7 for i in range(loops))


def test_probe_time_is_not_job_time(monkeypatch):
    real_probe = speed.probe

    def slow_probe():
        time.sleep(0.02)
        return real_probe()

    t0 = time.perf_counter()
    _spin()
    alone = time.perf_counter() - t0
    monkeypatch.setattr(speed, "probe", slow_probe)
    clock = speed.SpeedClock(interval_s=0.01)
    t0 = time.perf_counter()
    clock.start()
    _spin()
    raw, _ = clock.stop()
    wall = time.perf_counter() - t0
    assert wall > 2 * raw  # probes took most of the wall time ...
    assert raw < 2 * alone  # ... and were left out of the job's time


def test_only_plain_passes_give_reference_seconds():
    jobs = workloads.build("faces", 4, smoke=True)
    plain, traced = worker.run_jobs(jobs), worker.run_jobs(jobs, Tracer())
    assert all(r["ref_s"] > 0 for r in plain["jobs"])
    assert all(r["ref_s"] is None for r in traced["jobs"])


# ---------------------------------------------------------------------------
# Failed jobs are counted and do not stop the pass.
# ---------------------------------------------------------------------------

def _raise():
    raise RuntimeError("boom")


@pytest.mark.parametrize("traced", [False, True])
def test_failed_jobs_are_counted_and_the_pass_goes_on(traced):
    bad_graph = json.dumps({"vertices": [1, 2], "edges": []})  # not connected
    jobs = [
        cli_job("good", ["koszul-check", "--graph", "path:2"], lambda r: r["ok"] is True),
        Job("raises", "-", _raise, lambda r: True, cli=False),
        Job("wrong answer", "-", lambda: 41, lambda r: r == 42, cli=False),
        cli_job("exit code 1", ["koszul-check", "--graph", bad_graph], lambda r: True),
        cli_job("bad usage", ["koszul-check"], lambda r: True),
        Job("unreadable", "-", lambda: None, lambda r: r["x"], cli=False),
        cli_job("good again", ["fvector", "--graph", "path:3"], lambda r: r["f"] == [5, 5, 1]),
    ]
    tracer = Tracer() if traced else None
    out = worker.run_jobs(jobs, tracer)
    errors = {r["name"]: r["error"] for r in out["jobs"]}
    assert len(errors) == len(jobs)
    assert out["failed"] == 5
    assert errors["good"] is None and errors["good again"] is None
    assert errors["raises"].startswith("RuntimeError")
    assert errors["wrong answer"] == "wrong answer"
    assert errors["exit code 1"].startswith("JobFailed")
    assert errors["bad usage"].startswith("SystemExit")
    assert errors["unreadable"].startswith("unreadable answer")
    if traced:  # the failing cobar_complex call was timed and left no open frame
        assert tracer._stack == []
        assert out["layers"]["groebner.cobar_complex.calls"] == 2


# ---------------------------------------------------------------------------
# Inputs and oracles.
# ---------------------------------------------------------------------------

def test_connected_class_counts():
    assert [len(connected_classes(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]


def test_oracle_reproduces_known_face_counts():
    assert f_vector(9, family("path", 9))[0] == 4862  # Catalan number C_9
    assert f_vector(8, family("complete", 8))[0] == math.factorial(8)
    assert sum(f_vector(9, family("path", 9))) == 103049  # little Schroeder number
    assert f_vector(3, family("path", 3)) == (5, 5, 1)


def test_oracle_agrees_with_grakit_on_small_classes():
    for n in range(1, 6):
        for edges in connected_classes(n):
            g = grakit.make_graph(range(1, n + 1), [(a + 1, b + 1) for a, b in edges])
            f = f_vector(n, edges)
            assert list(f) == grakit.f_vector(g)
            assert h_from_f(f) == grakit.h_poly_from_f(grakit.f_vector(g))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a = workloads.build(workload, 1)
    assert workloads.digest(a) == workloads.digest(workloads.build(workload, 1))
    assert workloads.digest(a) != workloads.digest(workloads.build(workload, 2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_jobs_pass_their_checks(workload):
    out = worker.run_jobs(workloads.build(workload, 7, smoke=True))
    assert out["failed"] == 0, [r for r in out["jobs"] if r["error"]]

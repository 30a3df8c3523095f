"""Smoke tests of the benchmark itself; they assert no timing.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs scaled down (``--smoke``) through the real entry point,
traced and untraced.  The answers must pass their checks and every metric
the benchmark declares must be printed with its unit.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The per-command seconds each workload reports besides the declared metrics.
PER_COMMAND = {
    "greedy-f8": ("select_greedy_s", "select_logdet_s", "select_mincost_s"),
    "certify-uav9": ("bound_budget_s", "bound_mincost_s", "select_oracle_s"),
    "sweep-a4": ("sweep_s",),
}


def _bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(tracing.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_workload(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0, proc.stdout
    assert final["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = final["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    result = json.loads((run.OUT / f"result-{workload}-seed3-smoke-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    report = result["end_to_end"]
    assert report["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    for name in PER_COMMAND[workload]:
        assert report[name]["unit"] == "s"
    for name in [*report, *result.get("per_layer", {})]:
        assert f"  {name} " in proc.stdout
    if trace:
        spans = json.loads((ROOT / result["spans_file"]).read_text(encoding="utf-8"))
        assert spans["spans"] and {"name", "start", "end", "parent", "command"} <= set(
            spans["spans"][0])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "greedy-f8", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_the_package():
    lq = run.import_package()
    before = (lq.cli.main, lq.cli.greedy_budget, lq.ObjectiveCache.__dict__["f"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lq.cli.greedy_budget is not before[1]
        assert lq.selection.greedy_budget is lq.cli.greedy_budget
    finally:
        tracer.remove()
    assert (lq.cli.main, lq.cli.greedy_budget, lq.ObjectiveCache.__dict__["f"]) == before


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "name": "cli.main", "start": 0.0, "end": 10.0, "parent": None, "command": 0},
        {"id": 1, "name": "kalman.f", "start": 1.0, "end": 4.0, "parent": 0, "command": 0},
        {"id": 2, "name": "kalman.trajectory", "start": 1.5, "end": 3.5, "parent": 1,
         "command": 0},
        {"id": 3, "name": "kalman.f", "start": 5.0, "end": 5.5, "parent": 0, "command": 0},
    ]
    m = tracing.round_metrics(spans)
    assert m["cli.main_s"] == 10.0 and m["cli.self_s"] == 6.5
    assert m["kalman.propagations"] == 1 and m["kalman.f_calls"] == 2
    assert m["kalman.hit_ratio"] == 0.5


def test_recorded_answers_catch_a_flip():
    row = {"selected_set": [0, 9], "objective_f": 3457.4238464634477, "cert_pass": None}
    close = dict(row, objective_f=row["objective_f"] * (1 + 1e-12))
    assert checks.compare(row, close) == []
    assert checks.compare(row, dict(row, selected_set=[0, 10]))
    assert checks.compare(row, dict(row, objective_f=row["objective_f"] * (1 + 1e-8)))
    assert checks.compare(row, dict(row, cert_pass=False))


def test_scaled_seconds_follows_the_sampled_speed():
    probe = speed.SpeedProbe()
    ref = speed.REF_KERNEL_S
    # Samples at 0, 1 and 2 s, each taking 0.1 s; the CPU halves its speed.
    probe.starts, probe.ends = [0.0, 1.0, 2.0], [0.1, 1.1, 2.1]
    probe.kernels = [ref, 2 * ref, 2 * ref]
    assert probe.scaled_seconds(0.1, 1.0) == pytest.approx(0.9 * 0.75)
    assert probe.scaled_seconds(1.1, 2.0) == pytest.approx(0.9 * 0.5)
    # Handler time is left out; before the first and after the last sample the
    # nearest sample's speed holds.
    assert probe.scaled_seconds(-1.0, 1.05) == pytest.approx(1.0 + 0.9 * 0.75)
    assert probe.scaled_seconds(2.1, 4.1) == pytest.approx(2.0 * 0.5)


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.005) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    assert len(probe.kernels) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.starts == sorted(probe.starts)
    assert 0 < probe.scaled_seconds(start, end)


def test_one_slow_kernel_does_not_count():
    probe = speed.SpeedProbe()
    ref = speed.REF_KERNEL_S
    probe.starts = [float(i) for i in range(9)]
    probe.ends = [t + 0.1 for t in probe.starts]
    probe.kernels = [ref] * 9
    probe.kernels[4] = 50 * ref   # an interrupt inside one timed kernel
    assert probe.scaled_seconds(0.1, 8.0) == pytest.approx(8 * 0.9)

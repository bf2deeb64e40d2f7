"""Checks on the benchmark itself: ``python3 -m pytest bench``.

Per workload, two traced runs with one seed: every count repeats exactly and,
job by job, the spans' self times sum to no more than the job's wall time.
One untraced run prints every end-to-end metric by name with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    runs = []
    for _ in range(2):
        _, result = run(request.param, trace=1)
        spans_file = BENCH / ".out" / f"trace-{request.param}-seed{SEED}.json"
        runs.append((result, json.loads(spans_file.read_text())))
    return runs


def test_traced_runs_are_correct_and_report_every_layer_metric(traced_pair):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result, _ in traced_pair:
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_counts_repeat_exactly(traced_pair):
    (first, _), (second, _) = traced_pair
    counts = [name for name, m in first["metrics"].items() if m["unit"] in ("count", "B", "B-computed")]
    assert counts
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


def test_self_times_fit_in_job_wall_time(traced_pair):
    for _, trace in traced_pair:
        own = {}
        for _, job, _, _, _, _, self_s in trace["spans"]:
            own[job] = own.get(job, 0.0) + self_s
        assert trace["spans"]
        for job in trace["jobs"]:
            assert own.get(job["id"], 0.0) <= job["wall_s"] + 1e-9, job


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        pattern = re.compile(rf"^{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b")
        assert any(pattern.match(line) for line in lines), metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(re.match(r"^error_rate\s+\S+ ratio\b", line) for line in lines)

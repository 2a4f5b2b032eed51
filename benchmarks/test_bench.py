"""Smoke test of the benchmark: every workload, untraced and traced, at the
smoke size. Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed=3, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = result_of(run_bench(workload, trace=1))
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["simulation.run_irf_session.calls"]["value"] > 0
    spans = (HERE / "out" / workload / "spans.jsonl").read_text().splitlines()
    assert len(spans) == result["metrics"]["tracing.spans"]["value"]


def test_same_seed_repeats_quality_and_output_digests():
    records = []
    for _ in range(2):
        result_of(run_bench("sessions-22k", seed=5))
        records.append(json.loads((HERE / "out" / "sessions-22k" / "record-trace0.json").read_text()))
    assert records[0]["metrics"]["map100"] == records[1]["metrics"]["map100"]
    assert records[0]["output_digests"] == records[1]["output_digests"]
    assert records[0]["output_digests"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

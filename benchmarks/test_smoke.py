"""Smoke test: every workload at its smallest size, untraced and traced.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

RECORD_METRICS = {
    "ladder": {"integralize_s", "integralize_max_s", "scaling_exponent"},
    "paper": {"integralize_s", "vertex_check_s", "dualize_s"},
    "cli": {"cli_s"},
}


def bench(workload, trace, seed=5):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    *_, record, result = out.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(RECORD_METRICS)


@pytest.mark.parametrize("workload", sorted(RECORD_METRICS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    record, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = RECORD_METRICS[workload] | {"failed_ratio", "setup_s", "peak_rss_mb"}
    assert set(record["metrics"]) == expected
    assert record["digests_agree"] and record["passes"] >= run.MIN_PASSES
    assert len(record["errors"]) + len(record["wrong"]) == result["failed"]


@pytest.mark.parametrize("workload", sorted(RECORD_METRICS))
def test_traced_run_prints_every_per_layer_metric(workload):
    _, result = bench(workload, 1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert result["metrics"]["honeycomb.canonicalize.calls"]["value"] > 0


def test_digest_repeats_across_runs():
    first, _ = bench("ladder", 0, seed=9)
    second, _ = bench("ladder", 0, seed=9)
    assert first["digest"] == second["digest"]
    assert [row["steps"] for row in first["table"]] == [row["steps"] for row in second["table"]]

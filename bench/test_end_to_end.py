"""The harness against a real ``python -m repro serve`` subprocess.

Slow (about a minute): one ``--quick`` suite pass on one workload, one
driver-mode run, and the refusal to run without a program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def test_quick_suite_on_one_workload(tmp_path):
    out = tmp_path / "suite.json"
    done = subprocess.run(
        RUN + ["--seed", "5", "--quick", "--workload", "reads_beside_writes",
               "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    assert document["claim"] is None
    assert document["environment"]["python"]
    entry = document["workloads"]["reads_beside_writes"]
    assert entry["correct"] and entry["ops_failed"] == 0
    assert entry["ops_attempted"] > 1000
    assert len(entry["frames_sha256"]) == 64
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for metric in benchmark["end_to_end"]:
        cell = entry["end_to_end"][metric["name"]]
        assert len(cell["values"]) == 1 and cell["median"] > 0
        assert f"{metric['name']} " in done.stdout
    assert set(entry["unresolved"]) == {
        "latency_p99_ms", "reads_per_s", "read_latency_p99_ms"
    }
    assert entry["trace_missing"] == []
    layer = entry["per_layer"]
    for metric in benchmark["per_layer"]:
        assert metric["name"] in layer, metric["name"]
        assert f"{metric['name']} " in done.stdout
    # The traced round accounts for the server's wall time.
    assert abs(layer["trace.accounted_share"]["value"] - 1.0) < 0.05
    assert layer["trie.proof_us"]["value"] > 0
    assert layer["storage.restart_s"]["value"] > 0
    assert abs(sum(entry["waterfall"].values()) - 1.0) < 1e-6


def test_driver_mode_prints_the_result_object_last():
    done = subprocess.run(
        RUN + ["--workload", "hotburst_packed", "--seed", "6",
               "--seconds", "4", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {
        metric["name"] for metric in benchmark["end_to_end"]
    }
    for metric in benchmark["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0
    assert not list((BENCH_DIR / "out").glob("run-*"))  # scratch removed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "transfer",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""

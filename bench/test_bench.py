"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

Each workload runs twice, traced, on one seed; the exact counters must repeat
and every output must pass its check. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
EXACT_COUNTERS = (
    "scan.scan_channel.calls",  # frames scanned
    "scan.write_records_csv.rows",  # records
    "outputs.csv_bytes",
    "detectors.acf.calls_per_frame",
    "evaluate.frames_generated",
    "cli.simulate.result_pickle_bytes",
)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["sweep", "eval", "analyze"])
def test_exact_counters_repeat(workload):
    results = []
    for _ in range(2):
        proc = bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        results.append({k: result["metrics"][k]["value"] for k in EXACT_COUNTERS})
    assert results[0] == results[1]
    assert results[0]["outputs.csv_bytes"] > 0


def test_metrics_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""

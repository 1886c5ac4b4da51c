"""Smoke test of the benchmark: every workload at toy size on T-13.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run emits every metric ``BENCHMARK.json`` names, with its
unit, that a deliberately corrupted result is counted as a failure, and
that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(*args):
    finished = _bench(*args, "--toy")
    assert finished.returncode == 0, finished.stderr
    *_, report, result = finished.stdout.strip().splitlines()
    return json.loads(report.removeprefix("report ")), json.loads(result)


def test_the_spec_names_what_run_emits():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]} == run.END_TO_END
    assert {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report, result = _result("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert report["fail_ratio"] == 0.0
    assert set(report["backends"].values()) == {"native"}
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_a_corrupted_result_is_counted(workload):
    report, result = _result("--workload", workload, "--trace", "0", "--corrupt")
    assert not result["correct"] and result["failed"] >= 1
    assert report["fail_ratio"] > 0


def test_refuses_to_run_without_the_program():
    bare = HERE.parent / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        finished = _bench("--workload", "ecdh-b163", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert finished.returncode != 0
    assert '"metrics"' not in finished.stdout

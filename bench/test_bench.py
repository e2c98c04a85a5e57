"""Self-test of the benchmark at tiny scale.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def check_metrics(res, declared):
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_end_to_end_metric(workload):
    metrics, tally, _ = run.measure(workload, 0, 0.0, workloads.TINY, {})
    res = run.result(metrics, tally)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    check_metrics(res, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_emits_every_per_layer_metric():
    metrics, tally, _ = run.trace("analyze-stream", 0, workloads.TINY, {})
    res = run.result(metrics, tally)
    assert res["correct"]
    check_metrics(res, SPEC["per_layer"])
    calls = {k: v["value"] for k, v in res["metrics"].items() if k.endswith(".calls")}
    assert all(n > 0 for n in calls.values()), calls
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_traced_calls_repeat_exactly():
    first, _, _ = run.trace("cli-cold", 3, workloads.TINY, {})
    second, _, _ = run.trace("cli-cold", 3, workloads.TINY, {})
    calls = [k for k in first if k.endswith(".calls")]
    assert [first[k] for k in calls] == [second[k] for k in calls]


@pytest.mark.parametrize("family", ["analyze", "hilbert", "verify", "cli"])
def test_wrong_expected_digest_counts_as_failed_ops(family):
    expected = {"0": {family: "0" * 64}}
    metrics, tally, _ = run.measure("analyze-stream", 0, 0.0, workloads.TINY, expected)
    res = run.result(metrics, tally)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_recorded_digests_are_for_the_default_seed():
    expected = json.loads(run.EXPECTED.read_text())
    assert set(expected) == {str(workloads.DEFAULT_SEED)}
    assert set(expected[str(workloads.DEFAULT_SEED)]) == {"analyze", "hilbert", "verify", "cli"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "analyze-stream", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

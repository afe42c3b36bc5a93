"""Output checks: a wrong result must fail the run."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, run, workloads
from perfbench.inputs import CheckFailed

ROOT = Path(__file__).resolve().parents[2]


def _ok(job, value=None):
    return {
        "status": "ok",
        "job_id": job,
        "result": {"status": "ok", "job_id": job, "value": value or {"ok": True}},
    }


def test_a_good_fetch_passes():
    assert inputs.check_fetched(_ok("j1"), "j1") == {"ok": True}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.update(status="pending"),
        lambda r: r.update(job_id="other"),
        lambda r: r["result"].update(job_id="other"),
        lambda r: r["result"].update(status="failed"),
        lambda r: r.pop("result"),
    ],
)
def test_a_wrong_fetch_fails(mutate):
    response = _ok("j1")
    mutate(response)
    with pytest.raises(CheckFailed):
        inputs.check_fetched(response, "j1")


def test_same_compares_structure_with_tolerance():
    assert inputs.same({"a": [1.0, float("nan")]}, {"a": [1.0 + 1e-12, float("nan")]})
    assert not inputs.same({"a": 1.0}, {"a": 1.001})
    assert not inputs.same({"a": 1.0}, {"b": 1.0})
    assert not inputs.same([1, 2], [1, 2, 3])
    assert not inputs.same(True, 1)


def test_requests_repeat_for_a_seed_and_differ_across_seeds():
    a = [inputs.sweep_request(3, i) for i in range(2)]
    assert a == [inputs.sweep_request(3, i) for i in range(2)]
    assert a != [inputs.sweep_request(4, i) for i in range(2)]
    for seed in (5, 6, 7):
        sims = inputs.simulate_requests(seed, ["t0", "t1"], 12, 2.0, "cache")
        assert sims == inputs.simulate_requests(seed, ["t0", "t1"], 12, 2.0, "cache")
        # every seed: each protocol equally often, to within one job
        used = [p for r in sims for p in r["params"]["protocols"]]
        counts = [used.count(p) for p in inputs.SIM_PROTOCOLS]
        assert max(counts) - min(counts) <= 1
    assert sims != inputs.simulate_requests(8, ["t0", "t1"], 12, 2.0, "cache")
    assert inputs.job_id(inputs.noop_request(1, "x", 0)) != inputs.job_id(
        inputs.noop_request(1, "x", 1)
    )


def test_a_sweep_result_that_differs_from_the_library_fails():
    request = inputs.sweep_request(1, 0)
    request["params"]["grid"]["seeds"] = [1, 2]  # keep the check cheap
    expected = inputs.reference_value(request)
    good = {"scenarios": expected}
    assert inputs.check_against_library([request], [good], seed=1, sample=1) == 1
    bad = json.loads(json.dumps(good))
    bad["scenarios"][0]["mean_rate_mbps"] *= 1.01
    with pytest.raises(CheckFailed):
        inputs.check_against_library([request], [bad], seed=1, sample=1)


def _fake_workload(correct):
    def workload(ctx):
        outcome = workloads.Outcome(attempted=100)
        outcome.setup_s = [0.5, 0.6, 0.7]
        outcome.latencies_s = [0.001 * (i + 1) for i in range(100)]
        outcome.throughput_ops_s = 12.5
        if not correct:
            outcome.fail("result differs")
            outcome.failed = 1
        return outcome

    return workload


@pytest.mark.parametrize("correct", [True, False])
def test_the_run_reports_a_failed_check(monkeypatch, capsys, correct):
    monkeypatch.setitem(workloads.WORKLOADS, "fake", _fake_workload(correct))
    code = run.main(["--workload", "fake", "--seed", "1", "--seconds", "1"])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is correct
    assert last["failed"] == (0 if correct else 1)
    metrics = last["metrics"]
    assert set(metrics) == {
        "setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_ops_s"
    }
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(50.0)
    assert metrics["latency_p90_ms"]["value"] == pytest.approx(90.0)
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_without_program_sources_the_run_fails(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "submit-noop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_benchmark_json_names_every_reported_metric():
    from perfbench.layers import metric_names

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "latency_p50_ms", "latency_p90_ms", "throughput_ops_s"
    ]
    assert [m["name"] for m in spec["per_layer"]] == metric_names()

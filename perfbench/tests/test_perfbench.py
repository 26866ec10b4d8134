"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Proves that the harness's own step loop is the pipeline's program (same
parameters after N steps as ``pipeline.run_experiment``), runs every
workload at a tiny size, traced and untraced, and checks that the metric
names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
from lirrdet import pipeline  # noqa: E402
from lirrdet.autodiff import load_checkpoint  # noqa: E402

TINY = {"source_count": 24, "target_train_small": 8, "target_train_full": 16,
        "target_test_count": 6}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> harness.Workload:
    return replace(harness.WORKLOADS[name], bench=TINY, label_budget=8)


@pytest.mark.parametrize("name", ["sda_train", "oracle_train"])
def test_step_loop_matches_run_experiment(tmp_path, name):
    workload, seed, steps = tiny(name), 3, 5
    data = tmp_path / "data"
    data.mkdir()
    config = harness.experiment_config(workload, seed, steps, data, tmp_path / "run")
    state = harness.setup(workload, seed, config, data)
    trained = harness.train(state)
    evaluated = harness.evaluate([state.model], state.test)

    report = pipeline.run_experiment(config)
    ours = harness.params_sha256(harness.checkpoint_state(state.model, state.classifier))
    assert ours == harness.params_sha256(load_checkpoint(report.checkpoint_path))
    assert evaluated["report"].to_dict() == {k: v for k, v in report.eval_series[-1].items()
                                             if k != "step"}
    with open(report.losses_path) as f:
        logged = [json.loads(line)["l_total"] for line in f]
    assert trained["losses"] == logged


# calls per traced step: SDA runs two backbone passes and four head-set
# passes over 8+8 images, the supervised step one of each over 8 images
CALLS = {
    "sda_train": {"features": 2, "predict": 4, "match_anchors": 16, "loss_terms": 32},
    "oracle_train": {"features": 1, "predict": 1, "match_anchors": 8, "loss_terms": 8},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_tiny_run(tmp_path, name, trace):
    report = harness.run(tiny(name), seed=1, steps=4, work_dir=tmp_path, trace=trace)
    assert report["failed"] == 0 and report["attempted"] > 0
    listed = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(report["metrics"]) == listed
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for metric, (value, unit) in report["metrics"].items():
        assert math.isfinite(value) and unit == units[metric]
        if not trace:
            assert value > 0, metric
    reported = {"ap", "failed_frac"} | (set() if trace else set(harness.REPORTED_ONLY))
    assert set(report["reported"]) == reported
    if trace:
        m = {k: v for k, (v, _) in report["metrics"].items()}
        for key, calls in CALLS[name].items():
            assert m[f"detector.{key}_calls"] == calls, key
        assert m["autodiff.conv2d_calls"] == 4 * CALLS[name]["features"] + 4 * CALLS[name]["predict"]
        assert m["detector.nms_in"] == 480
        # self times of the spans inside a step add up to the step
        assert m["trace.step_self_sum_ms"] == pytest.approx(m["trace.step_ms_mean"], rel=0.02)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    args = ["--workload", "sda_train", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

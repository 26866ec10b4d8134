"""The JSON text `to_dict` writes for each config and report record.

Each case is a fixed record with non-default enums and tuples, and the
exact text `json.dumps` gives for its `to_dict()`. A reordered field or a
changed type (an int for a float, a string for an array) would change every
run report, split header and `losses.jsonl` line the program writes.
"""

import json

import pytest

from lirrdet.coco_eval import APReport
from lirrdet.lirr import LossBreakdown
from lirrdet.pipeline import ExperimentConfig, Mode, RunReport
from lirrdet.synthgen import Background, BenchmarkConfig, DomainParams, SceneSpec, TargetTexture

EXPERIMENT = ExperimentConfig(mode=Mode.ORACLE, target_train_path="t.bin", target_test_path="e.bin",
                              label_budget=4, image_size=32, widths=(8, 16, 24, 32), lr=0.25,
                              seed=7, steps=6, eval_cadence=3, out_dir="run_oracle")
EXPERIMENT_TEXT = (
    '{"mode": "Oracle", "source_path": "", "target_train_path": "t.bin", "target_test_path": "e.bin", '
    '"label_budget": 4, "image_size": 32, "widths": [8, 16, 24, 32], "batch_size": 8, "lr": 0.25, '
    '"momentum": 0.5, "lambda_rep": 0.1, "lambda_risk": 1.0, "grl_lambda": 1.0, "seed": 7, '
    '"steps": 6, "eval_cadence": 3, "out_dir": "run_oracle"}')

RECORDS = {
    "ExperimentConfig": (EXPERIMENT, EXPERIMENT_TEXT),
    "RunReport": (
        RunReport(config=EXPERIMENT.to_dict(), eval_series=[{"step": 3, "ap": 0.125}],
                  final={"ap": 0.25, "ap50": 0.5, "ap75": 0.0},
                  counters={"target_train_samples": 12}, losses_path="run/losses.jsonl",
                  wall_clock_sec=1.5, version="0.1.0"),
        '{"config": ' + EXPERIMENT_TEXT + ', "eval_series": [{"step": 3, "ap": 0.125}], '
        '"final": {"ap": 0.25, "ap50": 0.5, "ap75": 0.0}, "counters": {"target_train_samples": 12}, '
        '"losses_path": "run/losses.jsonl", "checkpoint_path": "", "detections_path": "", '
        '"wall_clock_sec": 1.5, "version": "0.1.0"}'),
    "BenchmarkConfig": (
        BenchmarkConfig(
            scene=SceneSpec(size=32, polygon_sides=(4, 6), scale_range=(0.125, 0.25), seed=5),
            source=DomainParams(illumination_gain=0.75, background=Background.EARTH_GRADIENT),
            target=DomainParams(noise_sigma=0.5, background=Background.STARFIELD,
                                target_texture=TargetTexture.PANELLED),
            source_count=12, target_train_small=4, target_train_full=6, target_test_count=6),
        '{"scene": {"size": 32, "polygon_sides": [4, 6], "scale_range": [0.125, 0.25], '
        '"position_range": [0.25, 0.75], "rotation_range": [0.0, 6.283185307179586], "seed": 5}, '
        '"source": {"illumination_gain": 0.75, "gradient_direction": 0.0, "gradient_strength": 0.0, '
        '"noise_sigma": 0.0, "background": "earth_gradient", "clutter_density": 0.5, '
        '"target_texture": "flat"}, '
        '"target": {"illumination_gain": 1.0, "gradient_direction": 0.0, "gradient_strength": 0.0, '
        '"noise_sigma": 0.5, "background": "starfield", "clutter_density": 0.5, '
        '"target_texture": "panelled"}, '
        '"source_count": 12, "target_train_small": 4, "target_train_full": 6, "target_test_count": 6, '
        '"source_start": 0, "target_train_start": 10000, "target_test_start": 20000}'),
    "APReport": (
        APReport(ap=0.25, ap50=0.5, ap75=0.125, per_threshold=[0.5, 0.375, -1.0],
                 thresholds=(0.5, 0.75, 0.95)),
        '{"ap": 0.25, "ap50": 0.5, "ap75": 0.125, "per_threshold": [0.5, 0.375, -1.0], '
        '"thresholds": [0.5, 0.75, 0.95]}'),
    "LossBreakdown": (
        LossBreakdown(l_rep=0.5, l_i=1.25, l_total=2.0, l_i_cls=0.75, l_i_loc=0.5),
        '{"l_rep": 0.5, "l_i": 1.25, "l_d": 0.0, "l_risk": 0.0, "l_total": 2.0, "l_i_cls": 0.75, '
        '"l_i_loc": 0.5, "l_d_cls": 0.0, "l_d_loc": 0.0}'),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_written_json_text_is_pinned(name):
    record, text = RECORDS[name]
    assert json.dumps(record.to_dict()) == text

"""The IoU clamp and the anchor label rule against the forms they replaced.

`iou_matrix` clamps each overlap side with `np.maximum(x, 0.0)`, where it
used `np.clip(x, 0.0, None)`; the two can differ only in the sign of a zero
IoU. `match_anchors` labels anchors with nested `np.where`, where it used
`np.select`. Every consumer must decide exactly as before: `MatchResult`
bytes, `nms` keeps and `evaluate` AP are checked on the brute-force inputs
of the other suites, plus boxes at +0.0 and -0.0 coordinates and boxes that
only touch along an edge.
"""

import numpy as np
import pytest

from lirrdet import coco_eval
from lirrdet.coco_eval import EvalInput, evaluate
from lirrdet.detector import LevelSpec, boxes, generate_anchors, match_anchors, matching, nms

from test_anchors_matching import brute_force_match
from test_boxes import benchmark_size_dets, random_boxes, small_dets
from test_coco_eval import random_eval_input

# a 4x4 tile at both signs of the origin, and tiles touching it along an edge or a corner
EDGE_BOXES = np.array([[-0.0, -0.0, 4.0, 4.0], [0.0, 0.0, 4.0, 4.0], [4.0, 0.0, 8.0, 4.0],
                       [0.0, 4.0, 4.0, 8.0], [-0.0, 4.0, 4.0, 8.0], [4.0, 4.0, 8.0, 8.0],
                       [8.0, -0.0, 12.0, 4.0], [0.0, 0.0, 8.0, 8.0], [-0.0, 8.0, 8.0, 16.0]])


def clip_iou_matrix(a, b):
    """iou_matrix as it was, clamping with np.clip."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.clip(ix2 - ix1, 0.0, None) * np.clip(iy2 - iy1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def test_clamps_differ_at_most_in_the_sign_of_a_zero():
    rng = np.random.default_rng(21)
    a = np.vstack([random_boxes(rng, 30), EDGE_BOXES])
    a[::3] = np.round(a[::3])
    got, was = boxes.iou_matrix(a, a), clip_iou_matrix(a, a)
    np.testing.assert_array_equal(got, was)
    differ = got.view(np.uint64) != was.view(np.uint64)
    assert np.all(got[differ] == 0.0)


def _match_inputs():
    """The brute-force matching cases, then GTs at +-0.0 on the anchor grid and on the edge tiles."""
    grid = generate_anchors(32, [LevelSpec(8, (10.0, 16.0), (1.0, 2.0, 0.5)), LevelSpec(16, (24.0,), (1.0,))])
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        num_g = int(rng.integers(1, 11))
        yield grid, random_boxes(rng, num_g, size=32, min_side=3), rng.integers(1, 3, size=num_g)
    gts = np.array([[-0.0, -0.0, 8.0, 8.0], [8.0, 0.0, 16.0, 8.0], [16.0, 16.0, 32.0, 32.0]])
    yield grid, gts, np.array([1, 2, 1])
    yield EDGE_BOXES, EDGE_BOXES[[1, 5, 8]], np.array([2, 1, 2])


@pytest.mark.parametrize("case", range(10))
def test_match_result_bytes_unchanged(case, monkeypatch):
    grid, gts, classes = list(_match_inputs())[case]
    got = match_anchors(gts, classes, grid, pos_thr=0.5, neg_thr=0.4)
    assert got.gt_index.tobytes() == brute_force_match(gts, grid, 0.5, 0.4).tobytes()
    monkeypatch.setattr(matching, "iou_matrix", clip_iou_matrix)
    was = match_anchors(gts, classes, grid, pos_thr=0.5, neg_thr=0.4)
    for field in ("gt_index", "class_targets", "box_targets"):
        assert getattr(got, field).tobytes() == getattr(was, field).tobytes(), field
    assert got.num_positive == was.num_positive


def _nms_arrays(dets):
    return (np.array([d.bbox for d in dets], dtype=np.float64), np.array([d.score for d in dets]),
            np.array([d.class_id for d in dets], dtype=np.int64))


@pytest.mark.parametrize("case", range(7))
def test_nms_keeps_unchanged(case, monkeypatch):
    if case < 6:
        dets = (small_dets if case < 5 else benchmark_size_dets)(np.random.default_rng(100 + case))
        arrays = _nms_arrays(dets)
    else:  # the edge tiles, one class, tied and distinct scores
        arrays = EDGE_BOXES, np.array([0.9, 0.9, 0.8, 0.7, 0.7, 0.6, 0.5, 0.4, 0.3]), np.ones(9, dtype=np.int64)
    for thr in (0.0, 0.4, 1.0):
        got = nms(*arrays, thr)
        with monkeypatch.context() as m:
            m.setattr(boxes, "iou_matrix", clip_iou_matrix)
            was = nms(*arrays, thr)
        assert got.tobytes() == was.tobytes(), thr


def _edge_eval_input():
    gt = {0: [(tuple(b), 1) for b in EDGE_BOXES[[1, 5]]], 1: [(tuple(EDGE_BOXES[0]), 2)]}
    dets = {0: [(tuple(b), 1, 0.9 - 0.1 * i) for i, b in enumerate(EDGE_BOXES)],
            1: [(tuple(b), 2, 0.5) for b in EDGE_BOXES[[1, 2, 4]]]}
    return EvalInput(gt=gt, detections=dets)


@pytest.mark.parametrize("case", range(6))
def test_evaluate_ap_unchanged(case, monkeypatch):
    inp = random_eval_input(np.random.default_rng(1000 + case), num_images=50) if case < 5 else _edge_eval_input()
    got = evaluate(inp)
    monkeypatch.setattr(coco_eval, "iou_matrix", clip_iou_matrix)
    was = evaluate(inp)
    assert got.per_threshold == was.per_threshold and got.ap == was.ap

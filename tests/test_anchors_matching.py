import math

import numpy as np
import pytest

from lirrdet.detector import (
    IGNORE,
    NEGATIVE,
    LevelSpec,
    encode_boxes,
    generate_anchors,
    match_anchors,
)

from _box_ref import iou
from test_boxes import random_boxes, ref_iou


class TestGenerateAnchors:
    def test_single_anchor_covers_image(self):
        grid = generate_anchors(8, [LevelSpec(stride=8, scales=(8.0,), aspects=(1.0,))])
        assert grid.shape == (1, 4) and grid.dtype == np.float64
        np.testing.assert_allclose(grid[0], [0, 0, 8, 8])

    def test_two_aspects_on_2x2_grid(self):
        grid = generate_anchors(16, [LevelSpec(stride=8, scales=(8.0,), aspects=(1.0, 2.0))])
        assert len(grid) == 8

    def test_count_formula_multi_level(self):
        levels = [LevelSpec(8, (8.0, 12.0), (1.0, 0.5)), LevelSpec(16, (24.0,), (1.0,))]
        grid = generate_anchors(64, levels)
        assert len(grid) == 8 * 8 * 4 + 4 * 4 * 1

    def test_indivisible_stride_rejected(self):
        with pytest.raises(ValueError):
            generate_anchors(60, [LevelSpec(stride=8)])

    @pytest.mark.parametrize("field,value", [
        ("stride", 0), ("stride", -8), ("stride", math.nan), ("stride", math.inf),
        ("scales", (math.nan,)), ("scales", (math.inf,)), ("scales", ()), ("scales", (8.0, -1.0)),
        ("aspects", (-1.0,)), ("aspects", (0.0,)), ("aspects", (1.0, math.inf)), ("aspects", ()),
        ("aspects", [1.0]),
    ])
    def test_level_spec_rejects_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LevelSpec(**{"stride": 8, field: value})

    def test_against_second_implementation(self):
        # independent vectorized construction of the same layout
        stride, scales, aspects, size = 4, (6.0, 9.0), (1.0, 2.0, 0.5), 16
        grid = generate_anchors(size, [LevelSpec(stride, scales, aspects)])

        n = size // stride
        cys, cxs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        centers = np.stack([(cxs + 0.5) * stride, (cys + 0.5) * stride], axis=-1).reshape(-1, 2)
        sa = [(s, a) for s in scales for a in aspects]
        expected = []
        for cx, cy in centers:
            for s, a in sa:
                w, h = s * np.sqrt(a), s / np.sqrt(a)
                expected.append([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2])
        np.testing.assert_allclose(grid, np.array(expected), atol=1e-12)


def brute_force_match(gt_boxes, anchor_boxes, pos_thr, neg_thr):
    """Literal rule application with explicit loops; returns gt_index array."""
    num_a, num_g = len(anchor_boxes), len(gt_boxes)
    ious = [[ref_iou(a, g) for g in gt_boxes] for a in anchor_boxes]
    assigned = {}
    for g in range(num_g):
        best_a, best = 0, -1.0
        for a in range(num_a):
            if ious[a][g] > best:
                best, best_a = ious[a][g], a
        if best_a not in assigned:
            assigned[best_a] = g
    out = np.empty(num_a, dtype=np.int64)
    for a in range(num_a):
        if a in assigned:
            out[a] = assigned[a]
            continue
        best_g, best = 0, -1.0
        for g in range(num_g):
            if ious[a][g] > best:
                best, best_g = ious[a][g], g
        if num_g and best >= pos_thr:
            out[a] = best_g
        elif best < neg_thr:
            out[a] = NEGATIVE
        else:
            out[a] = IGNORE
    return out


def _loose_grid(size=64):
    return generate_anchors(size, [LevelSpec(8, (10.0, 16.0), (1.0, 2.0, 0.5)),
                                   LevelSpec(16, (24.0, 36.0), (1.0,))])


class TestMatchAnchors:
    def test_no_gts_all_negative(self):
        grid = _loose_grid()
        m = match_anchors(np.zeros((0, 4)), np.zeros(0, dtype=int), grid)
        assert m.num_positive == 0
        assert np.all(m.gt_index == NEGATIVE)
        assert np.all(m.class_targets == 0)

    def test_gt_equal_to_anchor(self):
        grid = _loose_grid()
        pick = 137
        gt = grid[pick:pick + 1].copy()
        m = match_anchors(gt, [1], grid)
        assert m.gt_index[pick] == 0
        np.testing.assert_allclose(m.box_targets[pick], np.zeros(4), atol=1e-9)
        assert m.class_targets[pick] == 1

    def test_threshold_boundaries(self):
        # IoUs against the 10x10 GT are exact: 100/100, 50/100, 40/100, 39/100
        grid = np.array([[0, 0, 10, 10], [0, 0, 10, 5], [0, 0, 10, 4], [0, 0, 10, 3.9],
                         [45, 45, 55, 55]], dtype=np.float64)
        gts = np.array([[0, 0, 10, 10], [40, 40, 50, 50]], dtype=np.float64)
        m = match_anchors(gts, [1, 2], grid, pos_thr=0.5, neg_thr=0.4)
        # anchor 4 is GT 1's best at IoU 25/175 < neg_thr and stays positive
        np.testing.assert_array_equal(m.gt_index, [0, 0, IGNORE, NEGATIVE, 1])
        np.testing.assert_array_equal(m.class_targets, [1, 1, -1, 0, 2])
        assert m.num_positive == 3

    def test_empty_anchor_set_rejected(self):
        with pytest.raises(ValueError):
            match_anchors(np.array([[0, 0, 8, 8.0]]), [1], _loose_grid()[:0])

    def test_threshold_order_validated(self):
        with pytest.raises(ValueError):
            match_anchors(np.zeros((0, 4)), [], _loose_grid(), pos_thr=0.3, neg_thr=0.4)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(200 + seed)
        grid = generate_anchors(32, [LevelSpec(8, (10.0, 16.0), (1.0, 2.0, 0.5)),
                                     LevelSpec(16, (24.0,), (1.0,))])
        assert len(grid) <= 100
        num_g = int(rng.integers(1, 11))
        gts = random_boxes(rng, num_g, size=32, min_side=3)
        classes = rng.integers(1, 3, size=num_g)
        m = match_anchors(gts, classes, grid, pos_thr=0.5, neg_thr=0.4)
        want = brute_force_match(gts, grid, 0.5, 0.4)
        np.testing.assert_array_equal(m.gt_index, want)
        # encoded targets rebuilt independently for each positive
        for a in np.flatnonzero(m.gt_index >= 0):
            expect = encode_boxes(gts[m.gt_index[a]], grid[a])
            np.testing.assert_allclose(m.box_targets[a], expect, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_force_match_guarantee(self, seed):
        rng = np.random.default_rng(300 + seed)
        grid = _loose_grid()
        gts = random_boxes(rng, 5, size=64, min_side=4)
        m = match_anchors(gts, np.ones(5, dtype=int), grid)
        from lirrdet.detector import iou_matrix
        overlaps = iou_matrix(grid, gts)
        for g in range(5):
            if overlaps[:, g].max() > 0:
                assert np.any(m.gt_index == g)

    def test_positive_invariant(self):
        rng = np.random.default_rng(310)
        grid = _loose_grid()
        gts = random_boxes(rng, 6, size=64, min_side=5)
        m = match_anchors(gts, np.ones(6, dtype=int), grid, pos_thr=0.5, neg_thr=0.4)
        for a in np.flatnonzero(m.gt_index >= 0):
            g = m.gt_index[a]
            ok = iou(grid[a], gts[g]) >= 0.5
            is_argmax = a == int(np.argmax([iou(b, gts[g]) for b in grid]))
            assert ok or is_argmax

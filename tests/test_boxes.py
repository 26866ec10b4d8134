"""Geometry oracles: IoU hand values, encode/decode round trips, NMS vs
an independently written greedy reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lirrdet.detector import Detection, decode_boxes, encode_boxes, iou_matrix, nms
from lirrdet.detector.boxes import NMS_BLOCK

from _box_ref import iou


def ref_iou(a, b):
    # deliberately separate from the library implementation
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        inter = 0.0
    else:
        inter = w * h
    u = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / u if u > 0 else 0.0


def random_boxes(rng, n, size=64.0, min_side=2.0):
    x1 = rng.uniform(0, size - min_side, n)
    y1 = rng.uniform(0, size - min_side, n)
    w = rng.uniform(min_side, size - x1)
    h = rng.uniform(min_side, size - y1)
    return np.stack([x1, y1, x1 + w, y1 + h], axis=1)


class TestIoU:
    def test_identical(self):
        assert iou((3, 4, 10, 12), (3, 4, 10, 12)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_quarter_overlap(self):
        assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)

    def test_zero_union(self):
        assert iou((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(20)
        boxes = random_boxes(rng, 40)
        for a in boxes[:20]:
            for b in boxes[20:]:
                v, w = iou(a, b), iou(b, a)
                assert v == w
                assert 0.0 <= v <= 1.0
                assert v == pytest.approx(ref_iou(a, b), abs=1e-12)

    def test_matrix_matches_scalar(self):
        # bit for bit: nms and match_detections must decide exactly as the scalar
        # reference does, also on integer-snapped boxes and zero-area boxes
        rng = np.random.default_rng(21)
        a, b = random_boxes(rng, 12), random_boxes(rng, 7)
        a, b = np.vstack([a, np.round(a), [[5, 5, 5, 9]]]), np.vstack([b, np.round(b)])
        m = iou_matrix(a, b)
        for i in range(len(a)):
            for j in range(len(b)):
                assert m[i, j] == iou(a[i], b[j])

    def test_matrix_symmetric(self):
        # nms reads one triangle of iou_matrix(boxes, boxes)
        rng = np.random.default_rng(23)
        a, b = random_boxes(rng, 30), random_boxes(rng, 20)
        a[::3] = np.round(a[::3])
        np.testing.assert_array_equal(iou_matrix(a, b), iou_matrix(b, a).T)
        np.testing.assert_array_equal(iou_matrix(a, a), iou_matrix(a, a).T)


class TestEncodeDecode:
    def test_gt_equals_anchor(self):
        box = np.array([10.0, 12.0, 30.0, 40.0])
        np.testing.assert_allclose(encode_boxes(box, box), np.zeros(4), atol=1e-12)

    def test_zero_offsets_return_anchor(self):
        anchor = np.array([5.0, 6.0, 25.0, 20.0])
        np.testing.assert_allclose(decode_boxes(np.zeros(4), anchor), anchor, atol=1e-12)

    def test_round_trip_1000_pairs(self):
        rng = np.random.default_rng(22)
        gt = random_boxes(rng, 1000).astype(np.float32)
        anchors = random_boxes(rng, 1000).astype(np.float32)
        back = decode_boxes(encode_boxes(gt, anchors), anchors).astype(np.float32)
        assert np.max(np.abs(back - gt)) < 1e-5

    def test_degenerate_gt_rejected(self):
        anchor = np.array([0.0, 0.0, 8.0, 8.0])
        with pytest.raises(ValueError):
            encode_boxes(np.array([4.0, 4.0, 4.0, 10.0]), anchor)

    def test_clamp_to_image(self):
        anchor = np.array([28.0, 28.0, 36.0, 36.0])
        huge = np.array([0.0, 0.0, 30.0, 30.0])  # dw of 30/0.2 blows the box up
        out = decode_boxes(huge, anchor, image_size=64)
        assert out[0] >= 0 and out[1] >= 0 and out[2] <= 64 and out[3] <= 64

    def test_no_clamp_without_image_size(self):
        anchor = np.array([0.0, 0.0, 8.0, 8.0])
        out = decode_boxes(np.array([-100.0, 0.0, 0.0, 0.0]), anchor)
        assert out[0] < 0


def nms_dets(dets, thr, k=None):
    """nms on a Detection list: the kept detections, in keep order."""
    boxes = np.array([d.bbox for d in dets], dtype=np.float64).reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    return [dets[i] for i in nms(boxes, scores, classes, thr, k)]


def brute_nms(dets, thr):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept = []
    while order:
        i = order.pop(0)
        kept.append(i)
        order = [j for j in order
                 if dets[j].class_id != dets[i].class_id
                 or ref_iou(dets[j].bbox, dets[i].bbox) <= thr]
    return kept


def small_dets(rng):
    boxes = random_boxes(rng, 20, size=32, min_side=4)
    return [Detection(tuple(b), int(rng.integers(1, 3)), float(rng.uniform(0, 1)))
            for b in boxes]


def benchmark_size_dets(rng):
    """About as many candidates as an untrained detector sends to NMS (480),
    with tied scores, a few zero-area boxes, and five pairs whose IoU is
    exactly 0.4 (a 10x10 box, then its own lower 10x4 strip)."""
    boxes = random_boxes(rng, 390, size=64, min_side=2)
    boxes[::40, 2] = boxes[::40, 0]
    dets = [Detection(tuple(b), int(rng.integers(1, 3)), float(rng.integers(1, 20)) / 20)
            for b in boxes]
    for x, y in rng.integers(0, 54, size=(5, 2)).tolist():
        dets += [Detection((x, y, x + 10, y + 10), 1, 1.0),
                 Detection((x, y, x + 10, y + 4), 1, float(rng.integers(1, 20)) / 20)]
    return dets


class TestNMS:
    def test_single(self):
        d = Detection((0, 0, 4, 4), 1, 0.7)
        assert nms_dets([d], 0.5) == [d]

    def test_identical_pair_keeps_higher(self):
        a = Detection((0, 0, 4, 4), 1, 0.9)
        b = Detection((0, 0, 4, 4), 1, 0.8)
        assert nms_dets([b, a], 0.5) == [a]

    def test_different_classes_do_not_suppress(self):
        a = Detection((0, 0, 4, 4), 1, 0.9)
        b = Detection((0, 0, 4, 4), 2, 0.8)
        assert nms_dets([a, b], 0.5) == [a, b]

    def test_score_tie_keeps_lower_index(self):
        a = Detection((0, 0, 4, 4), 1, 0.8)
        b = Detection((0.5, 0, 4.5, 4), 1, 0.8)
        assert nms_dets([a, b], 0.3) == [a]

    @pytest.mark.parametrize("seed,make", [(s, small_dets) for s in range(5)]
                             + [(5, benchmark_size_dets)],
                             ids=[*map(str, range(5)), "400-boxes"])
    def test_matches_brute_force(self, seed, make):
        dets = make(np.random.default_rng(100 + seed))
        got = nms_dets(dets, 0.4)
        want = [dets[i] for i in brute_nms(dets, 0.4)]
        assert got == want

    def test_output_invariants(self):
        rng = np.random.default_rng(105)
        boxes = random_boxes(rng, 30, size=32, min_side=4)
        dets = [Detection(tuple(b), 1, float(rng.uniform(0, 1))) for b in boxes]
        out = nms_dets(dets, 0.45)
        assert all(d in dets for d in out)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert iou(out[i].bbox, out[j].bbox) <= 0.45

    def test_keep_in_block_0_suppresses_candidates_in_later_blocks(self):
        # in score order: the top box, then disjoint boxes, with copies of the
        # top box at the start of block 1 and inside block 2; only the keep in
        # block 0 can kill them
        n = 2 * NMS_BLOCK + 5
        boxes = [(10 * p, 20, 10 * p + 8, 28) for p in range(n)]
        for p in (NMS_BLOCK, 2 * NMS_BLOCK + 3):
            boxes[p] = (0, 20, 8, 28.5)
        dets = [Detection(b, 1, 1.0 - p / 1000) for p, b in enumerate(boxes)][::-1]
        got = nms_dets(dets, 0.5)
        assert got == [dets[i] for i in brute_nms(dets, 0.5)]
        assert len(got) == n - 2 and got[0].bbox == boxes[0]

    @pytest.mark.parametrize("k", [NMS_BLOCK - 1, NMS_BLOCK, NMS_BLOCK + 1, 2 * NMS_BLOCK])
    def test_cap_at_a_block_edge(self, k):
        # disjoint boxes: every candidate is a keep, so the k-th keep is at
        # position k - 1, on or next to a block edge
        dets = [Detection((10 * i, 0, 10 * i + 8, 8), 1, 1.0 - i / 1000)
                for i in range(3 * NMS_BLOCK)]
        assert nms_dets(dets, 0.5, k) == dets[:k]

    def test_zero_candidates(self):
        got = nms(np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64), 0.5, 100)
        assert got.shape == (0,) and got.dtype == np.intp

    @pytest.mark.parametrize("thr", [0.0, 0.5])
    def test_nan_and_zero_area_boxes_never_hit(self, thr):
        # IoU with a NaN or zero-area box is 0, which is not > thr
        nan = float("nan")
        dets = [Detection((0, 0, 8, 8), 1, 0.9),
                Detection((0, 0, 8, nan), 1, 0.8),
                Detection((nan, nan, nan, nan), 1, 0.7),
                Detection((0, 0, 8, nan), 1, 0.6),
                Detection((4, 4, 4, 4), 1, 0.5),
                Detection((4, 4, 4, 4), 1, 0.4),
                Detection((2, 2, 2, 6), 1, 0.3),
                Detection((0, 0, 8, 8), 1, 0.2)]
        assert nms_dets(dets, thr) == dets[:-1]

    def test_bad_max_keep_rejected(self):
        d = Detection((0, 0, 4, 4), 1, 0.7)
        for k in (0, -1):
            with pytest.raises(ValueError, match="max_keep"):
                nms_dets([d], 0.5, k)


# sizes at and on both sides of half-block and block edges, and the 480
# candidates of an untrained 64-px detector
BLOCK_EDGE_SIZES = (0, 1, *(m * NMS_BLOCK // 2 + d for m in (1, 2, 4, 8) for d in (-1, 0, 1)),
                    480)


@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(num_classes=st.integers(1, 3), score_levels=st.sampled_from([3, 20, 2**20]),
       thr=st.sampled_from([0.0, 0.3, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_capped_nms_is_a_prefix_of_brute_force(n, num_classes, score_levels, thr, seed):
    # nms_dets(dets, thr, k) keeps exactly the first k boxes of the uncapped greedy walk
    rng = np.random.default_rng(seed)
    boxes = random_boxes(rng, n, size=64, min_side=2)
    boxes[::7] = np.round(boxes[::7])  # exact IoU ties
    dets = [Detection(tuple(b), int(rng.integers(1, num_classes + 1)),
                      float(rng.integers(1, score_levels)) / score_levels)
            for b in boxes.tolist()]
    want = [dets[i] for i in brute_nms(dets, thr)]
    for k in (1, 5, 100, n + 1, None):
        assert nms_dets(dets, thr, k) == want[:k], k

"""Detector model wiring, the training loss against a straight-line
re-derivation, and the inference path."""

import numpy as np
import pytest

from lirrdet.autodiff import SGD, Tensor, backward, precision
from lirrdet.detector import (
    NEGATIVE,
    Detector,
    LevelSpec,
    ModelSpec,
    detection_loss,
    forward_detect,
    load_detections,
    match_anchors,
    save_detections,
)
from lirrdet.detector.model import _flatten_head
from lirrdet.detector.boxes import Detection, iou


SMALL_SPEC = ModelSpec(
    image_size=32,
    widths=(8, 16, 24, 32),
    levels=(LevelSpec(8, (10.0, 16.0), (1.0, 2.0, 0.5)), LevelSpec(16, (24.0,), (1.0,))),
)


def small_model(seed=0):
    return Detector(SMALL_SPEC, rng=np.random.default_rng(seed))


class TestModelWiring:
    def test_head_rows_equal_anchor_count(self):
        m = small_model()
        x = Tensor(np.zeros((2, 1, 32, 32), dtype=np.float32))
        cls, loc = m.predict(m.features(x), "invariant")
        assert cls.data.shape == (2, len(m.anchors), 2)
        assert loc.data.shape == (2, len(m.anchors), 4)

    def test_domain_heads_are_independent_parameters(self):
        m = small_model()
        names = [n for n, _ in m.named_parameters()]
        assert any(n.startswith("domain_heads.0.") for n in names)
        assert any(n.startswith("domain_heads.1.") for n in names)
        ids0 = {id(p) for n, p in m.named_parameters() if n.startswith("domain_heads.0.")}
        ids1 = {id(p) for n, p in m.named_parameters() if n.startswith("domain_heads.1.")}
        assert not ids0 & ids1

    def test_parameter_count_is_desk_scale(self):
        m = Detector(ModelSpec(), rng=np.random.default_rng(0))
        total = sum(p.data.size for _, p in m.named_parameters())
        assert 30_000 < total < 250_000

    def test_flatten_head_layout(self):
        n, a, width, h, w = 2, 3, 5, 2, 4
        data = np.arange(n * a * width * h * w, dtype=np.float64)
        x = data.reshape(n, a * width, h, w)
        out = _flatten_head(Tensor(x), a, width).data
        for ni in range(n):
            for i in range(h):
                for j in range(w):
                    for ai in range(a):
                        for k in range(width):
                            row = (i * w + j) * a + ai
                            assert out[ni, row, k] == x[ni, ai * width + k, i, j]

    def test_head_channel_maps_to_anchor_index(self):
        # zero the head, raise one class-logit bias; only anchors with that
        # per-cell index on that level may light up
        m = small_model()
        for _, p in m.invariant_head.named_parameters():
            p.data[...] = 0.0
        a0, k0 = 4, 1
        m.invariant_head.heads[0].cls.bias.data[a0 * 2 + k0] = 7.0
        x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 32, 32)).astype(np.float32))
        cls, _ = m.predict(m.features(x), "invariant")
        per_cell = SMALL_SPEC.levels[0].anchors_per_cell
        n_level0 = (32 // 8) ** 2 * per_cell
        got = cls.data[0, :, k0] == 7.0
        expect = np.zeros(len(m.anchors), dtype=bool)
        expect[:n_level0] = (np.arange(n_level0) % per_cell) == a0
        np.testing.assert_array_equal(got, expect)


FINE, COARSE = SMALL_SPEC.levels


class TestModelSpec:
    @pytest.mark.parametrize("field,value", [
        ("levels", (COARSE, FINE)),  # anchors would no longer line up with head rows
        ("levels", (FINE, COARSE, LevelSpec(32))),
        ("levels", (FINE,)),
        ("widths", (8, 16, 24)), ("widths", (8, 16, 0, 32)),
        ("image_size", 40), ("image_size", 0),
        ("in_channels", 0), ("num_classes", 0), ("num_domains", 0),
    ])
    def test_bad_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelSpec(**{field: value})


def ref_detection_loss(logits, offsets, match, neg_ratio=3):
    def ce(z, label):
        zs = z - z.max()
        return -(zs[label] - np.log(np.exp(zs).sum()))

    pos = np.flatnonzero(match.gt_index >= 0)
    neg = np.flatnonzero(match.gt_index == NEGATIVE)
    npos = len(pos)
    bg = np.array([ce(logits[a], 0) for a in neg])
    take = min(len(neg), neg_ratio * max(npos, 1))
    sel = neg[np.argsort(-bg, kind="stable")[:take]]
    total = 0.0
    for a in pos:
        total += ce(logits[a], match.class_targets[a])
    for a in sel:
        total += ce(logits[a], 0)
    for a in pos:
        for d in range(4):
            e = abs(offsets[a, d] - match.box_targets[a, d])
            total += 0.5 * e * e if e < 1 else e - 0.5
    return total / max(npos, 1)


class TestDetectionLoss:
    def _random_case(self, seed, with_gt=True):
        from test_boxes import random_boxes
        rng = np.random.default_rng(seed)
        m = small_model(seed)
        if with_gt:
            gts = random_boxes(rng, 3, size=32, min_side=6)
            match = match_anchors(gts, np.ones(3, dtype=int), m.anchors)
        else:
            match = match_anchors(np.zeros((0, 4)), [], m.anchors)
        logits = rng.normal(size=(len(m.anchors), 2))
        offsets = rng.normal(size=(len(m.anchors), 4))
        return logits, offsets, match

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_rederivation(self, seed):
        logits, offsets, match = self._random_case(seed)
        with precision("float64"):
            got = detection_loss(Tensor(logits), Tensor(offsets), match).item()
        want = ref_detection_loss(logits, offsets, match)
        assert got == pytest.approx(want, rel=1e-9)

    def test_no_positives_is_mined_background_ce(self):
        logits, offsets, match = self._random_case(99, with_gt=False)
        assert match.num_positive == 0
        with precision("float64"):
            got = detection_loss(Tensor(logits), Tensor(offsets), match).item()
        want = ref_detection_loss(logits, offsets, match)
        assert got == pytest.approx(want, rel=1e-9)
        # only 3 * max(0, 1) = 3 negatives enter
        bg_only = ref_detection_loss(logits, offsets, match, neg_ratio=3)
        assert got == pytest.approx(bg_only)

    def test_perfect_predictions_vanish(self):
        logits, offsets, match = self._random_case(7)
        pos = match.gt_index >= 0
        perfect_logits = np.full_like(logits, 0.0)
        perfect_logits[:, 0] = 20.0
        perfect_logits[pos, 0] = -20.0
        perfect_logits[pos, 1] = 20.0
        perfect_offsets = match.box_targets.copy()
        loss = detection_loss(Tensor(perfect_logits), Tensor(perfect_offsets), match).item()
        assert loss < 1e-3

    def test_loss_is_differentiable(self):
        logits, offsets, match = self._random_case(11)
        tl = Tensor(logits, requires_grad=True)
        to = Tensor(offsets, requires_grad=True)
        backward(detection_loss(tl, to, match))
        assert tl.grad is not None and np.all(np.isfinite(tl.grad))
        assert to.grad is not None and np.all(np.isfinite(to.grad))
        # non-positive anchors contribute no box-offset gradient
        assert np.all(to.grad[~match.positive_mask] == 0)


class TestForwardDetect:
    def test_untrained_model_invariants(self):
        m = small_model(3)
        img = np.random.default_rng(4).uniform(0, 1, (1, 32, 32)).astype(np.float32)
        dets = forward_detect(m, img)
        assert len(dets) <= 100
        for d in dets:
            assert 0.0 <= d.score <= 1.0
            x1, y1, x2, y2 = d.bbox
            assert 0 <= x1 <= x2 <= 32 and 0 <= y1 <= y2 <= 32
            assert d.class_id == 1

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            forward_detect(small_model(), np.zeros((1, 64, 64), dtype=np.float32))

    def test_high_threshold_gives_empty(self):
        m = small_model(5)
        img = np.zeros((1, 32, 32), dtype=np.float32)
        assert forward_detect(m, img, score_thr=1.1) == []

    def test_overfit_single_image_recovers_box(self):
        m = small_model(6)
        img = np.full((1, 32, 32), -0.5, dtype=np.float32)
        gt = np.array([[9.0, 11.0, 23.0, 25.0]])
        img[0, 11:25, 9:23] = 0.5
        match = match_anchors(gt, [1], m.anchors)
        assert match.num_positive >= 1
        opt = SGD(m.parameters(), lr=0.01, momentum=0.9)
        x = Tensor(img[None])
        loss = None
        for _ in range(300):
            m.zero_grad()
            cls, loc = m.predict(m.features(x), "invariant")
            loss = detection_loss(cls.reshape(len(m.anchors), 2),
                                  loc.reshape(len(m.anchors), 4), match)
            backward(loss)
            opt.step()
        assert loss.item() < 1e-3  # saturated-perfect limit
        dets = forward_detect(m, img)
        assert dets, "saturated model produced no detections"
        assert iou(dets[0].bbox, gt[0]) > 0.9


class TestDetectionDump:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        recs = [
            (0, Detection((1.0, 2.0, 3.0, 4.0), 1, 0.75)),
            (3, Detection((0.5, 0.5, 10.25, 20.125), 2, 0.0625)),
        ]
        save_detections(path, recs)
        loaded = load_detections(path)
        assert loaded == [
            {"image_id": 0, "class_id": 1, "score": 0.75, "bbox": [1.0, 2.0, 3.0, 4.0]},
            {"image_id": 3, "class_id": 2, "score": 0.0625, "bbox": [0.5, 0.5, 10.25, 20.125]},
        ]

"""Detector model wiring, the training loss against a straight-line
re-derivation, and the inference path."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lirrdet.autodiff import SGD, Tensor, backward, default_dtype, no_grad, precision
from lirrdet.autodiff.tensor import _op
from lirrdet.detector import (
    IGNORE,
    NEGATIVE,
    Detector,
    LevelSpec,
    MatchResult,
    ModelSpec,
    forward_detect,
    match_anchors,
    save_detections,
)
from lirrdet.detector.loss import detection_loss_terms
from lirrdet.detector.model import anchor_order
from lirrdet.lirr import _risk_sum
from lirrdet.detector.boxes import Detection, decode_boxes
from lirrdet.detector.inference import MAX_DETS, NMS_THR, SCORE_THR

from _box_ref import iou, positive_mask
from _gradcheck import reshape
from _head_ref import concat, flatten_head
from _risk_ref import full_sort_loss_terms
from test_boxes import brute_nms


SMALL_SPEC = ModelSpec(
    image_size=32,
    widths=(8, 16, 24, 32),
    levels=(LevelSpec(8, (10.0, 16.0), (1.0, 2.0, 0.5)), LevelSpec(16, (24.0,), (1.0,))),
)


def small_model(seed=0):
    return Detector(SMALL_SPEC, rng=np.random.default_rng(seed))


def detection_loss(cls_logits, box_offsets, match):
    """One image's loss over (A, K) logits and (A, 4) offsets, as the
    training objective normalizes it."""
    a, k = cls_logits.data.shape
    return _risk_sum(reshape(cls_logits, 1, a, k), reshape(box_offsets, 1, a, 4), [match])[0]


class TestModelWiring:
    def test_head_rows_equal_anchor_count(self):
        m = small_model()
        x = Tensor(np.zeros((1, 2, 32, 32), dtype=np.float32))
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
        # two levels of different per-cell anchor counts and grids: level, row,
        # column, then anchor within the cell
        n, width = 2, 5
        levels = [(3, 2, 4), (2, 3, 1)]  # (per_cell, H, W)
        xs = [np.arange(n * a * width * h * w, dtype=np.float64).reshape(a * width, n, h, w) + 1000 * lv
              for lv, (a, h, w) in enumerate(levels)]
        out = anchor_order([Tensor(x) for x in xs], width).data
        assert out.shape == (n, sum(a * h * w for a, h, w in levels), width)
        start = 0
        for x, (a, h, w) in zip(xs, levels):
            for ni in range(n):
                for i in range(h):
                    for j in range(w):
                        for ai in range(a):
                            for k in range(width):
                                row = start + (i * w + j) * a + ai
                                assert out[ni, row, k] == x[ai * width + k, ni, i, j]
            start += a * h * w

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



def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True) \
        and np.array_equal(np.signbit(x), np.signbit(y))


@st.composite
def head_outputs(draw):
    """1-3 levels of per-level conv outputs (N, per_cell*width, H, W) with
    distinct per-cell counts and heights, and an upstream gradient for the
    (N, A, width) layout; both hold zeros of either sign."""
    n, width = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    per_cell = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k, unique=True))
    heights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k, unique=True))
    widths = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed_zeros(a):
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.2] = -0.0
        return a

    xs = [signed_zeros(rng.normal(size=(n, pc * width, h, w))) for pc, h, w in zip(per_cell, heights, widths)]
    rows = sum(pc * h * w for pc, h, w in zip(per_cell, heights, widths))
    return xs, width, signed_zeros(rng.normal(size=(n, rows, width)))


class TestAnchorOrderMatchesReference:
    """The one-op layout against the reshape/transpose/reshape/concat chain it replaces."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=head_outputs(), dtype=st.sampled_from(["float32", "float64"]))
    def test_forward_and_gradient_bits(self, case, dtype):
        xs0, width, g0 = case

        def reference(ts):
            return concat([flatten_head(t, t.data.shape[1] // width, width) for t in ts], axis=1)

        def swap(a):  # anchor_order reads (F, N, H, W) outputs, the chain (N, F, H, W) ones
            return a.transpose(1, 0, 2, 3)

        with precision(dtype):
            g = g0.astype(dtype)
            got = []
            for layout, edge in ((lambda ts: anchor_order(ts, width), swap), (reference, lambda a: a)):
                leaves = [Tensor(np.ascontiguousarray(edge(x)), requires_grad=True) for x in xs0]
                seen = []  # the gradient each level's producer receives, layout included
                spied = [_op(t.data, (t,), lambda gi: (seen.append(gi) or gi,)) for t in leaves]
                out = layout(spied)
                backward(_op(np.zeros((), dtype), (out,), lambda _: (g,)))
                got.append((out.data, [edge(a) for a in seen[::-1]], [t.grad for t in leaves]))
        (out_a, seen_a, grads_a), (out_b, seen_b, grads_b) = got
        assert same_bits(out_a, out_b)
        for a, b in zip(seen_a, seen_b):  # one memory layout: the strides of every axis longer than 1
            assert same_bits(a, b) and [s for s, d in zip(a.strides, a.shape) if d > 1] \
                == [s for s, d in zip(b.strides, b.shape) if d > 1]
        for a, b in zip(grads_a, grads_b):
            assert same_bits(swap(a), b) and a.flags.c_contiguous and b.flags.c_contiguous


@st.composite
def miner_cases(draw):
    """One sample's (A, K) logits, (A, 4) offsets and match. Logits rounded
    to at most 2 decimals make tied scores common; a positive count up to
    half the anchors puts `take` at or above the negative count, and 0 has
    no positive. Some logits are -inf in the background column (a +inf
    score) or elsewhere, NaN, or every background logit is NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, k = draw(st.integers(1, 60)), draw(st.integers(2, 4))
    scale = draw(st.sampled_from([0.5, 2.0, 50.0]))
    logits = np.round(rng.normal(size=(a, k)) * scale, draw(st.integers(0, 2)))
    npos = draw(st.integers(0, a // 2))
    gt = rng.permutation(np.concatenate([np.zeros(npos, dtype=np.int64),
                                         rng.choice([NEGATIVE, IGNORE], size=a - npos)]))
    kind = draw(st.sampled_from(["finite", "inf", "some_nan", "all_nan"]))
    if kind == "inf":
        logits[rng.random(a) < 0.2, 0] = -np.inf
        logits[rng.random(a) < 0.1, k - 1] = -np.inf
    elif kind == "some_nan":
        logits[rng.random(a) < 0.2, rng.integers(k)] = np.nan
    elif kind == "all_nan":
        logits[:, 0] = np.nan
    pos = gt >= 0
    classes = np.where(pos, rng.integers(1, k, size=a), np.where(gt == NEGATIVE, 0, -1))
    targets = np.where(pos[:, None], rng.normal(scale=1.5, size=(a, 4)), 0.0)
    return logits, rng.normal(scale=1.5, size=(a, 4)), MatchResult(gt, classes, targets, npos)


class TestPartitionMinerMatchesFullSort:
    """The partition miner against one full stable argsort of the negatives."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=miner_cases(), dtype=st.sampled_from(["float32", "float64"]))
    def test_value_parts_and_gradients_bits(self, case, dtype):
        logits, offsets, match = case
        logits, offsets = logits.astype(dtype), offsets.astype(dtype)
        got = []
        with np.errstate(all="ignore"):
            for terms in (detection_loss_terms, full_sort_loss_terms):
                value, c, l, add_grad = terms(logits, offsets, match)
                dlogits, dloc = np.zeros_like(logits), np.zeros_like(offsets)
                add_grad(np.ones_like(value), dlogits, dloc)
                got.append((value, np.float64(c), np.float64(l), dlogits, dloc))
        for x, y in zip(*got):
            assert same_bits(x, y)


FINE, COARSE = SMALL_SPEC.levels


class TestModelSpec:
    @pytest.mark.parametrize("field,value", [
        ("levels", (COARSE, FINE)),  # anchors would no longer line up with head rows
        ("levels", (FINE, COARSE, LevelSpec(32))),
        ("levels", (FINE,)),
        ("widths", (8, 16, 24)), ("widths", (8, 16, 0, 32)),
        ("image_size", 40), ("image_size", 0),
        ("in_channels", 0), ("num_classes", 0),
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
            got = float(detection_loss(Tensor(logits), Tensor(offsets), match).data)
        want = ref_detection_loss(logits, offsets, match)
        assert got == pytest.approx(want, rel=1e-9)

    def test_no_positives_is_mined_background_ce(self):
        logits, offsets, match = self._random_case(99, with_gt=False)
        assert match.num_positive == 0
        with precision("float64"):
            got = float(detection_loss(Tensor(logits), Tensor(offsets), match).data)
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
        loss = float(detection_loss(Tensor(perfect_logits), Tensor(perfect_offsets), match).data)
        assert loss < 1e-3

    def test_loss_is_differentiable(self):
        logits, offsets, match = self._random_case(11)
        tl = Tensor(logits, requires_grad=True)
        to = Tensor(offsets, requires_grad=True)
        backward(detection_loss(tl, to, match))
        assert tl.grad is not None and np.all(np.isfinite(tl.grad))
        assert to.grad is not None and np.all(np.isfinite(to.grad))
        # non-positive anchors contribute no box-offset gradient
        assert np.all(to.grad[~positive_mask(match)] == 0)

    def test_all_ignored_is_tracked_zero(self):
        logits, offsets, _ = self._random_case(13)
        n = len(logits)
        match = MatchResult(np.full(n, IGNORE), np.full(n, -1), np.zeros((n, 4)), 0)
        tl = Tensor(logits, requires_grad=True)
        to = Tensor(offsets, requires_grad=True)
        loss = detection_loss(tl, to, match)
        assert float(loss.data) == 0.0
        backward(loss)
        assert np.array_equal(tl.grad, np.zeros_like(logits))
        assert np.array_equal(to.grad, np.zeros_like(offsets))


def reference_detect(model, image):
    """forward_detect's candidates, through an uncapped brute-force NMS."""
    with no_grad():
        x = Tensor(np.asarray(image, dtype=default_dtype())[None])
        cls, loc = model.predict(model.features(x), "invariant")
    z = cls.data[0].astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    boxes = decode_boxes(loc.data[0], model.anchors, image_size=model.spec.image_size)
    dets = [Detection(tuple(boxes[a].tolist()), c, float(probs[a, c]))
            for c in range(1, probs.shape[1]) for a in range(len(boxes))
            if probs[a, c] >= SCORE_THR]
    return [dets[i] for i in brute_nms(dets, NMS_THR)]


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

    def test_output_feeds_evaluate(self):
        from lirrdet.coco_eval import EvalInput, evaluate
        m = small_model(3)
        img = np.random.default_rng(4).uniform(0, 1, (1, 32, 32)).astype(np.float32)
        dets = forward_detect(m, img)
        assert dets
        gt = {0: [((8.0, 8.0, 20.0, 20.0), 1)]}
        got = evaluate(EvalInput(gt=gt, detections={0: dets}))
        as_tuples = [(d.bbox, d.class_id, d.score) for d in dets]
        assert got == evaluate(EvalInput(gt=gt, detections={0: as_tuples}))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            forward_detect(small_model(), np.zeros((1, 64, 64), dtype=np.float32))

    def test_untrained_64px_matches_uncapped_reference(self):
        # the capped NMS inside forward_detect returns the first MAX_DETS keeps
        # of an uncapped brute-force walk over the same candidates
        spec = ModelSpec(image_size=64)
        rng = np.random.default_rng(9)
        longest = 0
        for k in range(3):
            m = Detector(spec, rng=np.random.default_rng(k))
            img = rng.normal(size=(1, 64, 64)).astype(np.float32)
            kept = reference_detect(m, img)
            longest = max(longest, len(kept))
            assert forward_detect(m, img) == kept[:MAX_DETS]
        assert longest > MAX_DETS, "the cap never bound"

    def test_model_sure_of_background_gives_empty(self):
        # each class logit is its conv's bias, and background's leads by 10:
        # every foreground score is about 5e-5, below SCORE_THR
        m = small_model(5)
        for head in m.invariant_head.heads:
            head.cls.weight.data[...] = 0.0
            head.cls.bias.data[...] = 0.0
            head.cls.bias.data[::m.spec.num_logits] = 10.0
        img = np.zeros((1, 32, 32), dtype=np.float32)
        assert forward_detect(m, img) == []

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
            loss = detection_loss(reshape(cls, len(m.anchors), 2),
                                  reshape(loc, len(m.anchors), 4), match)
            backward(loss)
            opt.step()
        assert float(loss.data) < 1e-3  # saturated-perfect limit
        dets = forward_detect(m, img)
        assert dets, "saturated model produced no detections"
        assert iou(dets[0].bbox, gt[0]) > 0.9


def load_detections(path) -> list:
    """Read a detection dump back as a list of dicts."""
    out = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


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

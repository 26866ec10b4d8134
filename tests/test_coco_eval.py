"""Evaluation metrics against independent reference implementations and
the rank-invariance / envelope properties."""

import numpy as np
import pytest

from lirrdet.coco_eval import (
    IOU_THRESHOLDS,
    RECALL_GRID,
    EvalInput,
    average_precision,
    evaluate,
    match_detections,
    pr_curve,
)

from test_boxes import random_boxes, ref_iou


# --- independent references -------------------------------------------------

def ref_match(dets, gts, thr):
    taken = set()
    flags = [False] * len(dets)
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i][2], i)):
        bbox, cls, _ = dets[i]
        cands = []
        for g, (gbox, gcls) in enumerate(gts):
            if g in taken or gcls != cls:
                continue
            v = ref_iou(bbox, gbox)
            if v >= thr:
                cands.append((v, -g))
        if cands:
            v, negg = max(cands)
            taken.add(-negg)
            flags[i] = True
    return flags


def ref_ap(flags, num_gt):
    # independent algorithm (direct max-scan per grid point); the grid itself
    # is shared contract data, so boundary cases see identical float values
    if num_gt == 0:
        return 0.0 if len(flags) else -1.0
    tp = fp = 0
    points = []
    for f in flags:
        tp += bool(f)
        fp += not f
        points.append((tp / num_gt, tp / (tp + fp)))
    total = 0.0
    for r in RECALL_GRID:
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += best
    return total / 101.0


def ref_evaluate(eval_input, thresholds=IOU_THRESHOLDS):
    classes = sorted({c for g in eval_input.gt.values() for _, c in g}
                     | {c for d in eval_input.detections.values() for _, c, _ in d})
    per_threshold = []
    for thr in thresholds:
        vals = []
        for c in classes:
            num_gt = sum(1 for g in eval_input.gt.values() for _, gc in g if gc == c)
            pooled = []
            for iid in sorted(eval_input.gt):
                dets = [d for d in eval_input.detections.get(iid, []) if d[1] == c]
                gts = [g for g in eval_input.gt[iid] if g[1] == c]
                f = ref_match(dets, gts, thr)
                pooled.extend((dets[j][2], f[j]) for j in range(len(dets)))
            order = sorted(range(len(pooled)), key=lambda i: (-pooled[i][0], i))
            ap = ref_ap([pooled[i][1] for i in order], num_gt)
            if ap >= 0:
                vals.append(ap)
        per_threshold.append(sum(vals) / len(vals) if vals else -1.0)
    return per_threshold


def random_eval_input(rng, num_images=20, num_classes=2, distinct_scores=False):
    gt, dets = {}, {}
    score_pool = iter(rng.permutation(np.linspace(0.01, 0.99, 4000)))
    for iid in range(num_images):
        n = int(rng.integers(0, 4))
        boxes = random_boxes(rng, n, size=64, min_side=6)
        classes = rng.integers(1, num_classes + 1, size=n)
        gt[iid] = [(tuple(b), int(c)) for b, c in zip(boxes, classes)]
        img_dets = []
        for b, c in gt[iid]:
            if rng.uniform() < 0.85:  # jittered near-hit
                jit = np.array(b) + rng.normal(0, 2.0, 4)
                score = next(score_pool) if distinct_scores else float(rng.uniform(0.3, 1))
                img_dets.append((tuple(jit), int(c), score))
        for _ in range(int(rng.integers(0, 3))):  # random false positives
            b = random_boxes(rng, 1, size=64, min_side=4)[0]
            score = next(score_pool) if distinct_scores else float(rng.uniform(0, 0.8))
            img_dets.append((tuple(b), int(rng.integers(1, num_classes + 1)), score))
        dets[iid] = img_dets
    return EvalInput(gt=gt, detections=dets)


def ten_by_ten(rng):
    gts = [(tuple(b), int(rng.integers(1, 3)))
           for b in random_boxes(rng, 10, size=48, min_side=6)]
    dets = [(tuple(b + rng.normal(0, 3, 4)), int(rng.integers(1, 3)),
             float(rng.uniform())) for b, _ in [(np.array(g[0]), g) for g in gts]]
    return dets, gts


def hundred_by_ten(rng):
    """As many detections as the evaluator keeps per image, crowding eight GTs
    of two classes, with quantized scores and one exact IoU tie."""
    base = np.round(random_boxes(rng, 1, size=56, min_side=16)[0])
    boxes = base + rng.integers(-4, 5, size=(8, 4))
    gts = [(tuple(b), int(c)) for b, c in zip(boxes, [1, 2, 1, 2, 1, 1, 1, 1])]
    dets = [(tuple(boxes[g] + rng.integers(-2, 3, 4)), int(rng.integers(1, 3)),
             float(rng.integers(1, 10)) / 10) for g in rng.integers(0, 8, size=98)]
    # an exact IoU tie: the best det is as close to GT 8 as to GT 9, and the
    # next one reaches only GT 9, so only the lowest-index rule matches both
    gts += [((100.0, 100.0, 110.0, 110.0), 1), ((102.0, 100.0, 112.0, 110.0), 1)]
    dets += [((101.0, 100.0, 111.0, 110.0), 1, 1.0), ((104.0, 100.0, 114.0, 110.0), 1, 0.95)]
    return dets, gts


# --- tests -------------------------------------------------------------------

class TestMatchDetections:
    def test_perfect_single(self):
        gts = [((0, 0, 10, 10), 1)]
        dets = [((0, 0, 10, 10), 1, 0.9)]
        assert match_detections(dets, gts, (0.5,))[0].tolist() == [True]

    def test_greedy_consumption(self):
        gts = [((0, 0, 10, 10), 1)]
        dets = [((0, 0, 10, 10), 1, 0.6), ((1, 1, 10, 10), 1, 0.9)]
        flags = match_detections(dets, gts, (0.5,))[0]
        assert flags.tolist() == [False, True]  # higher score matched first

    def test_class_mismatch_is_fp(self):
        gts = [((0, 0, 10, 10), 1)]
        dets = [((0, 0, 10, 10), 2, 0.9)]
        assert match_detections(dets, gts, (0.5,))[0].tolist() == [False]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            match_detections([], [], (0.0,))

    @pytest.mark.parametrize("seed,make", [(s, ten_by_ten) for s in range(10)]
                             + [(10, hundred_by_ten)],
                             ids=[*map(str, range(10)), "100x10"])
    def test_matches_reference_10x10(self, seed, make):
        dets, gts = make(np.random.default_rng(700 + seed))
        got = match_detections(dets, gts, (0.5,))[0]
        want = ref_match(dets, gts, 0.5)
        assert got.tolist() == want


class TestAveragePrecision:
    def test_single_tp(self):
        assert average_precision([True], 1) == 1.0

    def test_no_detections(self):
        assert average_precision([], 3) == 0.0

    def test_sentinel_and_zero_gt(self):
        assert average_precision([], 0) == -1.0
        assert average_precision([True], 0) == 0.0

    def test_tp_fp_tp_against_reference(self):
        flags = [True, False, True]
        got = average_precision(flags, 2)
        want = ref_ap(flags, 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx((51 * 1.0 + 50 * (2 / 3)) / 101, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_flags_against_reference(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(1, 40))
        flags = rng.uniform(size=n) < 0.5
        num_gt = int(flags.sum() + rng.integers(0, 5))
        assert average_precision(flags, num_gt) == pytest.approx(
            ref_ap(flags.tolist(), num_gt), abs=1e-12)

    def test_envelope_non_increasing(self):
        rng = np.random.default_rng(900)
        flags = rng.uniform(size=30) < 0.4
        precision = pr_curve(flags, int(flags.sum()) + 2)
        assert np.all(np.diff(precision) <= 1e-15)


class TestEvaluate:
    def test_perfect_detector(self):
        rng = np.random.default_rng(30)
        gt = {i: [(tuple(b), 1) for b in random_boxes(rng, 2, size=64, min_side=5)]
              for i in range(5)}
        dets = {i: [(b, c, 1.0) for b, c in gt[i]] for i in gt}
        rep = evaluate(EvalInput(gt=gt, detections=dets))
        assert rep.ap == 1.0 and rep.ap50 == 1.0 and rep.ap75 == 1.0

    def test_threshold_grid(self):
        assert len(IOU_THRESHOLDS) == 10
        np.testing.assert_allclose(IOU_THRESHOLDS, 0.5 + 0.05 * np.arange(10), atol=1e-12)

    def test_ap_is_mean_of_per_threshold(self):
        rng = np.random.default_rng(31)
        rep = evaluate(random_eval_input(rng))
        assert rep.ap == pytest.approx(np.mean(rep.per_threshold), abs=1e-9)
        assert rep.ap50 == rep.per_threshold[0]
        assert rep.ap75 == rep.per_threshold[5]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_50_images(self, seed):
        rng = np.random.default_rng(1000 + seed)
        inp = random_eval_input(rng, num_images=50)
        rep = evaluate(inp)
        want = ref_evaluate(inp)
        np.testing.assert_allclose(rep.per_threshold, want, atol=1e-9)

    def test_keeps_top_100_per_image(self):
        # 150 jittered hits on two GTs, scores tied in 29 levels
        rng = np.random.default_rng(38)
        gt = {0: [((10.0, 10.0, 30.0, 30.0), 1), ((30.0, 30.0, 50.0, 44.0), 2)]}
        many = [(tuple(np.array(gt[0][i % 2][0]) + rng.normal(0, 3, 4)), gt[0][i % 2][1],
                 float(rng.integers(1, 30)) / 30) for i in range(150)]
        top = sorted(range(150), key=lambda i: (-many[i][2], i))[:100]
        capped = [many[i] for i in sorted(top)]
        assert (evaluate(EvalInput(gt=gt, detections={0: many})).per_threshold
                == evaluate(EvalInput(gt=gt, detections={0: capped})).per_threshold)
        # a score tie at the cut keeps input order: the 101st detection, a hit, goes
        box, far = (10.0, 10.0, 30.0, 30.0), (40.0, 40.0, 60.0, 60.0)
        dets = [(far, 1, 0.9)] * 100 + [(box, 1, 0.9)]
        assert evaluate(EvalInput(gt={0: [(box, 1)]}, detections={0: dets})).ap == 0.0

    @pytest.mark.parametrize("thr", [0.0, -0.5, 1.01])
    def test_bad_threshold_rejected(self, thr):
        box = (10.0, 10.0, 30.0, 30.0)
        inp = EvalInput(gt={0: [(box, 1)]}, detections={0: [(box, 1, 0.9)]})
        with pytest.raises(ValueError, match="IoU threshold"):
            evaluate(inp, thresholds=(0.5, thr))

    def test_equals_per_threshold_matching_bit_for_bit(self):
        # evaluate matches each image once at every threshold; matching each
        # (image, class) at one threshold at a time and pooling gives the same bits
        inp = random_eval_input(np.random.default_rng(39), num_images=30, num_classes=3)
        classes = sorted({c for gts in inp.gt.values() for _, c in gts}
                         | {c for dets in inp.detections.values() for _, c, _ in dets})
        want = []
        for thr in IOU_THRESHOLDS:
            aps = []
            for c in classes:
                scores, flags = [], []
                for iid in sorted(inp.gt):
                    dets = [d for d in inp.detections.get(iid, []) if d[1] == c]
                    scores += [d[2] for d in dets]
                    flags.append(match_detections(dets, [g for g in inp.gt[iid] if g[1] == c], (thr,))[0])
                pooled = np.concatenate(flags)[np.argsort(np.negative(scores), kind="stable")]
                aps.append(average_precision(pooled, sum(g[1] == c for gts in inp.gt.values()
                                                         for g in gts)))
            valid = [a for a in aps if a >= 0.0]
            want.append(float(np.mean(valid)) if valid else -1.0)
        assert evaluate(inp).per_threshold == want

    def test_detections_on_unlisted_image_rejected(self):
        box = (10.0, 10.0, 30.0, 30.0)
        gt = {1: [(box, 1)]}
        assert evaluate(EvalInput(gt=gt, detections={1: [(box, 1, 0.9)]})).ap == 1.0
        false_pos = [((0.0, 0.0, 8.0, 8.0 + k), 1, 0.99) for k in range(5)]
        with pytest.raises(ValueError, match="image id 2"):
            evaluate(EvalInput(gt=gt, detections={1: [(box, 1, 0.9)], 2: false_pos}))


class TestEvaluateProperties:
    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(33)
        inp = random_eval_input(rng, distinct_scores=True)
        base = evaluate(inp)
        for f in (lambda s: s ** 3, lambda s: 2 * s + 1, lambda s: np.tanh(s)):
            mapped = EvalInput(
                gt=inp.gt,
                detections={iid: [(b, c, float(f(s))) for b, c, s in d]
                            for iid, d in inp.detections.items()})
            assert evaluate(mapped).per_threshold == base.per_threshold

    def test_duplicate_tp_never_increases_ap(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            inp = random_eval_input(rng, distinct_scores=True)
            base = evaluate(inp)
            iid = next(i for i in inp.detections if inp.detections[i])
            b, c, s = inp.detections[iid][0]
            dup = {k: list(v) for k, v in inp.detections.items()}
            dup[iid].append((b, c, s * 0.5))
            worse = evaluate(EvalInput(gt=inp.gt, detections=dup))
            assert all(w <= b_ + 1e-12 for w, b_ in
                       zip(worse.per_threshold, base.per_threshold))

    def test_removing_fps_never_decreases_ap(self):
        rng = np.random.default_rng(35)
        inp = random_eval_input(rng)
        base = evaluate(inp)
        for k, thr in enumerate(IOU_THRESHOLDS):
            cleaned = {}
            for iid, dets in inp.detections.items():
                flags = match_detections(dets, inp.gt[iid], (thr,))[0]
                cleaned[iid] = [d for d, f in zip(dets, flags) if f]
            rep = evaluate(EvalInput(gt=inp.gt, detections=cleaned), thresholds=(thr,))
            assert rep.per_threshold[0] >= base.per_threshold[k] - 1e-12

    def test_image_order_invariance(self):
        rng = np.random.default_rng(36)
        inp = random_eval_input(rng, distinct_scores=True)
        ids = list(inp.gt)
        rng.shuffle(ids)
        shuffled = EvalInput(gt={i: inp.gt[i] for i in ids},
                             detections={i: inp.detections[i] for i in ids})
        assert evaluate(shuffled).per_threshold == evaluate(inp).per_threshold

    def test_detection_order_invariance_distinct_scores(self):
        rng = np.random.default_rng(37)
        inp = random_eval_input(rng, distinct_scores=True)
        shuffled = {iid: [d[i] for i in rng.permutation(len(d))]
                    for iid, d in ((iid, list(d)) for iid, d in inp.detections.items())}
        assert evaluate(EvalInput(gt=inp.gt, detections=shuffled)).per_threshold \
            == evaluate(inp).per_threshold

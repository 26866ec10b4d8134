"""Acceptance gate: one test per release criterion, run at stated tolerance,
plus a check that criterion 1 has a case for every op in the package.

Each test prints a single PASS/FAIL verdict line to the real stdout so the
outcome is visible even under pytest capture. Reference computations here
are independent re-implementations, not calls back into the library.
"""

import ast
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lirrdet.autodiff.tensor
from lirrdet.autodiff import (SGD, Conv2d, Tensor, load_checkpoint, no_grad,
                              precision, save_checkpoint)
from lirrdet.autodiff.functional import conv2d, grad_reverse
from lirrdet.cli import main
from lirrdet.coco_eval import (EvalInput, RECALL_GRID, average_precision,
                               evaluate, match_detections)
from lirrdet.detector.anchors import generate_anchors
from lirrdet.detector.boxes import Detection, decode_boxes, encode_boxes
from lirrdet.detector.matching import IGNORE, NEGATIVE, MatchResult, match_anchors
from lirrdet.detector.model import Detector, ModelSpec, anchor_order
from lirrdet.lirr import DomainClassifier, DomainLabel, LirrConfig, _risk_sum, rep_loss, train_step
from lirrdet.pipeline import ExperimentConfig, run_experiment, evaluate_checkpoint
from lirrdet.synthgen import (BenchmarkConfig, SceneSpec, make_benchmark,
                              render_scene, render_scene_parts, save_dataset,
                              SOURCE_DOMAIN, TARGET_DOMAIN)

from _box_ref import iou
from _gradcheck import dot as dot_with, reshape
from _layout_ref import swap_nc
from _rep_ref import Linear, binary_cross_entropy_logit, global_avg_pool, matmul
from _risk_ref import gather_rows, smooth_l1, softmax_cross_entropy
from test_boxes import nms_dets


VERDICTS: list = []


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"acceptance {num} [{name}]: {tag}  {detail}".rstrip()
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------- criterion 1

FD_H = 1e-5
FD_TOL = 1e-6
FD_SEEDS = 20


def fd_check(build, x0: np.ndarray) -> float:
    """Max relative error between backward() and central differences."""
    x = Tensor(x0.copy(), requires_grad=True)
    build(x).backward()
    analytic = x.grad.copy()

    flat = x0.ravel()
    fd = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            for sign in (+1.0, -1.0):
                bumped = flat.copy()
                bumped[i] += sign * FD_H
                val = float(build(Tensor(bumped.reshape(x0.shape))).data)
                fd[i] += sign * val / (2.0 * FD_H)
    fd = fd.reshape(x0.shape)
    return float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(fd), 1.0)))


def _signed(rng, shape, lo=0.2, hi=1.5):
    # magnitudes bounded away from zero keep relu off its kink
    return (rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape))


def op_cases(rng):
    """(name, x0, build) triples; every differentiable op in the library."""
    c34 = rng.normal(size=(3, 4))
    c45 = rng.normal(size=(4, 5))
    proj = {}

    def p(shape):  # fixed projection makes any output a scalar
        if shape not in proj:
            proj[shape] = rng.normal(size=shape)
        return proj[shape]

    def dot(t):
        return dot_with(t, p(t.data.shape))

    x34 = rng.normal(size=(3, 4))
    ximg = rng.normal(size=(2, 2, 6, 6))
    w_conv = rng.normal(size=(3, 2, 3, 3)) * 0.5
    b_conv = rng.normal(size=(3,))
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    # residuals away from the smooth-l1 kink at |e| = 1
    sl_x = rng.normal(size=(5, 4))
    sl_delta = np.where(rng.random((5, 4)) < 0.5,
                        rng.uniform(-0.7, 0.7, (5, 4)),
                        _signed(rng, (5, 4), 1.3, 2.0))
    # a (2, 8) batch: 1 positive and 3 negatives, then 2 positives and 4
    # negatives, every negative mined (3 <= 3 * 1, 4 <= 3 * 2), so no step
    # changes the sampled sets; the positives' residuals stay away from the
    # smooth-l1 kink
    dl_cls = rng.normal(size=(2, 8, 3))
    dl_loc = rng.normal(size=(2, 8, 4))
    dl_matches = []
    for b, gt in enumerate(([NEGATIVE, 0, NEGATIVE, IGNORE, IGNORE, NEGATIVE, IGNORE, IGNORE],
                            [0, NEGATIVE, IGNORE, 1, NEGATIVE, NEGATIVE, IGNORE, NEGATIVE])):
        gt = np.array(gt)
        pos = np.flatnonzero(gt >= 0)
        targets = np.zeros((8, 4))
        targets[pos] = dl_loc[b, pos] - np.where(rng.random((len(pos), 4)) < 0.5,
                                                 rng.uniform(-0.7, 0.7, (len(pos), 4)),
                                                 _signed(rng, (len(pos), 4), 1.3, 2.0))
        classes = np.where(gt >= 0, rng.integers(1, 3, size=8), np.where(gt == NEGATIVE, 0, -1))
        dl_matches.append(MatchResult(gt, classes, targets, len(pos)))
    # two levels of channel-major head outputs (per_cell * 3, N, H, W): 2 anchors
    # per cell on a 2x3 grid, 1 anchor per cell on a 1x2 grid
    head0 = rng.normal(size=(6, 2, 2, 3))
    head1 = rng.normal(size=(3, 2, 1, 2))

    cases = [
        ("add", x34, lambda x: dot(x + Tensor(c34))),
        ("mul_scalar", x34, lambda x: dot(x * 2.5)),
        ("matmul_lhs", x34, lambda x: dot(matmul(x, Tensor(c45)))),
        ("matmul_rhs", c45.copy(), lambda x: dot(matmul(Tensor(x34), x))),
        ("relu", _signed(rng, (3, 4)), lambda x: dot(x.relu())),
        ("reshape", x34, lambda x: dot(reshape(x, 2, 6))),
        ("conv2d_x", ximg,
         lambda x: dot(conv2d(x, Tensor(w_conv), Tensor(b_conv), stride=1, padding=1))),
        ("conv2d_w", w_conv.copy(),
         lambda w: dot(conv2d(Tensor(ximg), w, Tensor(b_conv), stride=2, padding=1))),
        ("conv2d_b", b_conv.copy(),
         lambda b: dot(conv2d(Tensor(ximg), Tensor(w_conv), b, stride=1, padding=0))),
        ("softmax_ce_sum", logits,
         lambda z: softmax_cross_entropy(z, labels)),
        ("smooth_l1", sl_x,
         lambda x: smooth_l1(x, sl_x - sl_delta)),
        ("gather_rows", rng.normal(size=(6, 4)),
         lambda x: dot(gather_rows(x, np.array([0, 2, 2, 5])))),
        ("anchor_order_level0", head0,
         lambda x: dot(anchor_order([x, Tensor(head1)], 3))),
        ("anchor_order_level1", head1,
         lambda x: dot(anchor_order([Tensor(head0), x], 3))),
        ("detection_loss_cls", dl_cls, lambda z: _risk_sum(z, Tensor(dl_loc), dl_matches)[0]),
        ("detection_loss_loc", dl_loc, lambda x: _risk_sum(Tensor(dl_cls), x, dl_matches)[0]),
    ]
    # the alignment term's cross entropy, rep_loss, on maps of unequal batch
    # and spatial sizes, one case per input; a map under test passes
    # grad_reverse(., 1.0), which cancels the op's own reversal
    clf = DomainClassifier(3, rng=rng)
    inputs = [rng.normal(size=(3, 2, 2, 3)), rng.normal(size=(3, 3, 1, 2))] \
        + [p.data.copy() for p in (clf.fc1.weight, clf.fc1.bias, clf.fc2.weight, clf.fc2.bias)]

    def rep_loss_of(i):
        def build(x):
            t = [Tensor(a) for a in inputs]
            t[i] = grad_reverse(x, 1.0) if i < 2 else x
            fc1, fc2 = SimpleNamespace(weight=t[2], bias=t[3]), SimpleNamespace(weight=t[4], bias=t[5])
            return rep_loss(t[0], t[1], SimpleNamespace(fc1=fc1, fc2=fc2), 1.0)
        return build

    names = ("src", "tgt", "fc1_weight", "fc1_bias", "fc2_weight", "fc2_bias")
    cases += [(f"rep_loss_{name}", inputs[i], rep_loss_of(i)) for i, name in enumerate(names)]
    return cases


class ComposedModel:
    """Two strided convs, pooling, and a linear head into cross entropy."""

    def __init__(self, rng):
        self.conv1 = Conv2d(1, 3, 3, stride=2, padding=1, rng=rng)
        self.conv2 = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        self.fc = Linear(4, 3, rng=rng)

    def params(self):
        return (list(self.conv1.parameters()) + list(self.conv2.parameters())
                + list(self.fc.parameters()))

    def loss(self, x, labels):
        h = self.conv1(x).relu()
        h = self.conv2(h).relu()
        return softmax_cross_entropy(self.fc(global_avg_pool(swap_nc(h))), labels)


def test_criterion_1_finite_difference_gradients():
    t0 = time.perf_counter()
    worst = {}
    with precision("float64"):
        for seed in range(FD_SEEDS):
            rng = np.random.default_rng(1000 + seed)
            for name, x0, build in op_cases(rng):
                err = fd_check(build, np.asarray(x0, dtype=np.float64))
                worst[name] = max(worst.get(name, 0.0), err)

        for seed in range(FD_SEEDS):
            rng = np.random.default_rng(2000 + seed)
            model = ComposedModel(rng)
            labels = rng.integers(0, 3, size=2)
            x0 = rng.normal(size=(1, 2, 8, 8))

            x = Tensor(x0.copy(), requires_grad=True)
            model.loss(x, labels).backward()
            grads = [x.grad.copy()] + [p.grad.copy() for p in model.params()]

            err = 0.0
            leaves = [x] + model.params()

            def full_loss():
                with no_grad():
                    return float(model.loss(Tensor(x.data), labels).data)
            for leaf, g in zip(leaves, grads):
                flat = leaf.data.ravel()
                gflat = g.ravel()
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + FD_H
                    up = full_loss()
                    flat[i] = saved - FD_H
                    down = full_loss()
                    flat[i] = saved
                    fd = (up - down) / (2.0 * FD_H)
                    err = max(err, abs(gflat[i] - fd) / max(abs(fd), 1.0))
            worst["composed_model"] = max(worst.get("composed_model", 0.0), err)

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak < FD_TOL and elapsed < 60.0
    verdict(1, "finite-difference gradients", ok,
            f"max rel err {peak:.2e} over {len(worst)} op kinds x {FD_SEEDS} seeds, "
            f"{elapsed:.1f}s")
    assert ok, (worst, elapsed)



def _op_functions():
    """(file, function name, first line) of each function in the package whose
    own body calls the tape's `_op`."""
    found = set()
    for path in sorted(Path(lirrdet.__file__).resolve().parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            todo, calls = list(node.body), False
            while todo and not calls:  # the body, minus nested functions and classes
                child = todo.pop()
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                calls = isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "_op"
                todo.extend(ast.iter_child_nodes(child))
            if calls:
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                found.add((str(path), node.name, first))
    return found


def _record_op_callers(monkeypatch):
    """Patch each package module's `_op` to add its caller, as (file,
    function name, first line), to the returned set."""
    real_op, reached = lirrdet.autodiff.tensor._op, set()

    def recording_op(*args):
        code = sys._getframe(1).f_code
        reached.add((str(Path(code.co_filename).resolve()), code.co_name, code.co_firstlineno))
        return real_op(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("lirrdet") and getattr(module, "_op", None) is real_op:
            monkeypatch.setattr(module, "_op", recording_op)
    return reached


def test_criterion_1_has_a_case_for_every_op(monkeypatch):
    # every function that records an op must be reached by some op_cases build,
    # so a new op cannot land without a finite-difference case
    reached = _record_op_callers(monkeypatch)
    wanted = _op_functions()
    with precision("float64"):
        for _, x0, build in op_cases(np.random.default_rng(0)):
            build(Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True))
    # grad_reverse's backward is not the derivative of its forward on purpose;
    # criterion 2 checks it against the plain gradient instead
    wanted = {f for f in wanted if f[1] != "grad_reverse"}
    # the scan must at least find the ops the package is known to record
    assert {f[1] for f in wanted} >= {"__add__", "__mul__", "relu", "conv2d", "anchor_order",
                                       "_risk_sum", "rep_loss"}, wanted
    assert wanted <= reached, f"ops with no criterion-1 case: {sorted(wanted - reached)}"


def test_package_records_only_the_ops_of_an_sda_step(monkeypatch):
    # an op that no training step records belongs with the tests' references
    # (`matmul`, `reshape`), not in the package
    reached = _record_op_callers(monkeypatch)
    src, tgt = _toy_batches()
    rng = np.random.default_rng(0)
    model = Detector(ModelSpec(image_size=16, widths=(4, 8, 12, 16)), rng=rng)
    clf = DomainClassifier(16, rng=rng)
    opt = SGD(list(model.parameters()) + list(clf.parameters()), lr=0.001)
    train_step(src, tgt, model, clf, opt, LirrConfig(lambda_rep=0.3, lambda_risk=0.7))
    found = _op_functions()
    assert found == reached, ("ops the step does not record: "
                              f"{sorted(f[1] for f in found - reached)}")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_reversal_pairing():
    worst = 0.0
    with precision("float64"):
        for lam in (1.0, 0.7, 0.25):
            rng = np.random.default_rng(7)
            x = rng.normal(size=(4, 5))
            targets = rng.integers(0, 2, size=(4,)).astype(float)

            def grads(with_reversal: bool):
                r = np.random.default_rng(99)
                backbone = Linear(5, 6, rng=r)
                head = Linear(6, 1, rng=r)
                feats = backbone(Tensor(x)).relu()
                if with_reversal:
                    feats = grad_reverse(feats, lam)
                loss = binary_cross_entropy_logit(
                    reshape(head(feats), 4), targets)
                loss.backward()
                return [p.grad.copy() for p in backbone.parameters()]

            for ga, gb in zip(grads(True), grads(False)):
                worst = max(worst, float(np.max(np.abs(ga + lam * gb))))
    ok = worst <= 1e-12
    verdict(2, "gradient reversal pairing", ok, f"max |g_rev + lam*g_plain| {worst:.2e}")
    assert ok, worst


# ---------------------------------------------------------------- criterion 3

def _toy_batches(n=2, size=16):
    spec = SceneSpec(size=size, seed=5)
    src = [render_scene(spec, SOURCE_DOMAIN, i, domain=DomainLabel.SOURCE)
           for i in range(n)]
    tgt = [render_scene(spec, TARGET_DOMAIN, 100 + i, domain=DomainLabel.TARGET)
           for i in range(n)]
    return src, tgt


def test_criterion_3_breakdown_identities_and_reduced_objective():
    steps = 500
    src, tgt = _toy_batches()
    lam_rep, lam_risk = 0.3, 0.7
    with precision("float64"):
        rng = np.random.default_rng(11)
        spec = ModelSpec(image_size=16, widths=(4, 8, 12, 16))
        model = Detector(spec, rng=rng)
        clf = DomainClassifier(16, rng=rng)
        opt = SGD(list(model.parameters()) + list(clf.parameters()),
                  lr=0.002, momentum=0.5)
        cfg = LirrConfig(lambda_rep=lam_rep, lambda_risk=lam_risk)
        worst = 0.0
        for _ in range(steps):
            bd = train_step(src, tgt, model, clf, opt, cfg)
            worst = max(worst,
                        abs(bd.l_total - (bd.l_risk + lam_rep * bd.l_rep)),
                        abs(bd.l_risk - ((1 + lam_risk) * bd.l_i - lam_risk * bd.l_d)))
        identities_ok = worst < 1e-6

        # zero-weight run against an independently coded supervised loop
        from _risk_ref import detection_loss_terms, gather_rows as gr
        from lirrdet.detector.matching import match_anchors as match

        def manual_supervised_loss(batches, model):
            n = sum(len(b) for b in batches)
            batch_sums = []
            for batch in batches:
                x = Tensor(np.stack([np.asarray(s.image, dtype=np.float64)
                                     for s in batch], axis=1))
                feats = model.features(x)
                cls, loc = model.predict(feats, "invariant")
                b, a, k = cls.data.shape
                cls2 = reshape(cls, b * a, k)
                loc2 = reshape(loc, b * a, 4)
                total = None
                for j, s in enumerate(batch):
                    m = match(np.asarray(s.gt_boxes, dtype=np.float64),
                              np.asarray(s.gt_classes, dtype=np.int64),
                              model.anchors)
                    rows = np.arange(j * a, (j + 1) * a)
                    ct, lt, npos = detection_loss_terms(gr(cls2, rows),
                                                        gr(loc2, rows), m)
                    term = (ct if lt is None else ct + lt) * (1.0 / max(npos, 1))
                    total = term if total is None else total + term
                batch_sums.append(total)
            return (batch_sums[0] + batch_sums[1]) * (1.0 / n)

        def fresh():
            r = np.random.default_rng(13)
            m = Detector(spec, rng=r)
            c = DomainClassifier(16, rng=r)
            return m, c

        model_a, clf_a = fresh()
        opt_a = SGD(list(model_a.parameters()) + list(clf_a.parameters()),
                    lr=0.002, momentum=0.5)
        zero = LirrConfig(lambda_rep=0.0, lambda_risk=0.0)
        model_b, _ = fresh()
        opt_b = SGD(list(model_b.parameters()), lr=0.002, momentum=0.5)

        identical = True
        for _ in range(steps):
            bd = train_step(src, tgt, model_a, clf_a, opt_a, zero)
            opt_b.zero_grad()
            loss = manual_supervised_loss([src, tgt], model_b)
            loss.backward()
            opt_b.step()
            if bd.l_total != float(loss.data):
                identical = False
                break
        if identical:
            pa = dict(model_a.named_parameters())
            pb = dict(model_b.named_parameters())
            identical = all(np.array_equal(pa[k].data, pb[k].data) for k in pa)

    ok = identities_ok and identical
    verdict(3, "loss breakdown identities / reduced objective", ok,
            f"max identity residual {worst:.2e} over {steps} steps; "
            f"zero-weight run step-identical: {identical}")
    assert ok


# ---------------------------------------------------------------- criterion 4

def ref_match_anchors(gt_boxes, gt_classes, anchors):
    """Direct transcription of the assignment rules, all-python loops."""
    A = len(anchors)
    G = len(gt_boxes)
    gt_index = np.full(A, NEGATIVE, dtype=np.int64)
    if G == 0:
        return gt_index
    forced = set()
    for g in range(G):
        best_a, best = 0, -1.0
        for a in range(A):
            v = iou(anchors[a], gt_boxes[g])
            if v > best:
                best, best_a = v, a
        if best_a not in forced:
            gt_index[best_a] = g
            forced.add(best_a)
    for a in range(A):
        if a in forced:
            continue
        best_g, best = 0, -1.0
        for g in range(G):
            v = iou(anchors[a], gt_boxes[g])
            if v > best:
                best, best_g = v, g
        if best >= 0.5:
            gt_index[a] = best_g
        elif best < 0.4:
            gt_index[a] = NEGATIVE
        else:
            gt_index[a] = IGNORE
    return gt_index


def ref_nms(dets, thr):
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    kept, out = [], []
    for i in order:
        if any(dets[k].class_id == dets[i].class_id
               and iou(dets[k].bbox, dets[i].bbox) > thr for k in kept):
            continue
        kept.append(i)
    for i in order:
        if i in kept:
            out.append(dets[i])
    return out


def ref_match_detections(dets, gts, thr):
    flags = [False] * len(dets)
    used = [False] * len(gts)
    for i in sorted(range(len(dets)), key=lambda i: (-dets[i][2], i)):
        best_g, best = -1, 0.0
        for g, (gbox, gcls) in enumerate(gts):
            if used[g] or gcls != dets[i][1]:
                continue
            v = iou(dets[i][0], gbox)
            if v >= thr and v > best:
                best, best_g = v, g
        if best_g >= 0:
            used[best_g] = True
            flags[i] = True
    return np.array(flags, dtype=bool)


def ref_average_precision(flags, num_gt):
    if num_gt == 0:
        return 0.0 if len(flags) else -1.0
    if not len(flags):
        return 0.0
    total = 0.0
    for r in RECALL_GRID:
        best = 0.0
        tp = fp = 0
        for f in flags:
            tp += bool(f)
            fp += not f
            if tp / num_gt >= r:
                best = max(best, tp / (tp + fp))
        total += best
    return total / len(RECALL_GRID)


def _rand_box(rng, size=64.0, min_side=2.0):
    x0 = rng.uniform(0, size - min_side)
    y0 = rng.uniform(0, size - min_side)
    return (x0, y0, x0 + rng.uniform(min_side, size - x0),
            y0 + rng.uniform(min_side, size - y0))


def ref_evaluate(gt, detections, thresholds):
    """Pooled multi-image AP from the reference matcher and AP alone."""
    classes = sorted({c for g in gt.values() for _, c in g}
                     | {c for d in detections.values() for _, c, _ in d})
    per_threshold = []
    for thr in thresholds:
        per_class = []
        for c in classes:
            pool = []
            for iid in sorted(gt):
                dets = [d for d in detections.get(iid, []) if d[1] == c]
                gts = [g for g in gt[iid] if g[1] == c]
                flags = ref_match_detections(dets, gts, thr)
                pool.extend((d[2], bool(f)) for d, f in zip(dets, flags))
            order = sorted(range(len(pool)), key=lambda i: (-pool[i][0], i))
            flags = [pool[i][1] for i in order]
            num_gt = sum(1 for g in gt.values() for _, gc in g if gc == c)
            per_class.append(ref_average_precision(flags, num_gt))
        valid = [a for a in per_class if a >= 0.0]
        per_threshold.append(float(np.mean(valid)) if valid else -1.0)
    return float(np.mean(per_threshold)), per_threshold[0], per_threshold[5]


def test_criterion_4_reference_agreement():
    t0 = time.perf_counter()
    anchors = generate_anchors(32, ModelSpec().levels)
    n_match = n_nms = n_det = n_ap = 0

    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        g = rng.integers(1, 5)
        gt_boxes = np.array([_rand_box(rng, 32.0) for _ in range(g)])
        gt_classes = rng.integers(1, 3, size=g)
        got = match_anchors(gt_boxes, gt_classes, anchors)
        np.testing.assert_array_equal(got.gt_index,
                                      ref_match_anchors(gt_boxes, gt_classes, anchors))
        n_match += 1

    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        # quantized scores force ties; exact order must still agree
        dets = [Detection(_rand_box(rng), int(rng.integers(1, 3)),
                          float(rng.integers(1, 10)) / 10.0)
                for _ in range(rng.integers(0, 30))]
        thr = float(rng.uniform(0.2, 0.7))
        assert nms_dets(dets, thr) == ref_nms(dets, thr)
        n_nms += 1

    worst_ap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        gts = [(_rand_box(rng), int(rng.integers(1, 3)))
               for _ in range(rng.integers(0, 5))]
        dets = [(_rand_box(rng), int(rng.integers(1, 3)),
                 float(rng.integers(1, 10)) / 10.0)
                for _ in range(rng.integers(0, 12))]
        thr = float(rng.uniform(0.3, 0.8))
        np.testing.assert_array_equal(match_detections(dets, gts, (thr,))[0],
                                      ref_match_detections(dets, gts, thr))
        n_det += 1

        flags = rng.random(rng.integers(0, 25)) < 0.5
        num_gt = int(rng.integers(0, 12))
        worst_ap = max(worst_ap, abs(average_precision(flags, num_gt)
                                     - ref_average_precision(flags, num_gt)))
        n_ap += 1

    n_eval = 0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        gt, dets = {}, {}
        for iid in range(rng.integers(1, 4)):
            gt[iid] = [(_rand_box(rng), int(rng.integers(1, 3)))
                       for _ in range(rng.integers(0, 4))]
            dets[iid] = [(_rand_box(rng), int(rng.integers(1, 3)),
                          float(rng.integers(1, 10)) / 10.0)
                         for _ in range(rng.integers(0, 10))]
        if not any(gt.values()) and not any(dets.values()):
            continue
        got = evaluate(EvalInput(gt=gt, detections=dets))
        ref_ap, ref_50, ref_75 = ref_evaluate(gt, dets, got.thresholds)
        worst_ap = max(worst_ap, abs(got.ap - ref_ap), abs(got.ap50 - ref_50),
                       abs(got.ap75 - ref_75))
        n_eval += 1

    elapsed = time.perf_counter() - t0
    ok = worst_ap < 1e-9 and elapsed < 60.0
    verdict(4, "matching/NMS/AP vs brute force", ok,
            f"{n_match}+{n_nms}+{n_det}+{n_ap}+{n_eval} instances, "
            f"max AP diff {worst_ap:.1e}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_encode_decode_round_trip():
    rng = np.random.default_rng(77)
    gt = np.array([_rand_box(rng) for _ in range(1000)])
    anchors = np.array([_rand_box(rng) for _ in range(1000)])
    err = float(np.max(np.abs(decode_boxes(encode_boxes(gt, anchors), anchors) - gt)))
    ok = err < 1e-5
    verdict(5, "box encode/decode round trip", ok,
            f"max coordinate error {err:.2e} over 1000 pairs")
    assert ok, err


# ---------------------------------------------------------------- criterion 6

PROTOCOL_STEPS = 1000


def _protocol_runs(bench_dir, out_root, seed):
    base = dict(source_path=str(bench_dir / "source_train.bin"),
                target_train_path=str(bench_dir / "target_train_full.bin"),
                target_test_path=str(bench_dir / "target_test.bin"),
                steps=PROTOCOL_STEPS, eval_cadence=PROTOCOL_STEPS, seed=seed)
    out = {}
    for name, kw in (("SourceOnly", dict(mode="SourceOnly")),
                     ("Oracle-50", dict(mode="Oracle", label_budget=50)),
                     ("Oracle-100", dict(mode="Oracle", label_budget=100)),
                     ("SDA-50", dict(mode="SDA", label_budget=50))):
        cfg = ExperimentConfig(**{**base, **kw,
                                  "out_dir": str(out_root / f"{name}-{seed}")})
        out[name] = run_experiment(cfg).final["ap"]
    return out


def test_criterion_6_adaptation_protocol(tmp_path):
    t0 = time.perf_counter()
    bench = tmp_path / "bench"
    splits = make_benchmark(BenchmarkConfig())
    for name, samples in (("source_train.bin", splits.source_train),
                          ("target_train_full.bin", splits.target_train_full),
                          ("target_test.bin", splits.target_test)):
        bench.mkdir(exist_ok=True)
        save_dataset(samples, bench / name)

    passes = 0
    details = []
    for seed in (42, 43, 44):
        ap = _protocol_runs(bench, tmp_path, seed)
        gap = ap["SourceOnly"] <= ap["Oracle-100"] - 0.15
        lift = ap["SDA-50"] >= ap["SourceOnly"] + 0.10
        beats = ap["SDA-50"] >= ap["Oracle-50"]
        passed = gap and lift and beats
        passes += passed
        details.append(f"seed {seed}: src={ap['SourceOnly']:.3f} "
                       f"o50={ap['Oracle-50']:.3f} o100={ap['Oracle-100']:.3f} "
                       f"sda50={ap['SDA-50']:.3f} -> {'pass' if passed else 'fail'}")
        print(f"  {details[-1]}", file=sys.__stdout__, flush=True)
        if passes >= 2:
            break

    elapsed = time.perf_counter() - t0
    ok = passes >= 2 and elapsed < 900.0
    verdict(6, "adaptation protocol ordering", ok,
            f"{passes} passing seeds, {elapsed:.0f}s")
    VERDICTS.extend(f"    {d}" for d in details)
    assert ok, (details, elapsed)


# ---------------------------------------------------------------- criterion 7

@pytest.fixture(scope="module")
def mini_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_bench")
    cfg = BenchmarkConfig(scene=SceneSpec(size=32, seed=3), source_count=10,
                          target_train_small=4, target_train_full=6,
                          target_test_count=6)
    splits = make_benchmark(cfg)
    for name, samples in (("source_train.bin", splits.source_train),
                          ("target_train_full.bin", splits.target_train_full),
                          ("target_test.bin", splits.target_test)):
        save_dataset(samples, out / name)
    return out


def test_criterion_7_deterministic_runs_and_idempotent_eval(mini_bench, tmp_path):
    cfg = {"mode": "SDA", "source_path": str(mini_bench / "source_train.bin"),
           "target_train_path": str(mini_bench / "target_train_full.bin"),
           "target_test_path": str(mini_bench / "target_test.bin"),
           "label_budget": 4, "image_size": 32, "widths": [8, 16, 24, 32],
           "batch_size": 2, "steps": 6, "eval_cadence": 3, "seed": 21,
           "out_dir": ""}
    reports = []
    for name in ("a", "b"):
        cfg["out_dir"] = str(tmp_path / name)
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p)]) == 0
        reports.append(json.loads((tmp_path / name / "run_report.json").read_text()))

    a, b = reports
    same_metrics = (a["eval_series"] == b["eval_series"] and a["final"] == b["final"]
                    and a["counters"] == b["counters"])

    econf = ExperimentConfig.from_dict(a["config"])
    ap, _ = evaluate_checkpoint(econf)
    eval_matches = ap.to_dict() == a["final"]

    ok = same_metrics and eval_matches
    verdict(7, "bit-identical reruns / idempotent eval", ok,
            f"metrics identical: {same_metrics}, eval reproduces final: {eval_matches}")
    assert ok


# ---------------------------------------------------------------- criterion 8

def _scan_box(parts):
    mask = np.abs(parts.prenoise - parts.background) > 1e-3
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return (float(cols[0]), float(rows[0]), float(cols[-1] + 1), float(rows[-1] + 1))


def test_criterion_8_checkpoint_bitwise_and_gt_scan(tmp_path):
    rng = np.random.default_rng(17)
    spec = ModelSpec(image_size=32, widths=(8, 16, 24, 32))
    model = Detector(spec, rng=rng)
    state = {k: p.data for k, p in dict(model.named_parameters()).items()}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    bitwise = (set(loaded) == set(state)
               and all(loaded[k].tobytes() == state[k].tobytes()
                       and loaded[k].dtype == state[k].dtype
                       and loaded[k].shape == state[k].shape for k in state))

    scene = SceneSpec(seed=0)
    worst_iou = 1.0
    for i in range(500):
        for params, base in ((SOURCE_DOMAIN, 0), (TARGET_DOMAIN, 50000)):
            parts = render_scene_parts(scene, params, base + i)
            v = iou(_scan_box(parts), tuple(parts.sample.gt_boxes[0]))
            worst_iou = min(worst_iou, v)

    ok = bitwise and worst_iou >= 0.9
    verdict(8, "checkpoint round trip / GT vs pixel scan", ok,
            f"bitwise: {bitwise}, min IoU {worst_iou:.3f} over 1000 scenes")
    assert ok

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from types import SimpleNamespace

from lirrdet import lirr
from lirrdet.autodiff import (
    SGD,
    Parameter,
    conv2d,
    ShapeError,
    Tensor,
    backward,
    grad_reverse,
    no_grad,
    precision,
)
from lirrdet.detector import IGNORE, NEGATIVE, MatchResult, match_anchors
from lirrdet.detector.loss import detection_loss_terms
from lirrdet.detector import model as detector_model
from lirrdet.detector.model import HEAD_STRIDES, Detector, HeadSet, ModelSpec, anchor_order
from lirrdet.lirr import (
    _matches,
    _objective,
    _risk_sum,
    _stack_images,
    DomainClassifier,
    DomainLabel,
    LirrConfig,
    LossBreakdown,
    invariant_risk,
    rep_loss,
    train_step,
)

import _layout_ref
from _gradcheck import dot, reshape
from _head_ref import head_set_call
from _layout_ref import swap_nc
from _rep_ref import binary_cross_entropy_logit, classify, global_avg_pool, matmul
from _rep_ref import rep_loss as ref_rep_loss
from _risk_ref import detection_loss_terms as ref_loss_terms, gather_rows, risk_sum as ref_risk_sum, sample_loss
from test_acceptance import _toy_batches
from test_detector_model import SMALL_SPEC, detection_loss, small_model, ref_detection_loss, same_bits


def domain_risk(batch, model, domain):
    """Mean detection loss of a batch scored by one domain's head."""
    feats = model.features(_stack_images(batch))
    total, _, _ = _risk_sum(*model.predict(feats, domain), _matches(batch, model))
    return total * (1.0 / len(batch))


def maps(features):
    """(N, C) features as the channel-major (C, N, 1, 1) maps rep_loss pools, exactly."""
    t = features if isinstance(features, Tensor) else Tensor(features)
    return swap_nc(reshape(t, *t.data.shape, 1, 1))


def lirr_loss(batch_src, batch_tgt, model, classifier, cfg):
    """The full objective's LossBreakdown, without building a graph."""
    with no_grad():
        return _objective(batch_src, batch_tgt, model, classifier, cfg)[1]


def make_sample(rng, domain, base_shade, size=32):
    """One image with a single bright square against a flat background."""
    img = np.full((1, size, size), base_shade, dtype=np.float32)
    side = int(rng.integers(10, 15))
    r = int(rng.integers(0, size - side))
    c = int(rng.integers(0, size - side))
    img[0, r:r + side, c:c + side] = base_shade + 0.5
    return SimpleNamespace(
        image=img,
        gt_boxes=np.array([[c, r, c + side, r + side]], dtype=np.float64),
        gt_classes=np.array([1], dtype=np.int64),
        domain=domain,
    )


def make_batches(seed, n_src=2, n_tgt=2):
    rng = np.random.default_rng(seed)
    src = [make_sample(rng, DomainLabel.SOURCE, -0.4) for _ in range(n_src)]
    tgt = [make_sample(rng, DomainLabel.TARGET, 0.2) for _ in range(n_tgt)]
    return src, tgt


def zeroed_classifier(in_features):
    c = DomainClassifier(in_features, rng=np.random.default_rng(0))
    for p in c.parameters():
        p.data[...] = 0.0
    return c


class TestConfig:
    def test_defaults(self):
        cfg = LirrConfig()
        assert cfg.lambda_rep == 0.1
        assert cfg.lambda_risk == 1.0
        assert cfg.grl_lambda == 1.0

    @pytest.mark.parametrize("field", ["lambda_rep", "lambda_risk", "grl_lambda"])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError, match=field):
            LirrConfig(**{field: -0.5})

    @pytest.mark.parametrize("field,value", [
        ("lambda_rep", np.nan), ("lambda_risk", np.inf), ("grl_lambda", np.inf), ("grl_lambda", np.nan),
    ])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            LirrConfig(**{field: value})

    def test_domain_label_values(self):
        assert int(DomainLabel.SOURCE) == 0
        assert int(DomainLabel.TARGET) == 1

    def test_one_domain_head_set_per_label(self):
        # one definition: the objective's name is the model's label
        assert lirr.DomainLabel is DomainLabel is detector_model.DomainLabel
        assert len(small_model(0).domain_heads) == len(DomainLabel)


class TestRepLoss:
    def test_zero_logits_value(self):
        # an uninformative classifier scores 2 log 2 regardless of input
        with precision("float64"):
            c = zeroed_classifier(4)
            val = rep_loss(maps(np.random.default_rng(0).normal(size=(3, 4))),
                           maps(np.random.default_rng(1).normal(size=(5, 4))), c)
        assert abs(float(val.data) - 2.0 * np.log(2.0)) < 1e-12

    def test_separating_classifier_near_zero(self):
        with precision("float64"):
            c = zeroed_classifier(2)
            c.fc1.weight.data[0, 0] = 1.0
            c.fc1.weight.data[1, 1] = 1.0
            c.fc2.weight.data[0, 0] = 30.0
            c.fc2.weight.data[1, 0] = -30.0
            src = maps(np.tile([5.0, 0.0], (3, 1)))
            tgt = maps(np.tile([0.0, 5.0], (3, 1)))
            val = float(rep_loss(src, tgt, c).data)
        assert 0.0 <= val < 1e-8

    def test_value_never_positive(self):
        # the reported value, LossBreakdown.l_rep = -rep_loss, is a sum of log-probabilities
        rng = np.random.default_rng(7)
        c = DomainClassifier(6, rng=rng)
        for _ in range(10):
            v = rep_loss(maps(rng.normal(size=(4, 6))),
                         maps(rng.normal(size=(4, 6))), c)
            assert -float(v.data) <= 1e-7

    def test_empty_batch_rejected(self):
        c = zeroed_classifier(3)
        with pytest.raises(ValueError, match="empty"):
            rep_loss(maps(np.zeros((0, 3))), maps(np.zeros((2, 3))), c)
        with pytest.raises(ValueError, match="empty"):
            rep_loss(maps(np.zeros((2, 3))), maps(np.zeros((0, 3))), c)

    def test_maps_that_are_not_4d_or_miss_the_classifier_width_rejected(self):
        c = zeroed_classifier(3)
        for fs, ft in ((np.zeros((3, 2, 4)), np.zeros((3, 2, 1, 1))),
                       (np.zeros((3, 2, 1, 1)), np.zeros((3, 2))),
                       (np.zeros((4, 2, 1, 1)), np.zeros((3, 2, 1, 1))),
                       (np.zeros((3, 2, 2, 2)), np.zeros((2, 1, 2, 2)))):
            with pytest.raises(ShapeError, match=re.escape(str(fs.shape)) + ".*" + re.escape(str(ft.shape))):
                rep_loss(Tensor(fs), Tensor(ft), c)

    def test_map_whose_channel_axis_misses_the_classifier_names_the_layout(self):
        # a batch-major (N, C, H, W) map of the classifier's width reads as C = N
        c = zeroed_classifier(3)
        fits = np.zeros((3, 2, 2, 2))
        for fs, ft in ((np.zeros((2, 3, 2, 2)), fits), (fits, np.zeros((4, 2, 2, 2)))):
            with pytest.raises(ShapeError, match=re.escape("C = 3 channels of (C, N, H, W) maps")):
                rep_loss(Tensor(fs), Tensor(ft), c)
        with pytest.raises(ShapeError, match=re.escape("expects (C, N, H, W) feature maps")):
            rep_loss(Tensor(np.zeros((3, 2, 4))), Tensor(fits), c)

    def test_4d_input_is_pooled(self):
        with precision("float64"):
            rng = np.random.default_rng(3)
            c = DomainClassifier(5, rng=rng)
            fs = rng.normal(size=(2, 5, 4, 4))
            ft = rng.normal(size=(2, 5, 4, 4))
            a = float(rep_loss(swap_nc(Tensor(fs)), swap_nc(Tensor(ft)), c).data)
            b = float(rep_loss(maps(global_avg_pool(Tensor(fs))),
                               maps(global_avg_pool(Tensor(ft))), c).data)
        assert a == b

    @pytest.mark.parametrize("lam", [1.0, 0.7])
    def test_reversal_pairing(self, lam):
        # gradient into the feature producer must be exactly -lam times the
        # gradient of the same cross entropy with the reversal layer removed
        with precision("float64"):
            rng = np.random.default_rng(11)
            w_init = rng.normal(size=(3, 4))
            xs = rng.normal(size=(2, 3))
            xt = rng.normal(size=(2, 3))

            def forward(w):
                return matmul(Tensor(xs), w), matmul(Tensor(xt), w)

            c = DomainClassifier(4, rng=np.random.default_rng(5))

            w_a = Tensor(w_init.copy(), requires_grad=True)
            fs, ft = forward(w_a)
            backward(rep_loss(maps(fs), maps(ft), c, grl_lambda=lam))
            c_grads_a = [p.grad.copy() for p in c.parameters()]

            c.zero_grad()
            w_b = Tensor(w_init.copy(), requires_grad=True)
            fs, ft = forward(w_b)
            bce = binary_cross_entropy_logit(classify(c, fs), np.ones((2, 1))) \
                + binary_cross_entropy_logit(classify(c, ft), np.zeros((2, 1)))
            backward(bce)

        np.testing.assert_allclose(w_a.grad, -lam * w_b.grad, rtol=0, atol=1e-15)
        for g_a, p in zip(c_grads_a, c.parameters()):
            np.testing.assert_array_equal(g_a, p.grad)


class TestInvariantRisk:
    def test_single_sample_matches_detection_loss(self):
        with precision("float64"):
            model = small_model(0)
            (s,), _ = make_batches(1, n_src=1, n_tgt=1)
            got = float(invariant_risk([s], model).data)

            feats = model.features(Tensor(s.image[None]))
            cls, loc = model.predict(feats, "invariant")
            n_anchors = cls.data.shape[1]
            match = match_anchors(s.gt_boxes, s.gt_classes, model.anchors)
            want = detection_loss(reshape(cls, n_anchors, cls.data.shape[2]),
                                  reshape(loc, n_anchors, 4), match)
        assert got == pytest.approx(float(want.data), rel=1e-12)

    def test_duplicate_sample_mean_invariant(self):
        with precision("float64"):
            model = small_model(4)
            (s,), _ = make_batches(2, n_src=1, n_tgt=1)
            one = float(invariant_risk([s], model).data)
            two = float(invariant_risk([s, s], model).data)
        assert two == pytest.approx(one, rel=1e-12)

    def test_mixed_batch_rederivation(self):
        # batch value re-derived from independent per-sample straight-line math
        with precision("float64"):
            model = small_model(9)
            src, tgt = make_batches(5)
            batch = src + tgt
            got = float(invariant_risk(batch, model).data)

            per_sample = []
            for s in batch:
                feats = model.features(Tensor(s.image[None]))
                cls, loc = model.predict(feats, "invariant")
                match = match_anchors(s.gt_boxes, s.gt_classes, model.anchors)
                per_sample.append(ref_detection_loss(cls.data[0], loc.data[0], match))
        assert got == pytest.approx(float(np.mean(per_sample)), rel=1e-9)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            invariant_risk([], small_model(0))

    def test_unlabeled_sample_rejected(self):
        model = small_model(0)
        (s,), _ = make_batches(3, n_src=1, n_tgt=1)
        s.gt_boxes = np.zeros((0, 4))
        s.gt_classes = np.zeros((0,), dtype=np.int64)
        with pytest.raises(ValueError, match="unlabeled"):
            invariant_risk([s], model)


class TestDomainRisk:
    def test_equals_invariant_when_head_copied(self):
        with precision("float64"):
            model = small_model(6)
            model.domain_heads[0].load_state_dict(model.invariant_head.state_dict())
            src, _ = make_batches(7, n_src=3, n_tgt=1)
            a = float(domain_risk(src, model, DomainLabel.SOURCE).data)
            b = float(invariant_risk(src, model).data)
        assert a == b

    def test_heads_are_independent(self):
        model = small_model(6)
        src, tgt = make_batches(8)
        with no_grad():
            before = float(domain_risk(src, model, DomainLabel.SOURCE).data)
            # target head changes must not affect the source head's risk
            for p in model.domain_heads[1].parameters():
                p.data += 1.0
            after = float(domain_risk(src, model, DomainLabel.SOURCE).data)
            tgt_risk = float(domain_risk(tgt, model, DomainLabel.TARGET).data)
        assert before == after
        assert tgt_risk != before

    def test_mixed_batch_rederivation(self):
        # the domain risk of a source and a target batch: each batch is scored
        # by the head of its role's domain, re-derived sample by sample
        with precision("float64"):
            model = small_model(10)
            c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(12))
            src, tgt = make_batches(11, n_src=3, n_tgt=2)
            every = []
            for batch, domain in ((src, DomainLabel.SOURCE), (tgt, DomainLabel.TARGET)):
                got = float(domain_risk(batch, model, domain).data)
                per_sample = []
                for s in batch:
                    cls, loc = model.predict(model.features(Tensor(s.image[None])), domain)
                    match = match_anchors(s.gt_boxes, s.gt_classes, model.anchors)
                    per_sample.append(ref_detection_loss(cls.data[0], loc.data[0], match))
                assert got == pytest.approx(float(np.mean(per_sample)), rel=1e-9)
                every += per_sample
            l_d = lirr_loss(src, tgt, model, c, LirrConfig()).l_d
        assert l_d == pytest.approx(float(np.mean(every)), rel=1e-9)


class TestLirrLoss:
    def test_breakdown_identities(self):
        model = small_model(1)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(2))
        src, tgt = make_batches(12)
        cfg = LirrConfig(lambda_rep=0.3, lambda_risk=0.7)
        bd = lirr_loss(src, tgt, model, c, cfg)
        assert bd.l_risk == pytest.approx(bd.l_i + cfg.lambda_risk * (bd.l_i - bd.l_d), abs=1e-12)
        assert bd.l_total == pytest.approx(bd.l_risk + cfg.lambda_rep * bd.l_rep, abs=1e-12)
        assert bd.l_i == pytest.approx(bd.l_i_cls + bd.l_i_loc, rel=1e-5)
        assert bd.l_d == pytest.approx(bd.l_d_cls + bd.l_d_loc, rel=1e-5)
        assert bd.l_rep <= 1e-7

    def test_zero_weights_reduce_to_shared_risk(self):
        model = small_model(1)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(2))
        src, tgt = make_batches(13)
        bd = lirr_loss(src, tgt, model, c, LirrConfig(lambda_rep=0.0, lambda_risk=0.0))
        assert bd.l_total == bd.l_i

    def test_combined_frozen_value(self):
        # the default weights on an uninformative classifier: the risk part
        # 2 l_i - l_d plus 0.1 times the alignment value -2 log 2
        with precision("float64"):
            model = small_model(1)
            src, tgt = make_batches(12)
            bd = lirr_loss(src, tgt, model, zeroed_classifier(SMALL_SPEC.widths[-1]), LirrConfig())
        assert bd.l_rep == pytest.approx(-2.0 * np.log(2.0), abs=1e-12)
        assert bd.l_risk == pytest.approx(2.0 * bd.l_i - bd.l_d, abs=1e-12)
        assert bd.l_total - bd.l_risk == pytest.approx(-0.13862943611198906, abs=1e-12)

    def test_swapping_batch_roles_keeps_risks(self):
        model = small_model(3)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(4))
        src, tgt = make_batches(14)
        cfg = LirrConfig()
        a = lirr_loss(src, tgt, model, c, cfg)
        # a batch is scored by the domain head its role names, not by its
        # samples' labels: swapping the roles alone moves the domain risk, and
        # swapping the two domain heads as well gives both risks back
        assert lirr_loss(tgt, src, model, c, cfg).l_d != a.l_d
        heads = model.domain_heads
        states = [h.state_dict() for h in heads]
        heads[0].load_state_dict(states[1])
        heads[1].load_state_dict(states[0])
        b = lirr_loss(tgt, src, model, c, cfg)
        assert a.l_i == b.l_i
        assert a.l_d == b.l_d

    def test_empty_batch_rejected(self):
        model = small_model(0)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(0))
        src, tgt = make_batches(15)
        with pytest.raises(ValueError, match="source"):
            lirr_loss([], tgt, model, c, LirrConfig())
        with pytest.raises(ValueError, match="target"):
            lirr_loss(src, [], model, c, LirrConfig())


def clone_params(module):
    return [p.data.copy() for p in module.parameters()]


def params_equal(module, snapshot):
    return all(np.array_equal(p.data, s) for p, s in zip(module.parameters(), snapshot))


class TestTrainStep:
    def test_zero_lr_changes_nothing(self):
        model = small_model(2)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(3))
        src, tgt = make_batches(16)
        opt = SGD(model.parameters() + c.parameters(), lr=0.0)
        before_m, before_c = clone_params(model), clone_params(c)
        bd = train_step(src, tgt, model, c, opt, LirrConfig())
        assert np.isfinite(bd.l_total)
        assert params_equal(model, before_m)
        assert params_equal(c, before_c)

    def test_zero_rep_weight_freezes_classifier(self):
        model = small_model(2)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(3))
        src, tgt = make_batches(17)
        opt = SGD(model.parameters() + c.parameters(), lr=0.05)
        before_c = clone_params(c)
        train_step(src, tgt, model, c, opt, LirrConfig(lambda_rep=0.0))
        assert params_equal(c, before_c)
        assert all(p.grad is None for p in c.parameters())

    @pytest.mark.parametrize("bad", [0, 5])
    @pytest.mark.parametrize("supervised", [False, True])
    def test_class_the_model_lacks_is_rejected_by_image_id(self, bad, supervised):
        # SMALL_SPEC has one foreground class; 0 is background, 5 has no logit
        model = small_model(2)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(3))
        src, tgt = make_batches(19)
        tgt[1].image_id = 1017
        tgt[1].gt_classes = np.array([bad])
        opt = SGD(model.parameters() + c.parameters(), lr=0.05)
        before = clone_params(model)
        with pytest.raises(ValueError, match=f"^image_id 1017: class {bad} is not in 1..1$"):
            train_step(None if supervised else src, tgt, model, None if supervised else c, opt,
                       LirrConfig())
        assert params_equal(model, before)

    def test_zero_risk_weight_freezes_domain_heads(self):
        model = small_model(2)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(3))
        src, tgt = make_batches(18)
        opt = SGD(model.parameters() + c.parameters(), lr=0.05)
        snaps = [clone_params(h) for h in model.domain_heads]
        train_step(src, tgt, model, c, opt, LirrConfig(lambda_risk=0.0))
        for head, snap in zip(model.domain_heads, snaps):
            assert params_equal(head, snap)

    def test_training_reduces_supervised_risk(self):
        # the total is a minimax value and need not decrease monotonically
        # (the alignment term is <= 0); the shared risk is the honest signal
        model = small_model(5)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(6))
        src, tgt = make_batches(19)
        opt = SGD(model.parameters() + c.parameters(), lr=0.005, momentum=0.5)
        cfg = LirrConfig()
        history = []
        for _ in range(80):
            bd = train_step(src, tgt, model, c, opt, cfg)
            assert np.isfinite(bd.l_total)
            history.append(bd.l_i)
        assert np.mean(history[-10:]) < 0.1 * history[0]

    def test_breakdown_matches_eval_before_step(self):
        model = small_model(7)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(8))
        src, tgt = make_batches(20)
        cfg = LirrConfig()
        evaluated = lirr_loss(src, tgt, model, c, cfg)
        stepped = train_step(src, tgt, model, c,
                             SGD(model.parameters() + c.parameters(), lr=0.1), cfg)
        assert evaluated.to_dict() == stepped.to_dict()


class TestReducedObjectiveIdentity:
    def test_zero_weights_track_supervised_baseline(self):
        # with both weights at 0.0 the update must equal a plain supervised
        # step computed without any of the adaptation machinery
        with precision("float64"):
            model_a = small_model(21)
            model_b = small_model(21)
            c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(1))
            src, tgt = make_batches(22)
            cfg = LirrConfig(lambda_rep=0.0, lambda_risk=0.0)
            opt_a = SGD(model_a.parameters() + c.parameters(), lr=0.02)
            opt_b = SGD(model_b.parameters(), lr=0.02)

            def supervised_step(model, opt):
                model.zero_grad()
                sums = []
                for batch in (src, tgt):
                    imgs = np.stack([s.image for s in batch], axis=1).astype(np.float64)
                    feats = model.features(Tensor(imgs))
                    cls, loc = model.predict(feats, "invariant")
                    n_anchors = cls.data.shape[1]
                    flat_c = reshape(cls, len(batch) * n_anchors, cls.data.shape[2])
                    flat_l = reshape(loc, len(batch) * n_anchors, 4)
                    part = None
                    for b, s in enumerate(batch):
                        rows = np.arange(b * n_anchors, (b + 1) * n_anchors)
                        match = match_anchors(s.gt_boxes, s.gt_classes, model.anchors)
                        ct, lt, npos = ref_loss_terms(gather_rows(flat_c, rows),
                                                      gather_rows(flat_l, rows), match)
                        one = (ct + lt) * (1.0 / max(npos, 1))
                        part = one if part is None else part + one
                    sums.append(part)
                total = (sums[0] + sums[1]) * (1.0 / (len(src) + len(tgt)))
                backward(total)
                opt.step()
                return float(total.data)

            for step in range(10):
                bd = train_step(src, tgt, model_a, c, opt_a, cfg)
                base = supervised_step(model_b, opt_b)
                assert bd.l_total == base, f"diverged at step {step}"
            for p_a, p_b in zip(model_a.parameters(), model_b.parameters()):
                np.testing.assert_array_equal(p_a.data, p_b.data)


class TestPerPlayerGradients:
    """Each parameter group gets the derivative of its own player's loss in the
    minimax (gradient reversal: Ganin & Lempitsky 2015; LIRR, Li et al. 2021).
    With lambda_risk λr, lambda_rep λa, grl_lambda γ and the LossBreakdown fields:

      backbone            (1 + λr)·l_i − λr·l_d + γ·λa·l_rep
      invariant head      (1 + λr)·l_i
      each domain head    λr·l_d
      domain classifier   −λa·l_rep   (l_rep is minus the cross entropy)

    A supervised step's players are l_i for the backbone and the invariant head.
    A step's gradients are checked against central differences (step FD_H) of
    the player's scalar read from LossBreakdown under no_grad, in float64 on
    criterion 3's toy model and batches, at coordinates drawn from a fixed
    generator, PER_TENSOR in every parameter tensor; the error is
    |grad - fd| / max(|fd|, 1)."""

    FD_H = 1e-6
    FD_TOL = 1e-6
    PER_TENSOR = 2

    @pytest.mark.parametrize("weights", [(1.0, 0.1, 1.0), (0.7, 0.3, 0.6), (0.0, 0.5, 1.0),
                                         (0.4, 0.0, 1.0), None],
                             ids=lambda w: "supervised" if w is None else "risk{}-rep{}-grl{}".format(*w))
    def test_each_group_gets_its_players_gradient(self, weights):
        src, tgt = _toy_batches()
        with precision("float64"):
            rng = np.random.default_rng(11)
            model = Detector(ModelSpec(image_size=16, widths=(4, 8, 12, 16)), rng=rng)
            c = DomainClassifier(16, rng=rng)
            if weights is None:
                src, c, cfg = None, None, LirrConfig()
                players = {"backbone": lambda bd: bd.l_i, "invariant_head": lambda bd: bd.l_i,
                           "domain_heads": lambda bd: 0.0}
            else:
                lam_risk, lam_rep, gamma = weights
                cfg = LirrConfig(lambda_rep=lam_rep, lambda_risk=lam_risk, grl_lambda=gamma)
                players = {
                    "backbone": lambda bd: ((1 + lam_risk) * bd.l_i - lam_risk * bd.l_d
                                            + gamma * lam_rep * bd.l_rep),
                    "invariant_head": lambda bd: (1 + lam_risk) * bd.l_i,
                    "domain_heads": lambda bd: lam_risk * bd.l_d,
                    "classifier": lambda bd: -lam_rep * bd.l_rep,
                }
            groups = {}
            for name, p in model.named_parameters():
                group = "backbone" if re.fullmatch(r"conv\d\..*", name) else name.split(".")[0]
                groups.setdefault(group, []).append(p)
            if c is not None:
                groups["classifier"] = c.parameters()
            assert groups.keys() == players.keys()

            params = [p for ps in groups.values() for p in ps]
            train_step(src, tgt, model, c, SGD(params, lr=0.0), cfg)
            draw = np.random.default_rng(0)
            worst = {}
            for group, ps in groups.items():
                for p in ps:
                    grad = np.zeros_like(p.data) if p.grad is None else p.grad
                    for i in draw.integers(p.data.size, size=self.PER_TENSOR):
                        saved = p.data.flat[i]
                        p.data.flat[i] = saved + self.FD_H
                        up = players[group](lirr_loss(src, tgt, model, c, cfg))
                        p.data.flat[i] = saved - self.FD_H
                        down = players[group](lirr_loss(src, tgt, model, c, cfg))
                        p.data.flat[i] = saved
                        fd = (up - down) / (2.0 * self.FD_H)
                        err = abs(grad.flat[i] - fd) / max(abs(fd), 1.0)
                        worst[group] = max(worst.get(group, 0.0), err)
        assert max(worst.values()) < self.FD_TOL, worst


@st.composite
def risk_cases(draw):
    """One head's (B, A, K) and (B, A, 4) outputs and the matches of a batch.

    Each sample is random, has one positive, or has every anchor IGNORE.
    Logits up to 200 in size saturate the softmax, and some box targets
    equal the head's offsets, so gradients hold zeros of both signs
    before the scatter-add.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, a, k = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(2, 4))
    scale = draw(st.sampled_from([0.5, 4.0, 200.0]))
    cls0, loc0 = rng.normal(size=(b, a, k)) * scale, rng.normal(scale=1.5, size=(b, a, 4))
    matches = []
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["random", "one_positive", "all_ignored"]),
                                           min_size=b, max_size=b))):
        gt = rng.choice([0, 1, NEGATIVE, IGNORE], size=a)
        if kind == "one_positive":
            gt = rng.choice([NEGATIVE, IGNORE], size=a)
            gt[rng.integers(a)] = 0
        elif kind == "all_ignored":
            gt = np.full(a, IGNORE)
        pos = gt >= 0
        classes = np.where(pos, rng.integers(1, k, size=a), np.where(gt == NEGATIVE, 0, -1))
        exact = rng.random(a) < 0.3
        targets = np.where(exact[:, None], loc0[j], rng.normal(scale=1.5, size=(a, 4)))
        matches.append(MatchResult(gt, classes, np.where(pos[:, None], targets, 0.0), int(pos.sum())))
    return cls0, loc0, matches, draw(st.sampled_from([1.0, -0.7]))


class TestRiskMatchesReference:
    """The numpy per-sample loss and the one-op _risk_sum against the
    gather/CE/smooth-L1 path they replace."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=risk_cases(), dtype=st.sampled_from(["float32", "float64"]))
    def test_sample_loss_bits(self, case, dtype):
        cls0, loc0, matches, weight = case
        with precision(dtype):
            for b, match in enumerate(matches):
                cls, loc = Tensor(cls0, requires_grad=True), Tensor(loc0, requires_grad=True)
                loss, c, l = sample_loss(cls, loc, b, match)
                backward(loss * weight)
                value, c_np, l_np, add_grad = detection_loss_terms(cls.data[b], loc.data[b], match)
                dcls, dloc = np.zeros_like(cls.data), np.zeros_like(loc.data)
                add_grad(np.ones_like(value) * weight, dcls[b], dloc[b])
                for x, y in zip((value, c_np, l_np, dcls, dloc), (loss.data, c, l, cls.grad, loc.grad)):
                    assert same_bits(x, y)
                if np.all(match.gt_index == IGNORE):  # zero, with zero gradients
                    assert float(value) == 0.0 and not dcls.any() and not dloc.any()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(case=risk_cases(), dtype=st.sampled_from(["float32", "float64"]))
    def test_risk_sum_bits(self, case, dtype):
        cls0, loc0, matches, weight = case
        with precision(dtype):
            got = []
            for risk_fn in (_risk_sum, ref_risk_sum):
                cls, loc = Tensor(cls0, requires_grad=True), Tensor(loc0, requires_grad=True)
                total, c, l = risk_fn(cls, loc, matches)
                backward(total * weight)
                got.append([total.data, c, l, cls.grad, loc.grad])
            for x, y in zip(*got):
                assert same_bits(x, y)

    @pytest.mark.parametrize("cfg", [LirrConfig(), LirrConfig(0.3, 0.7, 0.6)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sda_and_supervised_steps_keep_every_loss_and_parameter_bit(self, monkeypatch, dtype, cfg):
        # 5 SDA and then 5 supervised steps, and again with the gather/CE/smooth-L1 chain
        def run():
            with precision(dtype):
                model = small_model(80)
                c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(81))
                opt = SGD(model.parameters() + c.parameters(), lr=0.05, momentum=0.5)
                losses = []
                for step in range(10):
                    src, tgt = make_batches(90 + step, n_src=3, n_tgt=2)
                    sda = step < 5
                    losses.append(train_step(src if sda else None, tgt, model, c if sda else None, opt, cfg))
                return losses, [p.data.tobytes() for p in model.parameters() + c.parameters()]

        losses, params = run()
        monkeypatch.setattr(lirr, "_risk_sum", ref_risk_sum)
        ref_losses, ref_params = run()
        assert losses == ref_losses
        assert params == ref_params


class TestHeadLayoutMatchesReferenceInTraining:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sda_and_supervised_steps_keep_every_parameter_bit(self, monkeypatch, dtype):
        # 5 SDA and then 5 supervised steps with the one-op head layout, and
        # again with HeadSet.__call__ swapped for the old reshape/transpose/concat chain
        def run():
            with precision(dtype):
                model = small_model(40)
                c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(41))
                opt = SGD(model.parameters() + c.parameters(), lr=0.05)
                losses = []
                for step in range(10):
                    src, tgt = make_batches(50 + step)
                    if step < 5:
                        losses.append(train_step(src, tgt, model, c, opt, LirrConfig()))
                    else:
                        losses.append(train_step(None, tgt, model, None, opt, LirrConfig()))
                return losses, [p.data.tobytes() for p in model.parameters() + c.parameters()]

        losses, params = run()
        monkeypatch.setattr(HeadSet, "__call__", head_set_call)
        ref_losses, ref_params = run()
        assert losses == ref_losses
        assert params == ref_params


class TestChannelMajorMatchesBatchMajorInTraining:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sda_and_supervised_steps_keep_every_loss_and_parameter_bit(self, monkeypatch, dtype):
        # 5 SDA and then 5 supervised steps channel-major, each head input
        # unrolled once, and again batch-major, each conv unrolling its own input
        def run():
            with precision(dtype):
                model = small_model(100)
                c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(101))
                opt = SGD(model.parameters() + c.parameters(), lr=0.05, momentum=0.5)
                losses = []
                for step in range(10):
                    src, tgt = make_batches(110 + step, n_src=3, n_tgt=2)
                    sda = step < 5
                    losses.append(train_step(src if sda else None, tgt, model, c if sda else None, opt,
                                             LirrConfig()))
                return losses, [p.data.tobytes() for p in model.parameters() + c.parameters()]

        losses, params = run()
        _layout_ref.install(monkeypatch)
        ref_losses, ref_params = run()
        assert losses == ref_losses
        assert params == ref_params


def default_step_args(sda):
    """_objective's arguments for one default-model step of 8 (+ 8) images."""
    spec = ModelSpec()
    rng = np.random.default_rng(0)
    src = [make_sample(rng, DomainLabel.SOURCE, -0.4, spec.image_size) for _ in range(8)]
    tgt = [make_sample(rng, DomainLabel.TARGET, 0.2, spec.image_size) for _ in range(8)]
    model = Detector(spec, rng=rng)
    if sda:
        return src, tgt, model, DomainClassifier(spec.widths[-1], rng=rng), LirrConfig()
    return None, tgt, model, None, None


def held_at_backward(args):
    """What a step's forward leaves alive when backward starts: the sizes of
    the numpy data buffers, the traced bytes of Python objects and the
    number of tape entries. The object bytes are only an upper bound: how
    many objects numpy's and Python's free lists serve untraced depends on
    what the process ran before."""
    backward(_objective(*args)[0])  # first-call allocations happen here
    tracemalloc.start()
    try:
        total = _objective(*args)[0]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    entries = len(total._tape)
    backward(total)
    numpy_domain = np.lib.tracemalloc_domain
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, numpy_domain)])
    objects = snapshot.filter_traces([tracemalloc.DomainFilter(False, numpy_domain)])
    return [t.size for t in arrays.traces], sum(t.size for t in objects.traces), entries


def backbone_layers(spec):
    """(input channels, output channels, output stride) of each backbone conv."""
    return list(zip((spec.in_channels, *spec.widths[:3]), spec.widths, (2, 4, 8, 16)))


class TestSharedHeadColumns:
    """Array bytes held after the forward of one default-model step (8 + 8
    images), against the batch-major path where every head conv unrolls
    its own input."""

    @pytest.mark.parametrize("sda", [True, False])
    def test_one_column_array_per_head_input(self, monkeypatch, sda):
        args = default_step_args(sda)
        spec, n = args[2].spec, len(args[1])
        kept = sum(held_at_backward(args)[0])
        _layout_ref.install(monkeypatch)
        ref = sum(held_at_backward(args)[0])
        # a batch's head inputs, one per level: C*3*3 rows by N*H*W columns each
        itemsize = np.dtype(np.float32).itemsize
        columns = sum(ch * 9 * n * (spec.image_size // stride) ** 2 * itemsize
                      for ch, stride in zip(spec.widths[2:], HEAD_STRIDES))
        assert columns == 1_179_648
        # SDA: 4 head convs read each of 2 batches' inputs; supervised: cls and loc read 1
        saved = columns * (2 * 3 if sda else 1)
        # the batch-major conv's rule keeps its input tensor: a batch's stacked
        # images and the four backbone ReLU outputs stay alive in that path
        inputs = n * itemsize * (spec.in_channels * spec.image_size ** 2
                                 + sum(cout * (spec.image_size // s) ** 2 for _, cout, s in backbone_layers(spec)))
        assert inputs == 1_048_576
        assert ref - kept == saved + inputs * (2 if sda else 1), (ref, kept, saved)


class TestHeldAtBackward:
    """What one default-model step's graph holds when backward starts: the
    im2col columns of every conv input and one bool mask per backbone ReLU,
    byte for byte; no rule keeps an input tensor."""

    @pytest.mark.parametrize("sda", [True, False])
    def test_columns_and_relu_masks_only(self, sda):
        args = default_step_args(sda)
        spec, n = args[2].spec, len(args[1])
        itemsize = np.dtype(np.float32).itemsize
        per_batch = [cin * 9 * n * (spec.image_size // s) ** 2 * itemsize for cin, _, s in backbone_layers(spec)]
        per_batch += [ch * 9 * n * (spec.image_size // s) ** 2 * itemsize
                      for ch, s in zip(spec.widths[2:], HEAD_STRIDES)]  # shared by every head set
        per_batch += [cout * n * (spec.image_size // s) ** 2 for _, cout, s in backbone_layers(spec)]
        assert sum(per_batch) == 3_694_592
        sizes = held_at_backward(args)[0]
        # every other numpy buffer the step holds is under 4 KiB (each
        # sample's sampled rows, the classifier's pooled (N, C) features),
        # and every array input of a conv, relu, anchor_order, risk or
        # alignment op has 30 KiB or more (a batch's anchor-ordered logits)
        assert sorted(s for s in sizes if s >= 4096) == sorted(per_batch * (2 if sda else 1))

    @pytest.mark.parametrize("sda", [True, False])
    def test_python_objects_per_entry(self, sda):
        # an entry, its weakref, sources tuple and rule closure, the output
        # Tensor and ndarray headers, and the per-sample loss closures and
        # index arrays' headers: 1,563 (SDA) and 1,621 (supervised) bytes
        # per entry on CPython 3.11 with nothing served from free lists; a
        # dict of the inputs' shapes and dtypes per entry reads 1,841
        _, objects, entries = held_at_backward(default_step_args(sda))
        assert entries == (58 if sda else 16)
        assert objects / entries < 1792, (objects, entries)


def _risk_case():
    model = small_model(7)
    matches = _matches(make_batches(8, n_src=0)[1], model)
    a = len(model.anchors)
    return [(2, a, SMALL_SPEC.num_logits), (2, a, 4)], lambda cls, loc: _risk_sum(cls, loc, matches)[0]


def _conv_case(stride):
    w, b = Parameter(np.ones((4, 3, 3, 3))), Parameter(np.zeros(4))
    return [(3, 2, 6, 6)], lambda x: conv2d(x, w, b, stride=stride, padding=1)


STEP_OPS = {  # each op a training step records: its input shapes and the op
    "relu": lambda: ([(2, 3, 4, 4)], lambda x: x.relu()),
    "add": lambda: ([(3, 4), (3, 4)], lambda x, y: x + y),
    "mul_scalar": lambda: ([(3, 4)], lambda x: x * 0.5),
    "conv2d_stride1": lambda: _conv_case(1),
    "conv2d_stride2": lambda: _conv_case(2),
    "grad_reverse": lambda: ([(2, 3, 4, 4)], lambda x: grad_reverse(x, 1.0)),
    "anchor_order": lambda: ([(12, 2, 4, 4), (12, 2, 2, 2)], lambda a, b: anchor_order([a, b], 2)),
    "risk_sum": _risk_case,
    "rep_loss": lambda: ([(5, 2, 3, 3), (5, 3, 2, 2)],
                         lambda fs, ft: rep_loss(fs, ft, DomainClassifier(5, rng=np.random.default_rng(0)))),
}


class TestRulesKeepNoInput:
    """No op of a training step keeps an input tensor or its data: an
    intermediate the caller drops is freed before backward (grad_reverse's
    output is its input's data, by design)."""

    @pytest.mark.parametrize("name", sorted(STEP_OPS))
    def test_dropped_inputs_are_freed(self, name):
        shapes, op = STEP_OPS[name]()
        rng = np.random.default_rng(1)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        gc.disable()
        try:
            inputs = [leaf * 1.0 for leaf in leaves]
            out = op(*inputs)
            alive = [(weakref.ref(t), weakref.ref(t.data), t.data is out.data) for t in inputs]
            del inputs
            for tensor, data, shared in alive:
                assert tensor() is None
                assert (data() is not None) == shared
        finally:
            gc.enable()
        backward(dot(out))
        assert all(leaf.grad is not None for leaf in leaves)


@st.composite
def rep_cases(draw):
    """Feature maps of two domains with their own batch and spatial sizes, a
    classifier seed, grl_lambda and a weight on the loss. Maps up to 50 in
    size saturate the sigmoid; grl_lambda 0.0 makes -0.0 * g, so the
    feature gradients hold zeros of both signs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([0.5, 4.0, 50.0]))
    maps = [rng.normal(size=(draw(st.integers(1, 4)), channels, draw(st.integers(1, 3)),
                             draw(st.integers(1, 3)))) * scale for _ in range(2)]
    return (maps, channels, draw(st.integers(0, 2**16)), draw(st.sampled_from([0.0, 0.6, 1.0])),
            draw(st.sampled_from([1.0, 0.1, -0.7])))


class TestRepLossMatchesReference:
    """The one-op alignment term against the pool/reverse/MLP/BCE path it replaces."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=rep_cases(), dtype=st.sampled_from(["float32", "float64"]))
    def test_value_and_gradient_bits(self, case, dtype):
        maps, channels, clf_seed, lam, weight = case
        with precision(dtype):
            got = []
            # rep_loss reads (C, N, H, W) maps, the reference (N, C, H, W) ones
            for loss_fn, layout in ((rep_loss, lambda a: a.transpose(1, 0, 2, 3)), (ref_rep_loss, lambda a: a)):
                c = DomainClassifier(channels, rng=np.random.default_rng(clf_seed))
                fs, ft = (Tensor(np.ascontiguousarray(layout(m)), requires_grad=True) for m in maps)
                loss = loss_fn(fs, ft, c, lam)
                backward(loss * weight)
                got.append([loss.data, layout(fs.grad), layout(ft.grad)] + [p.grad for p in c.parameters()])
            for x, y in zip(*got):
                assert same_bits(x, y)

    @pytest.mark.parametrize("cfg", [LirrConfig(), LirrConfig(0.3, 0.7, 0.6)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sda_steps_keep_every_loss_and_parameter_bit(self, monkeypatch, dtype, cfg):
        def run():
            with precision(dtype):
                model = small_model(60)
                c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(61))
                opt = SGD(model.parameters() + c.parameters(), lr=0.05, momentum=0.5)
                losses = [train_step(*make_batches(70 + step), model, c, opt, cfg) for step in range(5)]
                return losses, [p.data.tobytes() for p in model.parameters() + c.parameters()]

        losses, params = run()
        monkeypatch.setattr(lirr, "rep_loss", lambda fs, ft, c, lam: ref_rep_loss(swap_nc(fs), swap_nc(ft), c, lam))
        ref_losses, ref_params = run()
        assert losses == ref_losses
        assert params == ref_params


class TestTapeSize:
    """Entries on the tape at each step's backward, read as perfbench reads them;
    upper bounds, so a fold that shrinks the graph passes and a regression fails."""

    @pytest.mark.parametrize("sda, bound", [(True, 58), (False, 16)])
    def test_step_records_at_most(self, monkeypatch, sda, bound):
        sizes = []

        def counting_backward(loss):
            sizes.append(len(loss._tape))
            return backward(loss)

        monkeypatch.setattr(lirr, "backward", counting_backward)
        spec = ModelSpec()
        rng = np.random.default_rng(0)
        src = [make_sample(rng, DomainLabel.SOURCE, -0.4, spec.image_size) for _ in range(8)]
        tgt = [make_sample(rng, DomainLabel.TARGET, 0.2, spec.image_size) for _ in range(8)]
        model = Detector(spec, rng=rng)
        c = DomainClassifier(spec.widths[-1], rng=rng) if sda else None
        opt = SGD(model.parameters() + (c.parameters() if sda else []), lr=0.01)
        train_step(src if sda else None, tgt, model, c, opt, LirrConfig())
        assert len(sizes) == 1 and sizes[0] <= bound, sizes


class TestAdversarialDynamics:
    def test_classifier_accuracy_drops_to_chance(self):
        # domains differ only by background brightness, so the backbone can
        # align them outright; the classifier is refreshed between joint
        # steps to stay near its best response, otherwise its accuracy
        # measures the lag of the chase rather than feature overlap
        rng = np.random.default_rng(0)
        pool_src = [make_sample(rng, DomainLabel.SOURCE, -0.35) for _ in range(8)]
        pool_tgt = [make_sample(rng, DomainLabel.TARGET, 0.35) for _ in range(8)]
        model = small_model(30)
        c = DomainClassifier(SMALL_SPEC.widths[-1], rng=np.random.default_rng(31))

        def pooled_features(samples):
            with no_grad():
                imgs = Tensor(np.stack([s.image for s in samples], axis=1))
                return global_avg_pool(swap_nc(model.features(imgs)[-1])).data

        def accuracy():
            with no_grad():
                zs = classify(c, Tensor(pooled_features(pool_src))).data
                zt = classify(c, Tensor(pooled_features(pool_tgt))).data
            hits = int((zs > 0).sum()) + int((zt <= 0).sum())
            return hits / (len(pool_src) + len(pool_tgt))

        def refit_classifier(steps, lr):
            fs, ft = pooled_features(pool_src), pooled_features(pool_tgt)
            opt_c = SGD(c.parameters(), lr=lr)
            for _ in range(steps):
                c.zero_grad()
                bce = binary_cross_entropy_logit(classify(c, Tensor(fs)), np.ones((len(fs), 1))) \
                    + binary_cross_entropy_logit(classify(c, Tensor(ft)), np.zeros((len(ft), 1)))
                backward(bce)
                opt_c.step()

        # phase 1: classifier alone on frozen features until it separates;
        # stopping at the bar keeps its weights moderate, a saturated
        # classifier would hand the backbone explosive reversed gradients
        for _ in range(300):
            refit_classifier(1, lr=0.1)
            if accuracy() >= 0.95:
                break
        assert accuracy() >= 0.95

        # phase 2: joint adversarial training drives it back toward chance
        cfg = LirrConfig(lambda_rep=1.0)
        opt = SGD(model.parameters() + c.parameters(), lr=0.003, momentum=0.5)
        order = np.random.default_rng(32)
        history = []
        for _ in range(250):
            refit_classifier(3, lr=0.05)
            src = [pool_src[i] for i in order.choice(8, size=4, replace=False)]
            tgt = [pool_tgt[i] for i in order.choice(8, size=4, replace=False)]
            bd = train_step(src, tgt, model, c, opt, cfg)
            assert np.isfinite(bd.l_total)
            history.append(accuracy())
        assert np.mean(history[-20:]) <= 0.65

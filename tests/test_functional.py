"""Convolution, pooling, loss and reversal ops: values and gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import _conv_ref
import _layout_ref
from lirrdet.autodiff import (
    ShapeError,
    Tensor,
    backward,
    conv2d,
    grad_reverse,
    precision,
)
from lirrdet.autodiff.functional import im2col
from lirrdet.autodiff.tensor import _op
from lirrdet.detector.model import anchor_order

from _gradcheck import dot, finite_diff_grads, max_rel_err
from _rep_ref import binary_cross_entropy_logit, global_avg_pool, matmul
from _risk_ref import gather_rows, smooth_l1, softmax_cross_entropy

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def direct_conv2d(x, weight, bias, stride, padding):
    """Reference cross-correlation: one window dot product per output pixel."""
    n, _, h, w = x.shape
    f, _, kh, kw = weight.shape
    xpad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.empty((n, f, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for fi in range(f):
            for yi in range(ho):
                for xi in range(wo):
                    ys, xs = yi * stride, xi * stride
                    window = xpad[ni, :, ys:ys + kh, xs:xs + kw]
                    out[ni, fi, yi, xi] = np.sum(window * weight[fi]) + bias[fi]
    return out


def direct_conv2d_dx(g, weight, h, w, stride, padding):
    """Reference input gradient: each output pixel's gradient spread over its window."""
    n, f, ho, wo = g.shape
    _, c, kh, kw = weight.shape
    dxpad = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    for ni in range(n):
        for fi in range(f):
            for yi in range(ho):
                for xi in range(wo):
                    ys, xs = yi * stride, xi * stride
                    dxpad[ni, :, ys:ys + kh, xs:xs + kw] += g[ni, fi, yi, xi] * weight[fi]
    return dxpad[:, :, padding:padding + h, padding:padding + w]


def nchw_conv2d(x, weight, bias, stride=1, padding=0):
    """conv2d on (N, C, H, W) tensors: the channel-major conv between two swap_nc ops."""
    return _layout_ref.swap_nc(conv2d(_layout_ref.swap_nc(x), weight, bias, stride=stride, padding=padding))


def _conv_grads(conv, x0, k0, b0, g0, stride, padding, track_x=True):
    """Output, dx, dW and db of `conv` for the upstream gradient g0."""
    tx = Tensor(x0, requires_grad=track_x)
    tk, tb = Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True)
    out = conv(tx, tk, tb, stride=stride, padding=padding)
    backward(dot(out, g0))
    return out.data, tx.grad, tk.grad, tb.grad


@st.composite
def conv_cases(draw):
    n, c, f = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w, kh, kw = (draw(st.integers(1, 8)) for _ in range(4))
    assume(h != w and kh != kw)
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    dtype = draw(st.sampled_from(["float32", "float64"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    arrays = [rng.normal(size=s) for s in ((n, c, h, w), (f, c, kh, kw), (f,), (n, f, ho, wo))]
    return arrays, stride, padding, dtype


@FUZZ
@given(conv_cases())
def test_conv2d_matches_batch_major_reference(case):
    """Forward, dW, db and a strided dx are the batch-major im2col conv's bytes;
    a stride-1 dx (a conv of the padded gradient) agrees to rounding.

    Where each of several images has one output pixel, the reference's
    column reshape is a view, so BLAS reads a transposed operand and may
    round its products differently; there the values agree to rounding."""
    (x0, k0, b0, g0), stride, padding, dtype = case
    (n, _, h, w), (ho, wo) = x0.shape, g0.shape[2:]
    exact = n == 1 or ho * wo > 1
    rtol = 1e-5 if dtype == "float32" else 1e-12
    with precision(dtype):
        got = _conv_grads(nchw_conv2d, *(a.astype(dtype) for a in (x0, k0, b0, g0)), stride, padding)
        want = _conv_grads(_conv_ref.conv2d, *(a.astype(dtype) for a in (x0, k0, b0, g0)),
                           stride, padding)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == np.dtype(dtype) and a.shape == b.shape
        if exact and (i != 1 or stride > 1):
            assert a.tobytes() == b.tobytes(), ("out", "dx", "dW", "db")[i]
        np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * max(np.abs(b).max(), 1.0))
    if stride == 1:
        with precision("float64"):
            dx = _conv_grads(nchw_conv2d, x0, k0, b0, g0, 1, padding)[1]
            ref = _conv_grads(_conv_ref.conv2d, x0, k0, b0, g0, 1, padding)[1]
        direct = direct_conv2d_dx(g0, k0, h, w, 1, padding)
        for other in (ref, direct):
            np.testing.assert_allclose(dx, other, rtol=1e-12, atol=1e-12 * np.abs(other).max())
        np.testing.assert_allclose(got[1], direct, rtol=rtol, atol=rtol * np.abs(direct).max())
    with precision(dtype):
        untracked = _conv_grads(nchw_conv2d, *(a.astype(dtype) for a in (x0, k0, b0, g0)),
                                stride, padding, track_x=False)
    assert untracked[1] is None
    assert untracked[2].tobytes() == got[2].tobytes() and untracked[3].tobytes() == got[3].tobytes()


def _signed_zeros(rng, a):
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


@FUZZ
@given(conv_cases(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_conv2d_keeps_the_batch_major_layouts_bits(case, sample_major, handed_in, seed):
    """The channel-major conv2d against the batch-major one it replaced, on
    the same input and upstream gradient: value, dx, dW and db byte for
    byte, sign bits included, with or without handed-in columns. The
    gradient is laid out as a backbone conv gets it (C-contiguous, filter
    major here and sample major there) or as a head conv gets it from
    anchor_order (one (sample, row, column) row of filters after another)."""
    (x0, k0, b0, g0), stride, padding, dtype = case
    rng = np.random.default_rng(seed)
    x0, g0 = _signed_zeros(rng, x0), _signed_zeros(rng, g0)
    if sample_major:  # the same memory under both: (N, H', W', F)
        rows = np.ascontiguousarray(g0.transpose(0, 2, 3, 1).astype(dtype))
        g_new, g_old = rows.transpose(3, 0, 1, 2), rows.transpose(0, 3, 1, 2)
    else:
        g_old = g0.astype(dtype)
        g_new = np.ascontiguousarray(g_old.transpose(1, 0, 2, 3))
    got, want = [], []
    with precision(dtype):
        for conv, x, g, out_grads in ((conv2d, x0.transpose(1, 0, 2, 3), g_new, got),
                                      (_layout_ref.conv2d, x0, g_old, want)):
            tx = Tensor(np.ascontiguousarray(x), requires_grad=True)
            tk, tb = Tensor(k0, requires_grad=True), Tensor(b0, requires_grad=True)
            cols = im2col(tx.data, *k0.shape[2:], stride, padding) if handed_in and conv is conv2d else None
            out = conv(tx, tk, tb, stride=stride, padding=padding, cols=cols)
            backward(_op(np.zeros((), dtype), (out,), lambda _: (g,)))
            out_grads += [out.data, tx.grad, tk.grad, tb.grad]
    for i in (0, 1):  # out and dx: swap (C, N) back to (N, C)
        got[i] = got[i].transpose(1, 0, 2, 3)
    for name, a, b in zip(("out", "dx", "dW", "db"), got, want):
        assert a.dtype == b.dtype == np.dtype(dtype) and a.shape == b.shape, name
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name


def test_conv2d_rejects_columns_that_do_not_fit():
    x = Tensor(np.zeros((2, 3, 6, 6)))
    k, b = Tensor(np.zeros((4, 2, 3, 3))), Tensor(np.zeros(4))
    fits = im2col(x.data, 3, 3, 1, 1)
    assert conv2d(x, k, b, padding=1, cols=fits).data.shape == (4, 3, 6, 6)
    for cols in (fits[:-1], im2col(x.data, 3, 3, 2, 1), fits.reshape(2, 9, -1)):
        with pytest.raises(ShapeError, match=r"\(C, N, H, W\)"):
            conv2d(x, k, b, padding=1, cols=cols)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_rule_returns_no_dx_for_untracked_input(stride):
    # conv1 reads the image, whose gradient nobody reads: no dx is computed
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(3, 2, 6, 5)))
    k = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    out = conv2d(x, k, Tensor(np.zeros(4)), stride=stride, padding=1)
    dx, dk, _ = out._entry.backward(np.ones_like(out.data))
    assert dx is None and dk.shape == k.data.shape
    backward(dot(out))  # sweep the entry off this thread's tape


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [1, 2])
def test_conv2d_tape_keeps_no_padded_input(stride, padding):
    # after forward the tape holds the output and the im2col columns; the
    # zero-padded copy of the input is freed when conv2d returns
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(8, 4, 16, 16)), requires_grad=True)
    k = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(8))
    tracemalloc.start()
    try:
        out = conv2d(x, k, b, stride=stride, padding=padding)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    columns = k.data[0].size * out.data[0].size * out.data.itemsize
    padded = x.data[:, :, 0, 0].size * (16 + 2 * padding) ** 2 * x.data.itemsize
    overhead = kept - out.data.nbytes - columns
    assert 0 <= overhead < 8192 < padded, (overhead, padded)
    backward(dot(out))  # sweep the entry off this thread's tape


class TestConv2d:
    def test_sum_kernel(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k, Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, [[[[10.0]]]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 2, 5, 5)).astype(np.float32)
        k = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        out = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, x, rtol=1e-6)

    def test_output_geometry(self):
        x = Tensor(np.zeros((1, 1, 7, 9)))
        k = Tensor(np.zeros((2, 1, 3, 3)))
        assert conv2d(x, k, Tensor(np.zeros(2)), stride=2, padding=1).data.shape == (2, 1, 4, 5)

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros(1)))

    def test_direct_matches_im2col(self):
        rng = np.random.default_rng(7)
        with precision("float64"):
            x = Tensor(rng.normal(size=(2, 3, 6, 7)))
            k = Tensor(rng.normal(size=(4, 3, 3, 3)))
            b = Tensor(rng.normal(size=4))
            fast = nchw_conv2d(x, k, b, stride=2, padding=1)
            slow = direct_conv2d(x.data, k.data, b.data, stride=2, padding=1)
            assert np.max(np.abs(fast.data - slow)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_input_kernel_bias(self, seed):
        rng = np.random.default_rng(300 + seed)
        with precision("float64"):
            x0 = rng.uniform(-2, 2, size=(1, 2, 5, 5)).transpose(1, 0, 2, 3).copy()
            k0 = rng.uniform(-2, 2, size=(3, 2, 3, 3))
            b0 = rng.uniform(-2, 2, size=3)
            p = rng.uniform(-1, 1, size=(1, 3, 3, 3)).transpose(1, 0, 2, 3).copy()

            def f(x, k, b):
                out = conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2, padding=1)
                return float(dot(out, p).data)

            tx, tk, tb = (Tensor(a, requires_grad=True) for a in (x0, k0, b0))
            out = conv2d(tx, tk, tb, stride=2, padding=1)
            backward(dot(out, p))
            nx, nk, nb = finite_diff_grads(f, [x0, k0, b0])
            assert max_rel_err(tx.grad, nx) < 1e-6
            assert max_rel_err(tk.grad, nk) < 1e-6
            assert max_rel_err(tb.grad, nb) < 1e-6


class TestGlobalAvgPool:
    def test_constant_input(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 4, 4), 3.0)))
        np.testing.assert_allclose(out.data, np.full((2, 3), 3.0))

    def test_hand_value(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert global_avg_pool(x).data[0, 0] == pytest.approx(2.5)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        with precision("float64"):
            x0 = rng.uniform(-2, 2, size=(2, 3, 3, 4))
            p = rng.uniform(-1, 1, size=(2, 3))

            def f(x):
                return float(dot(global_avg_pool(Tensor(x)), p).data)

            tx = Tensor(x0, requires_grad=True)
            backward(dot(global_avg_pool(tx), p))
            (num,) = finite_diff_grads(f, [x0])
            assert max_rel_err(tx.grad, num) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 2))), [0, 1, 0, 1])
        assert float(loss.data) == pytest.approx(4 * np.log(2.0), abs=1e-6)  # a sum over rows

    def test_saturated(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 100.0
        assert float(softmax_cross_entropy(Tensor(logits), [2]).data) == pytest.approx(0.0, abs=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_is_softmax_minus_onehot(self, seed):
        rng = np.random.default_rng(400 + seed)
        with precision("float64"):
            z0 = rng.uniform(-2, 2, size=(5, 4))
            labels = rng.integers(0, 4, size=5)

            tz = Tensor(z0, requires_grad=True)
            backward(softmax_cross_entropy(tz, labels))

            ez = np.exp(z0 - z0.max(axis=1, keepdims=True))
            soft = ez / ez.sum(axis=1, keepdims=True)
            soft[np.arange(5), labels] -= 1.0
            np.testing.assert_allclose(tz.grad, soft, atol=1e-12)

            def f(z):
                return float(softmax_cross_entropy(Tensor(z), labels).data)

            (num,) = finite_diff_grads(f, [z0])
            assert max_rel_err(tz.grad, num) < 1e-6


class TestBinaryCrossEntropyLogit:
    def test_zero_logit(self):
        for t in (0.0, 1.0):
            loss = binary_cross_entropy_logit(Tensor([0.0]), [t])
            assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-6)

    def test_saturated(self):
        assert float(binary_cross_entropy_logit(Tensor([20.0]), [1.0]).data) == pytest.approx(0.0, abs=1e-6)

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError):
            binary_cross_entropy_logit(Tensor([0.0]), [0.5])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_sigmoid_minus_target(self, seed):
        rng = np.random.default_rng(500 + seed)
        with precision("float64"):
            z0 = rng.uniform(-3, 3, size=6)
            t = rng.integers(0, 2, size=6).astype(float)

            tz = Tensor(z0, requires_grad=True)
            backward(binary_cross_entropy_logit(tz, t))
            sig = 1.0 / (1.0 + np.exp(-z0))
            np.testing.assert_allclose(tz.grad, (sig - t) / 6, atol=1e-12)

            def f(z):
                return float(binary_cross_entropy_logit(Tensor(z), t).data)

            (num,) = finite_diff_grads(f, [z0])
            assert max_rel_err(tz.grad, num) < 1e-6


class TestSmoothL1:
    def test_quadratic_branch(self):
        assert float(smooth_l1(Tensor([0.5]), [0.0]).data) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert float(smooth_l1(Tensor([2.0]), [0.0]).data) == pytest.approx(1.5)

    def test_knee_continuity(self):
        with precision("float64"):
            lo = float(smooth_l1(Tensor([1.0 - 1e-9]), [0.0]).data)
            hi = float(smooth_l1(Tensor([1.0 + 1e-9]), [0.0]).data)
            assert abs(lo - 0.5) < 1e-6 and abs(hi - 0.5) < 1e-6
            assert abs(hi - lo) < 1e-6

    def test_derivative_continuity_at_knee(self):
        with precision("float64"):
            grads = []
            for e in (1.0 - 1e-9, 1.0 + 1e-9):
                p = Tensor([e], requires_grad=True)
                backward(smooth_l1(p, [0.0]))
                grads.append(p.grad[0])
            assert abs(grads[0] - grads[1]) < 1e-6

    def test_gradcheck_away_from_knee(self):
        rng = np.random.default_rng(600)
        with precision("float64"):
            e = rng.uniform(-2, 2, size=8)
            e[np.abs(np.abs(e) - 1.0) < 0.05] += 0.2  # stay off the knee
            t0 = rng.uniform(-0.5, 0.5, size=8)
            e += t0  # the error, pred - target, is e before the shift

            def f(p):
                return float(smooth_l1(Tensor(p), t0).data)

            tp = Tensor(e, requires_grad=True)
            backward(smooth_l1(tp, t0))
            (np_,) = finite_diff_grads(f, [e.copy()])
            assert max_rel_err(tp.grad, np_) < 1e-6


class TestGradReverse:
    def test_forward_is_bit_identical(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = grad_reverse(x, 1.0)
        assert out.data is x.data

    def test_backward_negates(self):
        with precision("float64"):
            x = Tensor([1.0], requires_grad=True)
            backward(dot(grad_reverse(x, 1.0) * 2.0))
            np.testing.assert_allclose(x.grad, [-2.0])

    def test_lambda_zero_annihilates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(dot(grad_reverse(x, 0.0) * 5.0))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_exact_negation_of_unreversed_gradient(self):
        rng = np.random.default_rng(601)
        with precision("float64"):
            x0 = rng.normal(size=(3, 3))
            w0 = rng.normal(size=(3, 2))
            for lam in (1.0, 0.7):
                grads = []
                for use_grl in (True, False):
                    x = Tensor(x0, requires_grad=True)
                    h = grad_reverse(x, lam) if use_grl else x
                    loss = binary_cross_entropy_logit(matmul(h, Tensor(w0)), np.ones((3, 2)))
                    backward(loss)
                    grads.append(x.grad.copy())
                np.testing.assert_allclose(grads[0], -lam * grads[1], atol=1e-15)


class TestGatherConcat:
    def test_gather_rows_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = gather_rows(x, [2, 0, 2])
        np.testing.assert_array_equal(out.data[0], [6.0, 7.0, 8.0])

    def test_gather_rows_backward_accumulates_duplicates(self):
        with precision("float64"):
            x = Tensor(np.ones((4, 2)), requires_grad=True)
            out = gather_rows(x, [1, 1, 3])
            backward(dot(out))
            np.testing.assert_array_equal(x.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    @pytest.mark.parametrize("rows", [slice(2, 5), slice(0, 6), slice(1, 6, 2), slice(4, 0, -2),
                                      slice(3, 3)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gather_rows_slice_matches_index_scatter(self, rows, dtype):
        # a slice's rows: a view forward, and the bytes of np.add.at into zeros
        # backward, also where the gradient holds -0.0
        rng = np.random.default_rng(604)
        with precision(dtype):
            x0 = rng.normal(size=(6, 3)).astype(dtype)
            x = Tensor(x0, requires_grad=True)
            out = gather_rows(x, rows)
            assert out.data.tobytes() == x0[rows].tobytes()
            assert np.shares_memory(out.data, x0) == (out.data.size > 0)
            g = rng.normal(size=out.data.shape).astype(dtype)
            g[::2] = -0.0
            backward(dot(out, g))
        want = np.zeros_like(x0)
        np.add.at(want, np.arange(6)[rows], g)
        assert x.grad.tobytes() == want.tobytes()


class TestCompositeModelGradient:
    def test_conv_relu_matmul_end_to_end(self):
        rng = np.random.default_rng(603)
        with precision("float64"):
            x0 = rng.uniform(-1, 1, size=(1, 1, 6, 6))
            k0 = rng.uniform(-1, 1, size=(2, 1, 3, 3))
            w0 = rng.uniform(-1, 1, size=(2, 3))

            def f(x, k, w):
                h = conv2d(Tensor(x), Tensor(k), Tensor(np.zeros(2)), stride=1, padding=1).relu()
                pooled = global_avg_pool(_layout_ref.swap_nc(h))
                return float(softmax_cross_entropy(matmul(pooled, Tensor(w)), [1]).data)

            tx, tk, tw = (Tensor(a, requires_grad=True) for a in (x0, k0, w0))
            h = conv2d(tx, tk, Tensor(np.zeros(2)), stride=1, padding=1).relu()
            loss = softmax_cross_entropy(matmul(global_avg_pool(_layout_ref.swap_nc(h)), tw), [1])
            backward(loss)
            nx, nk, nw = finite_diff_grads(f, [x0, k0, w0])
            assert max_rel_err(tx.grad, nx) < 1e-6
            assert max_rel_err(tk.grad, nk) < 1e-6
            assert max_rel_err(tw.grad, nw) < 1e-6

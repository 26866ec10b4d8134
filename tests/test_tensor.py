"""Core tensor ops: forward values, tape semantics, finite-difference checks."""

import gc
import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from lirrdet.autodiff import (
    ShapeError,
    TapeError,
    Tensor,
    backward,
    conv2d,
    no_grad,
    precision,
)

from _gradcheck import dot, finite_diff_grads, max_rel_err, reshape, sum_of_squares
from _rep_ref import matmul
from _risk_ref import gather_rows


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestForwardValues:
    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_mul_scalar(self):
        t = Tensor([1.0, 2.0]) * 3.0 + Tensor([1.0, 1.0])
        np.testing.assert_allclose(t.data, [4.0, 7.0])

    # + takes two tensors and * a tensor and then a real scalar; there is no
    # -, no scalar on the left and no tensor or array after *
    @pytest.mark.parametrize("op, form", [
        ("-", lambda t: t - t), ("+", lambda t: t + 1.0), ("*", lambda t: t * t),
        ("*", lambda t: t * np.ones(2)), ("+", lambda t: 1.0 + t), ("*", lambda t: 3.0 * t)],
        ids=["sub", "add_scalar", "mul_tensor", "mul_array", "scalar_add", "scalar_mul"])
    def test_other_forms_raise_type_error(self, op, form):
        with pytest.raises(TypeError, match=rf"\{op}"):
            form(Tensor([1.0, 2.0]))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_matmul_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_allclose(out.data, a)

    def test_matmul_hand(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestTapeSemantics:
    def test_backward_twice_raises(self):
        with precision("float64"):
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = dot(x * 2.0)
            backward(loss)
            with pytest.raises(TapeError):
                backward(loss)

    def test_no_requires_grad_never_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=False)
        loss = dot(x * 2.0)
        # Nothing was tracked: the loss is not connected to any tape.
        with pytest.raises(TapeError):
            backward(loss)
        assert x.grad is None

    def test_loss_is_bare_parameter(self):
        p = Tensor([3.0], requires_grad=True)
        backward(p)
        np.testing.assert_array_equal(p.grad, [1.0])

    def test_unused_parameter_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        backward(dot(x * 2.0))
        assert unused.grad is None
        np.testing.assert_allclose(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            loss = dot(x * 2.0)
        with pytest.raises(TapeError):
            backward(loss)

    def test_grad_accumulates_across_tapes(self):
        with precision("float64"):
            x = Tensor([1.0], requires_grad=True)
            backward(dot(x * 2.0))
            backward(dot(x * 3.0))
            np.testing.assert_allclose(x.grad, [5.0])

    def test_swept_graph_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            x = Tensor(np.ones((2, 1, 5, 5)))
            w = Tensor(np.ones((3, 2, 3, 3)), requires_grad=True)
            hidden = conv2d(x, w, Tensor(np.zeros(3)), padding=1)
            alive = weakref.ref(hidden.data)
            loss = dot(hidden.relu())
            del hidden
            backward(loss)
            del loss
            assert alive() is None
        finally:
            gc.enable()

    def test_tape_counts_only_ops_since_the_last_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(dot(x * 2.0))
        loss = dot(x * 2.0 + x)
        assert len(loss._tape) == 5  # two elementwise ops, then reshape, matmul, reshape

    def test_raising_backward_rule_leaves_nothing_tracked(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        idx = np.array([0, 2])
        doubled = x * 2.0
        rows = gather_rows(doubled, idx)
        loss = dot(rows.relu())
        idx[0] = 99  # gather_rows' backward now scatters out of bounds
        with pytest.raises(IndexError):
            backward(loss)
        assert x.grad is None
        for t in (doubled, rows, loss):
            # an untracked tensor records nothing, so there is no graph to sweep
            with pytest.raises(TapeError):
                backward(dot(t * 1.0))


class TestLifetimes:
    """An entry keeps the producing entries and leaves of its inputs, not the
    input tensors, and holds its output weakly."""

    def test_dropped_intermediate_is_freed_before_backward(self):
        gc.disable()
        try:
            p = Tensor(np.ones((2, 3)), requires_grad=True)
            hidden = p * 2.0
            alive, data = weakref.ref(hidden), weakref.ref(hidden.data)
            loss = dot(hidden.relu() + hidden * 3.0)
            del hidden
            assert alive() is None and data() is None
            backward(loss)
            np.testing.assert_array_equal(p.grad, np.full((2, 3), 8.0))
        finally:
            gc.enable()

    def test_kept_intermediate_is_untracked_after_backward(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        hidden = p * 2.0
        loss = dot(hidden.relu())
        assert hidden._entry is not None
        backward(loss)
        assert hidden._entry is None
        np.testing.assert_array_equal(hidden.data, [2.0, -4.0])
        with pytest.raises(TapeError):
            backward(dot(hidden * 1.0))

    def test_parameter_used_thrice_accumulates_in_sweep_order(self):
        # the last use is swept first: 1 + 2**-24 + 2**-24 rounds to 1 in
        # float32, while the recording order would give 1 + 2**-23
        p = Tensor([1.0], requires_grad=True)
        tiny = 2.0 ** -24
        loss = dot(p * tiny) + dot(p * tiny) + dot(p * 1.0)
        backward(loss)
        one, eps = np.float32(1.0), np.float32(tiny)
        assert p.grad[0] == one + eps + eps == one
        assert eps + eps + one != one

    def test_no_grad_relu_builds_no_mask(self):
        x = Tensor(np.ones(1 << 16), requires_grad=True)
        peaks = []
        for mode in (no_grad(), nullcontext()):
            with mode:
                tracemalloc.start()
                try:
                    y = x.relu()
                    peaks.append(tracemalloc.get_traced_memory()[1] - y.data.nbytes)
                finally:
                    tracemalloc.stop()
        backward(dot(y))  # sweep the recorded relu off this thread's tape
        mask = x.data.size  # one byte per element
        assert peaks[0] < mask // 2 <= mask <= peaks[1], peaks


class TestGradientsAgainstFiniteDifferences:
    def test_sum_of_squares_hand_value(self):
        with precision("float64"):
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            backward(sum_of_squares(x))
            np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

            def f(a):
                return float(np.sum(a * a))

            (num,) = finite_diff_grads(f, [np.array([1.0, 2.0, 3.0])])
            assert max_rel_err(x.grad, num) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        with precision("float64"):
            a0 = rand(rng, 3, 4)
            b0 = rand(rng, 3, 4)
            p = rand(rng, 3, 4)
            # keep relu inputs away from the kink
            a0[np.abs(a0) < 0.1] += 0.3
            b0[np.abs(np.maximum(a0, 0.0) + b0 * 0.5) < 0.1] += 0.5

            def chain(ta, tb):
                return dot((ta.relu() + tb * 0.5).relu() * 2.0 + ta * -1.5, p)

            def f(a, b):
                return float(chain(Tensor(a), Tensor(b)).data)

            ta, tb = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            loss = chain(ta, tb)
            backward(loss)
            num_a, num_b = finite_diff_grads(f, [a0, b0])
            assert max_rel_err(ta.grad, num_a) < 1e-6
            assert max_rel_err(tb.grad, num_b) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_gradcheck(self, seed):
        rng = np.random.default_rng(100 + seed)
        with precision("float64"):
            a0, b0, p = rand(rng, 4, 5), rand(rng, 5, 3), rand(rng, 4, 3)

            def f(a, b):
                return float(dot(matmul(Tensor(a), Tensor(b)), p).data)

            ta, tb = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            backward(dot(matmul(ta, tb), p))
            num_a, num_b = finite_diff_grads(f, [a0, b0])
            assert max_rel_err(ta.grad, num_a) < 1e-6
            assert max_rel_err(tb.grad, num_b) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_reshape_gradcheck(self, seed):
        rng = np.random.default_rng(200 + seed)
        with precision("float64"):
            a0 = rng.uniform(0.5, 2.0, size=(2, 3, 4))
            p = rand(rng, 4, 4)

            def square(t):
                return matmul(reshape(t, 4, 6), reshape(t, 6, 4))

            def f(a):
                return float(dot(square(Tensor(a)), p).data)

            ta = Tensor(a0, requires_grad=True)
            backward(dot(square(ta), p))
            (num,) = finite_diff_grads(f, [a0])
            assert max_rel_err(ta.grad, num) < 1e-6

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_zero_d_product_with_an_op_output(self, dtype):
        # 0-d ops give numpy scalars (np.float64 subclasses float): such data
        # is a real scalar to *, applied as a constant, while its tensor is not
        with precision(dtype):
            p, q = Tensor(2.0, requires_grad=True), Tensor(3.0, requires_grad=True)
            s = p + q
            assert isinstance(s.data, float) == (dtype == "float64")
            with pytest.raises(TypeError, match=r"\*"):
                p * s
            out = p * s.data
            assert out.data.dtype == dtype and float(out.data) == 10.0
            backward(out)
            assert p.grad == 5.0 and q.grad is None

    def test_branching_graph_accumulation(self):
        with precision("float64"):
            x = Tensor([1.5, -0.5], requires_grad=True)
            y = x * 2.0
            loss = sum_of_squares(y) + dot(y * 3.0)

            def f(a):
                ya = a * 2.0
                return float(np.sum(ya * ya) + np.sum(ya * 3.0))

            backward(loss)
            (num,) = finite_diff_grads(f, [np.array([1.5, -0.5])])
            assert max_rel_err(x.grad, num) < 1e-6


class TestPrecisionMode:
    def test_default_float32(self):
        assert Tensor([1.0]).data.dtype == np.float32

    def test_precision_context(self):
        with precision("float64"):
            assert Tensor([1.0]).data.dtype == np.float64
        assert Tensor([1.0]).data.dtype == np.float32

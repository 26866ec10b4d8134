"""Core tensor ops: forward values, tape semantics, finite-difference checks."""

import gc
import weakref

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

from _gradcheck import dot, finite_diff_grads, max_rel_err
from _rep_ref import matmul
from _risk_ref import gather_rows


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestForwardValues:
    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add_mul_scalar(self):
        t = Tensor([1.0, 2.0]) * 3.0 + 1.0
        np.testing.assert_allclose(t.data, [4.0, 7.0])
        # a scalar operand is a Python number: a size-1 tensor is not broadcast
        for one, vec in ((Tensor(np.ones((1, 1))), Tensor(np.arange(3.0))),
                         (Tensor(2.0), Tensor([1.0, 2.0]))):
            for a, b in ((one, vec), (vec, one)):
                with pytest.raises(ShapeError):
                    a * b
        # the scalar goes on the right; a number on the left is no operand
        for op in (lambda t: 3.0 * t, lambda t: 1.0 + t):
            with pytest.raises(TypeError):
                op(Tensor([1.0, 2.0]))

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
            loss = dot(x * x)
            backward(loss)
            with pytest.raises(TapeError):
                backward(loss)

    def test_no_requires_grad_never_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=False)
        loss = dot(x * x)
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
            loss = dot(x * x)
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
        backward(dot(x * x))
        loss = dot((x * 2.0) + 1.0)
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


class TestGradientsAgainstFiniteDifferences:
    def test_sum_of_squares_hand_value(self):
        with precision("float64"):
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            backward(dot(x * x))
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

            def chain(ta, tb):
                return dot(ta.relu() * tb + (ta * 0.5 - tb) * ta - 1.0, p)

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
            p = rand(rng, 4, 6)

            def f(a):
                t = Tensor(a).reshape(4, 6)
                return float(dot(t * t, p).data)

            ta = Tensor(a0, requires_grad=True)
            t = ta.reshape(4, 6)
            backward(dot(t * t, p))
            (num,) = finite_diff_grads(f, [a0])
            assert max_rel_err(ta.grad, num) < 1e-6

    def test_branching_graph_accumulation(self):
        with precision("float64"):
            x = Tensor([1.5, -0.5], requires_grad=True)
            y = x * 2.0
            loss = dot(y * y) + dot(y * 3.0)

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

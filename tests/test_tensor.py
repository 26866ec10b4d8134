"""Core tensor ops: forward values, tape semantics, finite-difference checks."""

import numpy as np
import pytest

from lirrdet.autodiff import (
    ShapeError,
    TapeError,
    Tensor,
    backward,
    matmul,
    no_grad,
    precision,
)

from _gradcheck import finite_diff_grads, max_rel_err


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestForwardValues:
    def test_relu(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_sigmoid_symmetry_point(self):
        assert Tensor([0.0]).sigmoid().data[0] == pytest.approx(0.5)

    def test_add_mul_scalar(self):
        t = Tensor([1.0, 2.0]) * 3.0 + 1.0
        np.testing.assert_allclose(t.data, [4.0, 7.0])
        # a size-1 tensor acts as a scalar, even with more dimensions than its partner
        for one_first in (True, False):
            one = Tensor(np.ones((1, 1)), requires_grad=True)
            vec = Tensor(np.arange(3.0), requires_grad=True)
            out = one * vec if one_first else vec * one
            assert out.shape == (3,)
            backward(out.sum())
            np.testing.assert_allclose(one.grad, [[3.0]])
            np.testing.assert_allclose(vec.grad, [1.0, 1.0, 1.0])

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

    def test_mean_sum(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum().item() == 10.0
        assert x.mean().item() == 2.5
        np.testing.assert_allclose(x.sum(axis=0).data, [4.0, 6.0])


class TestTapeSemantics:
    def test_backward_twice_raises(self):
        with precision("float64"):
            x = Tensor([1.0, 2.0], requires_grad=True)
            loss = (x * x).sum()
            backward(loss)
            with pytest.raises(TapeError):
                backward(loss)

    def test_no_requires_grad_never_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=False)
        loss = (x * x).sum()
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
        backward((x * 2.0).sum())
        assert unused.grad is None
        np.testing.assert_allclose(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x * 2.0)

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            loss = (x * x).sum()
        with pytest.raises(TapeError):
            backward(loss)

    def test_grad_accumulates_across_tapes(self):
        with precision("float64"):
            x = Tensor([1.0], requires_grad=True)
            backward((x * 2.0).sum())
            backward((x * 3.0).sum())
            np.testing.assert_allclose(x.grad, [5.0])


class TestGradientsAgainstFiniteDifferences:
    def test_sum_of_squares_hand_value(self):
        with precision("float64"):
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            backward((x * x).sum())
            np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

            def f(a):
                return float((a * a).sum())

            (num,) = finite_diff_grads(f, [np.array([1.0, 2.0, 3.0])])
            assert max_rel_err(x.grad, num) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        with precision("float64"):
            a0 = rand(rng, 3, 4)
            b0 = rand(rng, 3, 4)
            # keep relu inputs away from the kink and log inputs positive
            a0[np.abs(a0) < 0.1] += 0.3

            def f(a, b):
                ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
                out = (ta.relu() * tb + (ta * 0.5).sigmoid()).exp().mean()
                return float(out.data)

            ta, tb = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            loss = (ta.relu() * tb + (ta * 0.5).sigmoid()).exp().mean()
            backward(loss)
            num_a, num_b = finite_diff_grads(f, [a0, b0])
            assert max_rel_err(ta.grad, num_a) < 1e-6
            assert max_rel_err(tb.grad, num_b) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_gradcheck(self, seed):
        rng = np.random.default_rng(100 + seed)
        with precision("float64"):
            a0, b0 = rand(rng, 4, 5), rand(rng, 5, 3)

            def f(a, b):
                return float(matmul(Tensor(a), Tensor(b)).sum().data)

            ta, tb = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            backward(matmul(ta, tb).sum())
            num_a, num_b = finite_diff_grads(f, [a0, b0])
            assert max_rel_err(ta.grad, num_a) < 1e-6
            assert max_rel_err(tb.grad, num_b) < 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_reshape_transpose_log(self, seed):
        rng = np.random.default_rng(200 + seed)
        with precision("float64"):
            a0 = rng.uniform(0.5, 2.0, size=(2, 3, 4))

            def f(a):
                t = Tensor(a)
                return float(t.transpose(2, 0, 1).reshape(4, 6).log().mean().data)

            ta = Tensor(a0, requires_grad=True)
            backward(ta.transpose(2, 0, 1).reshape(4, 6).log().mean())
            (num,) = finite_diff_grads(f, [a0])
            assert max_rel_err(ta.grad, num) < 1e-6

    def test_branching_graph_accumulation(self):
        with precision("float64"):
            x = Tensor([1.5, -0.5], requires_grad=True)
            y = x * 2.0
            loss = (y * y).sum() + (y * 3.0).sum()

            def f(a):
                ya = a * 2.0
                return float((ya * ya).sum() + (ya * 3.0).sum())

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

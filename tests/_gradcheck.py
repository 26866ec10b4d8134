"""Finite-difference gradient oracle shared by the autodiff test modules.

The oracle never touches the tape: it re-evaluates the forward function on
perturbed raw arrays, so it stays independent of the code path it checks.
``dot`` reduces a tensor to the scalar a gradient check differentiates.
"""

import numpy as np

from lirrdet.autodiff import Tensor

from _rep_ref import matmul

H = 1e-5


def dot(t, p=None):
    """The tracked scalar <t, p>: one matmul of t, flattened, with a fixed
    array p of t's shape (all ones, which sums t, when p is None)."""
    p = np.ones(t.data.shape) if p is None else np.asarray(p)
    return matmul(t.reshape(1, -1), Tensor(p.reshape(-1, 1))).reshape(())


def finite_diff_grads(fn, arrays, h=H):
    """Central-difference gradients of a scalar function of numpy arrays.

    fn(*arrays) -> float is re-evaluated 2 * total_size times. Arrays are
    perturbed in place and restored.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(*arrays)
            flat[i] = orig - h
            fm = fn(*arrays)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    assert a.shape == n.shape, f"gradient shapes differ: {a.shape} vs {n.shape}"
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0

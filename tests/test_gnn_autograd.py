"""Tests for the autograd engine, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.gnn import autograd as ag
from repro.gnn.autograd import Parameter, Tensor, no_grad
from repro.gnn.backends import make_backend

from helpers import random_csr


def numerical_gradient(func, array, eps=1e-3):
    """Central finite differences of a scalar-valued function."""
    grad = np.zeros_like(array, dtype=np.float64)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = func()
        flat[i] = original - eps
        down = func()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build_loss, param, rtol=5e-2, atol=5e-3):
    """Compare autograd gradients with finite differences for one parameter."""
    loss = build_loss()
    loss.backward()
    auto = param.grad.copy()
    param.zero_grad()
    numeric = numerical_gradient(lambda: float(build_loss().data), param.data)
    np.testing.assert_allclose(auto, numeric, rtol=rtol, atol=atol)


def test_tensor_basics(rng):
    t = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    assert t.shape == (3, 4)
    assert t.ndim == 2
    assert isinstance(Parameter(np.zeros(2)).requires_grad, bool)
    assert Parameter(np.zeros(2)).requires_grad


def test_backward_requires_scalar(rng):
    t = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    out = ag.mul(t, t)
    with pytest.raises(ValueError):
        out.backward()


def test_no_grad_disables_recording(rng):
    a = Parameter(rng.standard_normal((2, 2)))
    with no_grad():
        out = ag.matmul(a, a)
    assert out.requires_grad is False
    assert out._backward is None


def test_add_mul_gradients(rng):
    a = Parameter(rng.standard_normal((4, 3)))
    b = Parameter(rng.standard_normal((4, 3)))

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.add(ag.mul(a, b), a)), np.zeros(4, dtype=int))

    check_gradient(loss, a)
    a.zero_grad(), b.zero_grad()
    check_gradient(loss, b)


def test_broadcast_add_bias_gradient(rng):
    x = Tensor(rng.standard_normal((5, 3)))
    bias = Parameter(rng.standard_normal(3))

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.add(x, bias)), np.zeros(5, dtype=int))

    check_gradient(loss, bias)


def test_matmul_gradient(rng):
    x = Tensor(rng.standard_normal((6, 4)))
    w = Parameter(rng.standard_normal((4, 3)) * 0.5)
    labels = rng.integers(0, 3, size=6)

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.matmul(x, w)), labels)

    check_gradient(loss, w)


def test_relu_gradient(rng):
    w = Parameter(rng.standard_normal((5, 4)))
    labels = rng.integers(0, 4, size=5)

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.relu(w)), labels)

    check_gradient(loss, w)


def test_log_softmax_rows_sum_to_one(rng):
    x = Tensor(rng.standard_normal((7, 5)))
    out = ag.log_softmax(x)
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(7), rtol=1e-5)


def test_nll_loss_with_mask(rng):
    logits = Parameter(rng.standard_normal((6, 3)))
    labels = rng.integers(0, 3, size=6)
    mask = np.array([True, False, True, False, True, False])

    def loss():
        return ag.nll_loss(ag.log_softmax(logits), labels, mask)

    check_gradient(loss, logits)
    with pytest.raises(ValueError):
        ag.nll_loss(ag.log_softmax(logits), labels, np.zeros(6, dtype=bool))


def test_dropout_training_and_eval(rng):
    x = Tensor(np.ones((100, 10)), requires_grad=True)
    gen = np.random.default_rng(0)
    out_eval = ag.dropout(x, 0.5, gen, training=False)
    assert out_eval is x
    out_train = ag.dropout(x, 0.5, gen, training=True)
    kept = out_train.data != 0
    # Inverted dropout rescales kept activations.
    assert np.allclose(out_train.data[kept], 2.0)
    with pytest.raises(ValueError):
        ag.dropout(x, 1.0, gen)


def test_row_l2_normalize_gradient(rng):
    w = Parameter(rng.standard_normal((4, 5)) + 0.5)
    labels = rng.integers(0, 5, size=4)

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.row_l2_normalize(w)), labels)

    check_gradient(loss, w)
    normalized = ag.row_l2_normalize(Tensor(rng.standard_normal((6, 3))))
    np.testing.assert_allclose(np.linalg.norm(normalized.data, axis=1), np.ones(6), rtol=1e-5)


def test_spmm_op_matches_adjacency_product(rng):
    adj = random_csr(24, 24, 0.2, seed=9)
    backend = make_backend("dgl", adj)
    dense = Tensor(rng.standard_normal((24, 5)), requires_grad=True)
    out = ag.spmm(backend, None, dense)
    np.testing.assert_allclose(out.data, adj.to_dense() @ dense.data, rtol=1e-4, atol=1e-4)


def test_spmm_gradient_wrt_dense(rng):
    adj = random_csr(16, 16, 0.25, seed=10)
    backend = make_backend("dgl", adj)
    dense = Parameter(rng.standard_normal((16, 3)))
    labels = rng.integers(0, 3, size=16)

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.spmm(backend, None, dense)), labels)

    check_gradient(loss, dense)


def test_spmm_gradient_wrt_edge_values(rng):
    adj = random_csr(12, 12, 0.3, seed=11)
    backend = make_backend("dgl", adj)
    dense = Tensor(rng.standard_normal((12, 3)))
    values = Parameter(rng.standard_normal(adj.nnz))
    labels = rng.integers(0, 3, size=12)

    def loss():
        return ag.nll_loss(ag.log_softmax(ag.spmm(backend, values, dense)), labels)

    check_gradient(loss, values)


def test_sddmm_op_matches_reference(rng):
    adj = random_csr(20, 20, 0.2, seed=12)
    backend = make_backend("dgl", adj)
    a = Tensor(rng.standard_normal((20, 6)))
    b = Tensor(rng.standard_normal((20, 6)))
    out = ag.sddmm(backend, a, b)
    rows = np.repeat(np.arange(20), np.diff(adj.indptr).astype(int))
    cols = adj.indices
    expected = np.einsum("ij,ij->i", a.data[rows], b.data[cols])
    np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)


def test_sddmm_gradient(rng):
    adj = random_csr(10, 10, 0.3, seed=13)
    backend = make_backend("dgl", adj)
    a = Parameter(rng.standard_normal((10, 4)) * 0.5)
    b = Tensor(rng.standard_normal((10, 4)))
    dense = Tensor(rng.standard_normal((10, 3)))
    labels = rng.integers(0, 3, size=10)

    def loss():
        edge = ag.sddmm(backend, a, b)
        att = ag.edge_softmax(backend, edge)
        return ag.nll_loss(ag.log_softmax(ag.spmm(backend, att, dense)), labels)

    check_gradient(loss, a, rtol=8e-2, atol=8e-3)


def test_edge_softmax_normalizes_rows(rng):
    adj = random_csr(15, 15, 0.3, seed=14)
    backend = make_backend("dgl", adj)
    logits = Tensor(rng.standard_normal(adj.nnz))
    out = ag.edge_softmax(backend, logits)
    indptr = adj.indptr
    for r in range(15):
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        if lo < hi:
            assert out.data[lo:hi].sum() == pytest.approx(1.0, rel=1e-5)

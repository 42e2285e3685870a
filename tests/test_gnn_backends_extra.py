"""Additional backend and end-to-end coverage for the GNN substrate."""

import numpy as np
import pytest

import repro
from repro.formats.csr import CSRMatrix
from repro.gnn import AGNNLayer, ServedBackend, Tensor
from repro.gnn.backends import make_backend
from repro.gnn.end_to_end import estimate_epoch_time
from repro.gpu.device import H100_PCIE, RTX4090
from repro.precision.types import Precision

from helpers import composed_layer, random_csr


@pytest.fixture
def adjacency():
    return random_csr(64, 64, 0.1, seed=42)


def test_spmm_backward_gradients_match_dense_reference(adjacency, rng):
    backend = make_backend("dgl", adjacency)
    dense = rng.standard_normal((64, 6)).astype(np.float32)
    grad_out = rng.standard_normal((64, 6)).astype(np.float32)
    grad_values, grad_dense = backend.spmm_backward(None, dense, grad_out)
    assert grad_values is None
    np.testing.assert_allclose(grad_dense, adjacency.to_dense().T @ grad_out, rtol=1e-3, atol=1e-3)


def test_spmm_backward_with_edge_values(adjacency, rng):
    backend = make_backend("dgl", adjacency)
    values = rng.standard_normal(adjacency.nnz).astype(np.float32)
    dense = rng.standard_normal((64, 4)).astype(np.float32)
    grad_out = rng.standard_normal((64, 4)).astype(np.float32)
    grad_values, grad_dense = backend.spmm_backward(values, dense, grad_out)
    rows = np.repeat(np.arange(64), np.diff(adjacency.indptr).astype(int))
    cols = adjacency.indices
    expected_values = np.einsum("ij,ij->i", grad_out[rows], dense[cols])
    np.testing.assert_allclose(grad_values, expected_values, rtol=1e-3, atol=1e-3)
    weighted = adjacency.with_values(values).to_dense()
    np.testing.assert_allclose(grad_dense, weighted.T @ grad_out, rtol=1e-3, atol=1e-3)


def test_sddmm_backward_scatter(adjacency, rng):
    backend = make_backend("dgl", adjacency)
    a = rng.standard_normal((64, 5)).astype(np.float32)
    b = rng.standard_normal((64, 5)).astype(np.float32)
    grad_edges = rng.standard_normal(adjacency.nnz).astype(np.float32)
    grad_a, grad_b = backend.sddmm_backward(a, b, grad_edges)
    weighted = adjacency.with_values(grad_edges).to_dense()
    np.testing.assert_allclose(grad_a, weighted @ b, rtol=1e-3, atol=1e-3)
    np.testing.assert_allclose(grad_b, weighted.T @ a, rtol=1e-3, atol=1e-3)


def test_edge_softmax_handles_empty_rows(rng):
    # A matrix with an empty row must not produce NaNs in the softmax.
    dense = np.zeros((8, 8))
    dense[0, 1] = 1.0
    dense[2, [0, 3, 5]] = 1.0
    adjacency = CSRMatrix.from_dense(dense)
    backend = make_backend("flashsparse-fp16", adjacency)
    logits = rng.standard_normal(adjacency.nnz).astype(np.float32)
    softmax = backend.edge_softmax_forward(logits)
    assert np.isfinite(softmax).all()
    assert softmax[:1].sum() == pytest.approx(1.0)
    grad = backend.edge_softmax_backward(softmax, np.ones_like(softmax))
    assert np.isfinite(grad).all()


def test_precision_quantisation_is_applied(adjacency):
    fp16 = make_backend("flashsparse-fp16", adjacency)
    fp32 = make_backend("dgl", adjacency)
    # A value that FP16 cannot represent exactly.
    dense = np.full((64, 2), 1.0 + 2.0**-12, dtype=np.float64)
    out16 = fp16.spmm_forward(None, dense)
    out32 = fp32.spmm_forward(None, dense)
    assert not np.allclose(out16, out32, atol=0)
    np.testing.assert_allclose(out16, out32, rtol=1e-2)


def _with_empty_rows_and_columns(shape, seed) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal(shape) * (rng.random(shape) < 0.2)
    dense[[1, 4]] = 0.0
    dense[:, [0, 3]] = 0.0
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize("name", ["flashsparse-fp16", "flashsparse-tf32", "tcgnn"])
def test_fixed_adjacency_spmm_matches_the_kernel(name, rng):
    """GCN's fixed-adjacency SpMM (``values=None``) quantises ``A`` the way
    the kernel it emulates does: forward and backward are ``array_equal``
    to :func:`repro.spmm` on ``A`` and ``Aᵀ`` at the backend's precision."""
    for seed, shape in enumerate([(48, 48), (70, 50)]):
        adj = _with_empty_rows_and_columns(shape, seed)
        adj_t = CSRMatrix.from_scipy(adj.to_scipy().T)
        backend = make_backend(name, adj)
        dense = rng.standard_normal((shape[1], 7)).astype(np.float32)
        grad_out = rng.standard_normal((shape[0], 7)).astype(np.float32)
        p = backend.precision
        np.testing.assert_array_equal(
            backend.spmm_forward(None, dense), repro.spmm(adj, dense, precision=p).values
        )
        grad_values, grad_dense = backend.spmm_backward(None, dense, grad_out)
        assert grad_values is None
        np.testing.assert_array_equal(
            grad_dense, repro.spmm(adj_t, grad_out, precision=p).values
        )


@pytest.mark.parametrize("precision", ["fp16", "tf32"])
def test_in_process_agnn_forward_matches_served(precision, rng):
    """The in-process AGNN layer, the served one and the three-kernel
    composition are the same numerics: outputs ``array_equal``."""
    from repro.serve import Server

    adj = random_csr(90, 90, 0.08, seed=21)
    h = rng.standard_normal((90, 16)).astype(np.float32)
    expected = AGNNLayer()(make_backend(f"flashsparse-{precision}", adj), Tensor(h)).data
    with Server(precision=precision, workers=1) as srv:
        served = ServedBackend(server=srv, adjacency=adj).agnn_forward(h)
    np.testing.assert_array_equal(expected, served)
    norms = np.sqrt((h**2).sum(axis=1, keepdims=True)) + np.float32(1e-12)
    h_norm = (h / norms).astype(np.float32)
    np.testing.assert_array_equal(
        expected, composed_layer(adj, h_norm, h_norm, h, 1.0, precision=precision)
    )


def test_backend_stats_accumulate(adjacency, rng):
    backend = make_backend("flashsparse-tf32", adjacency)
    dense = rng.standard_normal((64, 4))
    backend.spmm_forward(None, dense)
    backend.sddmm_forward(dense, dense)
    backend.edge_softmax_forward(np.zeros(adjacency.nnz, dtype=np.float32))
    assert backend.stats.spmm_calls == 1
    assert backend.stats.sddmm_calls == 1
    assert backend.stats.edge_softmax_calls == 1


def test_framework_overhead_reflected_in_profiles(adjacency):
    assert make_backend("dgl", adjacency).framework_overhead_us > 0
    assert make_backend("pyg", adjacency).framework_overhead_us > 0
    assert make_backend("flashsparse-fp16", adjacency).framework_overhead_us == 0


@pytest.mark.parametrize("model_kind,hidden", [("gcn", 128), ("agnn", 32)])
def test_epoch_estimates_scale_with_graph_size(model_kind, hidden):
    small = random_csr(256, 256, 0.02, seed=1)
    large = random_csr(2048, 2048, 0.02, seed=2)
    t_small = estimate_epoch_time(model_kind, small, "flashsparse-fp16", RTX4090, hidden=hidden).total_time_s
    t_large = estimate_epoch_time(model_kind, large, "flashsparse-fp16", RTX4090, hidden=hidden).total_time_s
    assert t_large > t_small


def test_epoch_estimates_differ_across_devices(adjacency):
    t_h100 = estimate_epoch_time("gcn", adjacency, "dgl", H100_PCIE, hidden=128).total_time_s
    t_4090 = estimate_epoch_time("gcn", adjacency, "dgl", RTX4090, hidden=128).total_time_s
    assert t_h100 != t_4090


def test_agnn_estimate_includes_sddmm_cost(adjacency):
    gcn = estimate_epoch_time("gcn", adjacency, "flashsparse-fp16", RTX4090, hidden=32)
    agnn = estimate_epoch_time("agnn", adjacency, "flashsparse-fp16", RTX4090, hidden=32)
    # AGNN runs SDDMM on top of SpMM, so its sparse share is larger.
    assert agnn.sparse_time_s > gcn.sparse_time_s


def test_tf32_backend_precision_enum(adjacency):
    backend = make_backend("flashsparse-tf32", adjacency)
    assert backend.precision is Precision.TF32
    assert backend.name == "FlashSparse-TF32"

"""Parity of the backend's edge softmax against the per-row oracle.

``SparseBackend`` runs the edge softmax as the vectorized segment ops of
:mod:`repro.ops`; ``tests/helpers.py`` keeps the per-row loops as the oracle.
Both must agree to FP32 round-off on every graph shape, including graphs
with isolated (edge-less) nodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr, reference_edge_softmax_backward, reference_edge_softmax_forward

from repro.formats.csr import CSRMatrix
from repro.gnn.backends import make_backend

GRAPHS = {
    "dense-ish": lambda: random_csr(60, 60, 0.15, seed=3),
    "sparse": lambda: random_csr(200, 200, 0.01, seed=5),
    "single-edge": lambda: random_csr(16, 16, 0.0, ensure_nonempty=True, seed=1),
}


def _graph_with_isolated_nodes() -> CSRMatrix:
    dense = np.zeros((30, 30))
    rng = np.random.default_rng(8)
    dense[::3, ::2] = rng.random((10, 15)) > 0.5  # rows 1,2,4,5,... isolated
    return CSRMatrix.from_dense(dense)


GRAPHS["isolated-nodes"] = _graph_with_isolated_nodes


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_forward_matches_reference_oracle(name, rng):
    backend = make_backend("flashsparse-fp16", GRAPHS[name]())
    logits = (rng.standard_normal(backend.adjacency.nnz) * 8).astype(np.float32)
    out = backend.edge_softmax_forward(logits)
    ref = reference_edge_softmax_forward(logits, backend.adjacency.indptr)
    assert out.dtype == ref.dtype == np.float32
    np.testing.assert_allclose(out, ref, atol=2e-7)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_backward_matches_reference_oracle(name, rng):
    backend = make_backend("flashsparse-fp16", GRAPHS[name]())
    nnz = backend.adjacency.nnz
    softmax = backend.edge_softmax_forward(rng.standard_normal(nnz))
    grad_out = rng.standard_normal(nnz).astype(np.float32)
    grad = backend.edge_softmax_backward(softmax, grad_out)
    ref = reference_edge_softmax_backward(softmax, grad_out, backend.adjacency.indptr)
    # The vectorized path accumulates the inner product in float64, the
    # oracle in float32 — they agree to FP32 round-off.
    np.testing.assert_allclose(grad, ref, atol=1e-6, rtol=1e-5)


def test_forward_rows_are_normalised(rng):
    csr = GRAPHS["dense-ish"]()
    backend = make_backend("dgl", csr)
    out = backend.edge_softmax_forward(rng.standard_normal(csr.nnz) * 40)
    for r in range(csr.n_rows):
        lo, hi = int(csr.indptr[r]), int(csr.indptr[r + 1])
        if lo < hi:
            assert abs(float(out[lo:hi].sum()) - 1.0) < 1e-5
            assert (out[lo:hi] >= 0).all()

"""Integration tests across subsystems: kernels + formats + perf model + GNN."""

import numpy as np
import pytest

from repro import FlashSparseMatrix, sddmm, spmm
from repro.baselines import KERNEL_BASELINES, get_baseline
from repro.datasets import make_graph, suitesparse_like_collection
from repro.gnn import estimate_epoch_time, make_backend, make_dataset
from repro.gnn.train import train_gcn_accuracy
from repro.gpu.device import H100_PCIE, RTX4090
from repro.kernels import (
    FLASH_SPMM_PROFILE,
    spmm_flash_cost,
    spmm_tcu16_cost,
)
from repro.kernels.common import FlashSparseConfig
from repro.perfmodel import estimate_time, geometric_mean, spmm_useful_flops

from helpers import random_csr


def test_attention_pipeline_sddmm_then_spmm(rng):
    """AGNN's operator pipeline through the public API: SDDMM -> softmax -> SpMM."""
    adj = random_csr(96, 96, 0.06, seed=21)
    features = rng.standard_normal((96, 32))
    att = sddmm(adj, features, features, precision="fp16")
    # Row-softmax the attention scores on the sparse pattern.
    att_csr = att.to_csr()
    logits = att_csr.to_scipy()
    dense_att = np.zeros_like(logits.toarray())
    arr = logits.toarray()
    mask = adj.to_dense() != 0
    for r in range(96):
        row_mask = mask[r]
        if row_mask.any():
            row = arr[r][row_mask]
            row = np.exp(row - row.max())
            dense_att[r][row_mask] = row / row.sum()
    aggregated = spmm(FlashSparseMatrix.from_dense(dense_att), features, precision="fp16")
    reference = dense_att @ features
    np.testing.assert_allclose(aggregated.values, reference, rtol=5e-2, atol=5e-2)


def test_spmm_speedup_shape_on_a_graph_standin():
    """Figure 11's qualitative shape on a single graph: FlashSparse leads all baselines."""
    graph = make_graph("reddit")
    n_dense = 128
    flash_counter = spmm_flash_cost(graph, n_dense, FlashSparseConfig(precision="fp16"))
    flash_time = estimate_time(flash_counter, RTX4090, FLASH_SPMM_PROFILE).total_time_s
    for name in KERNEL_BASELINES:
        baseline = get_baseline(name)
        time_s = estimate_time(baseline.spmm_cost(graph, n_dense), RTX4090, baseline.profile).total_time_s
        assert time_s > flash_time, f"{name} should be slower than FlashSparse on Reddit"


def test_speedup_ordering_dtc_vs_rode_vs_tcgnn():
    """DTC-SpMM beats TC-GNN; FlashSparse beats both (Section 4.1's narrative)."""
    graph = make_graph("ogbproducts")
    n_dense = 128
    flash = estimate_time(
        spmm_flash_cost(graph, n_dense, FlashSparseConfig(precision="fp16")),
        RTX4090,
        FLASH_SPMM_PROFILE,
    ).total_time_s
    dtc = get_baseline("DTC-SpMM")
    tcgnn = get_baseline("TC-GNN")
    t_dtc = estimate_time(dtc.spmm_cost(graph, n_dense), RTX4090, dtc.profile).total_time_s
    t_tcgnn = estimate_time(tcgnn.spmm_cost(graph, n_dense), RTX4090, tcgnn.profile).total_time_s
    assert flash < t_dtc < t_tcgnn


def test_ablation_vector_size_speedup_in_paper_range():
    """Figure 14: 8x1 vs 16x1 (same machinery) speedup lands in a plausible band."""
    speedups = []
    for name in ("reddit", "blog", "artist", "amazon"):
        graph = make_graph(name)
        flash = estimate_time(
            spmm_flash_cost(graph, 128, FlashSparseConfig(precision="fp16")),
            H100_PCIE,
            FLASH_SPMM_PROFILE,
        ).total_time_s
        v16 = estimate_time(
            spmm_tcu16_cost(graph, 128, FlashSparseConfig(precision="fp16")),
            H100_PCIE,
            FLASH_SPMM_PROFILE,
        ).total_time_s
        speedups.append(v16 / flash)
    geo = geometric_mean(speedups)
    # The paper reports 1.89x geomean (up to 3.44x); accept a generous band.
    assert 1.2 <= geo <= 3.5


def test_coalescing_ablation_speedup_positive():
    """Figure 15: coalesced mapping is faster than the direct mapping.

    The gain shows on reuse-heavy matrices (Reddit); on small, low-degree
    graphs the kernel is bound by the compulsory footprint and the two
    mappings tie — the same reason the paper's average gain (1.18-1.34x) is
    far below the 2x transaction reduction.
    """
    graph = make_graph("reddit")
    coalesced = estimate_time(
        spmm_flash_cost(graph, 128, FlashSparseConfig(precision="fp16", coalesced=True)),
        RTX4090,
        FLASH_SPMM_PROFILE,
    ).total_time_s
    direct = estimate_time(
        spmm_flash_cost(graph, 128, FlashSparseConfig(precision="fp16", coalesced=False)),
        RTX4090,
        FLASH_SPMM_PROFILE,
    ).total_time_s
    assert 1.05 < direct / coalesced < 2.5
    # On a tiny low-degree graph the two mappings may tie but never invert.
    small = make_graph("ell")
    c_small = estimate_time(
        spmm_flash_cost(small, 128, FlashSparseConfig(precision="fp16", coalesced=True)),
        RTX4090,
        FLASH_SPMM_PROFILE,
    ).total_time_s
    d_small = estimate_time(
        spmm_flash_cost(small, 128, FlashSparseConfig(precision="fp16", coalesced=False)),
        RTX4090,
        FLASH_SPMM_PROFILE,
    ).total_time_s
    assert d_small >= c_small


def test_collection_sweep_runs_quickly_and_flash_wins_geomean():
    """A miniature Figure 11 sweep over the synthetic collection."""
    cases = suitesparse_like_collection(num_matrices=6, seed=0, include_graphs=False)
    rode = get_baseline("RoDe")
    speedups = []
    for case in cases:
        flash = estimate_time(
            spmm_flash_cost(case.matrix, 128, FlashSparseConfig(precision="fp16")),
            RTX4090,
            FLASH_SPMM_PROFILE,
        ).total_time_s
        base = estimate_time(rode.spmm_cost(case.matrix, 128), RTX4090, rode.profile).total_time_s
        speedups.append(base / flash)
    assert geometric_mean(speedups) > 1.0


def test_throughput_is_in_a_plausible_gflops_range():
    """Absolute GFLOPS of FlashSparse land in the paper's order of magnitude."""
    graph = make_graph("amazonproducts")
    counter = spmm_flash_cost(graph, 256, FlashSparseConfig(precision="fp16"))
    est = estimate_time(counter, RTX4090, FLASH_SPMM_PROFILE)
    useful = spmm_useful_flops(graph.nnz, 256)
    gflops = useful / est.total_time_s / 1e9
    # Paper: geometric-mean 4888 GFLOPS, up to 26 TFLOPS on RTX 4090.  The
    # scaled-down stand-ins land lower; require the right order of magnitude.
    assert 200 < gflops < 30_000


def test_end_to_end_gnn_training_and_estimation_combined():
    """Train a small GCN with the FlashSparse backend and estimate its epoch time."""
    dataset = make_dataset("ell")
    result = train_gcn_accuracy(dataset, "flashsparse-tf32", epochs=30, hidden=16, num_layers=2)
    assert result.test_accuracy > 0.6
    adj = dataset.normalized_adjacency()
    flash_est = estimate_epoch_time("gcn", adj, "flashsparse-tf32", H100_PCIE, hidden=128)
    dgl_est = estimate_epoch_time("gcn", adj, "dgl", H100_PCIE, hidden=128)
    assert flash_est.total_time_s < dgl_est.total_time_s


def test_backend_precision_does_not_change_training_outcome_much():
    dataset = make_dataset("questions")
    accs = {}
    for backend in ("flashsparse-fp16", "flashsparse-tf32", "dgl"):
        accs[backend] = train_gcn_accuracy(dataset, backend, epochs=30, hidden=16, num_layers=2).test_accuracy
    spread = max(accs.values()) - min(accs.values())
    assert spread < 0.06


def test_full_pipeline_from_scipy_to_device_estimate(rng):
    """The README quickstart path, end to end."""
    import scipy.sparse as sp

    adj = sp.random(256, 256, density=0.02, format="csr", random_state=0)
    matrix = FlashSparseMatrix.from_scipy(adj)
    dense = rng.standard_normal((256, 64))
    result = spmm(matrix, dense, precision="fp16", device="h100")
    np.testing.assert_allclose(result.values, adj @ dense, rtol=3e-2, atol=3e-2)
    assert result.estimate.total_time_s > 0
    assert result.counter.total_mma > 0
    assert result.gflops > 0

"""Tests for GNN layers, models, backends, datasets and training."""

import numpy as np
import pytest

from repro.gnn import (
    AGNN,
    GCN,
    BACKEND_NAMES,
    TABLE8_DATASETS,
    estimate_epoch_time,
    evaluate_accuracy,
    make_backend,
    make_dataset,
    train_node_classifier,
)
from repro.gnn.autograd import Tensor
from repro.gnn.backends import SparseBackend
from repro.gnn.layers import AGNNLayer, GCNLayer, Linear
from repro.gnn.train import Adam, train_gcn_accuracy
from repro.gpu.device import RTX4090
from repro.precision.types import Precision

from helpers import random_csr


@pytest.fixture
def tiny_dataset():
    return make_dataset("cora", seed=7)


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------
def test_backend_names_and_construction(tiny_dataset):
    adj = tiny_dataset.normalized_adjacency()
    for name in BACKEND_NAMES:
        backend = make_backend(name, adj)
        assert isinstance(backend, SparseBackend)
        assert backend.adjacency.nnz == adj.nnz
    with pytest.raises(KeyError):
        make_backend("bogus", adj)


def test_backend_precisions(tiny_dataset):
    adj = tiny_dataset.normalized_adjacency()
    assert make_backend("flashsparse-fp16", adj).precision is Precision.FP16
    assert make_backend("flashsparse-tf32", adj).precision is Precision.TF32
    assert make_backend("dgl", adj).precision is Precision.FP32
    assert make_backend("tcgnn", adj).precision is Precision.TF32


def test_backend_spmm_numerics(rng):
    adj = random_csr(32, 32, 0.2, seed=5)
    dense = rng.standard_normal((32, 8))
    ref = adj.to_dense() @ dense
    for name in ("flashsparse-fp16", "dgl"):
        backend = make_backend(name, adj)
        out = backend.spmm_forward(None, dense)
        np.testing.assert_allclose(out, ref, rtol=2e-2, atol=2e-2)
    assert backend.stats.spmm_calls > 0


def test_backend_cost_model_times(tiny_dataset):
    adj = tiny_dataset.normalized_adjacency()
    flash = make_backend("flashsparse-fp16", adj)
    dgl = make_backend("dgl", adj)
    t_flash = flash.spmm_time(128, RTX4090)
    t_dgl = dgl.spmm_time(128, RTX4090)
    assert t_flash > 0 and t_dgl > 0
    assert t_flash < t_dgl  # FlashSparse's SpMM is faster under the cost model
    assert flash.sddmm_time(32, RTX4090) > 0


# ---------------------------------------------------------------------------
# Layers and models
# ---------------------------------------------------------------------------
def test_linear_layer_shapes(rng):
    layer = Linear(6, 4, seed=0)
    out = layer(Tensor(rng.standard_normal((10, 6))))
    assert out.shape == (10, 4)
    assert len(layer.parameters()) == 2


def test_gcn_layer_aggregates_neighbours(rng):
    adj = random_csr(16, 16, 0.25, seed=3)
    backend = make_backend("dgl", adj)
    layer = GCNLayer(5, 3, seed=0)
    h = Tensor(rng.standard_normal((16, 5)))
    out = layer(backend, h)
    expected = adj.to_dense() @ (h.data @ layer.linear.weight.data + layer.linear.bias.data)
    np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)


def test_agnn_layer_output_shape_and_params(rng):
    adj = random_csr(20, 20, 0.3, seed=4)
    backend = make_backend("flashsparse-fp16", adj)
    layer = AGNNLayer()
    h = Tensor(rng.standard_normal((20, 6)))
    out = layer(backend, h)
    assert out.shape == (20, 6)
    assert len(layer.parameters()) == 1  # the scalar beta


def test_gcn_model_forward_and_parameters(tiny_dataset):
    backend = make_backend("flashsparse-fp16", tiny_dataset.normalized_adjacency())
    model = GCN(tiny_dataset.num_features, 16, tiny_dataset.num_classes, num_layers=3, seed=0)
    out = model(backend, Tensor(tiny_dataset.features))
    assert out.shape == (tiny_dataset.num_nodes, tiny_dataset.num_classes)
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-4)
    assert len(model.parameters()) == 6  # 3 layers x (W, b)
    with pytest.raises(ValueError):
        GCN(4, 4, 2, num_layers=1)


def test_agnn_model_forward(tiny_dataset):
    backend = make_backend("flashsparse-fp16", tiny_dataset.normalized_adjacency())
    model = AGNN(tiny_dataset.num_features, 8, tiny_dataset.num_classes, num_attention_layers=2, seed=0)
    out = model(backend, Tensor(tiny_dataset.features))
    assert out.shape == (tiny_dataset.num_nodes, tiny_dataset.num_classes)
    with pytest.raises(ValueError):
        AGNN(4, 4, 2, num_attention_layers=0)


def test_model_train_eval_mode_toggles(tiny_dataset):
    model = GCN(tiny_dataset.num_features, 8, tiny_dataset.num_classes, seed=0)
    model.eval()
    assert not model.training
    assert all(not layer.training for layer in model.layers)
    model.train()
    assert model.training


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------
def test_table8_dataset_registry():
    assert set(TABLE8_DATASETS) == {"cora", "ell", "pubmed", "questions", "minesweeper"}


def test_make_dataset_structure(tiny_dataset):
    ds = tiny_dataset
    assert ds.features.shape == (ds.num_nodes, ds.num_features)
    assert ds.labels.shape == (ds.num_nodes,)
    assert ds.num_classes >= 2
    # Masks partition the nodes.
    total = ds.train_mask.astype(int) + ds.val_mask.astype(int) + ds.test_mask.astype(int)
    assert np.all(total == 1)


def test_make_dataset_unknown_raises():
    with pytest.raises(KeyError):
        make_dataset("citeseer")


def test_normalized_adjacency_rows(tiny_dataset):
    norm = tiny_dataset.normalized_adjacency()
    assert norm.shape == (tiny_dataset.num_nodes, tiny_dataset.num_nodes)
    dense = norm.to_dense()
    # Symmetric normalisation of a symmetrised pattern stays symmetric.
    np.testing.assert_allclose(dense, dense.T, rtol=1e-5, atol=1e-6)
    assert dense.max() <= 1.0 + 1e-6


def test_datasets_are_deterministic():
    a = make_dataset("pubmed")
    b = make_dataset("pubmed")
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_allclose(a.features, b.features)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------
def test_adam_updates_parameters(rng):
    from repro.gnn.autograd import Parameter

    p = Parameter(np.ones(4))
    opt = Adam([p], lr=0.1)
    p.grad = np.ones(4, dtype=np.float32)
    opt.step()
    assert np.all(p.data < 1.0)
    opt.zero_grad()
    assert p.grad is None


def test_training_improves_accuracy(tiny_dataset):
    result = train_gcn_accuracy(tiny_dataset, "flashsparse-fp16", epochs=40, hidden=16, num_layers=2)
    assert result.epochs == 40
    assert result.test_accuracy > 0.5
    assert result.loss_history[-1] < result.loss_history[0]


def test_precisions_reach_comparable_accuracy(tiny_dataset):
    """Table 8: FP16 / TF32 training matches FP32 training accuracy."""
    acc = {}
    for backend in ("flashsparse-fp16", "flashsparse-tf32", "dgl"):
        acc[backend] = train_gcn_accuracy(
            tiny_dataset, backend, epochs=40, hidden=16, num_layers=2
        ).test_accuracy
    assert abs(acc["flashsparse-fp16"] - acc["dgl"]) < 0.05
    assert abs(acc["flashsparse-tf32"] - acc["dgl"]) < 0.05


def test_train_node_classifier_with_prepared_backend(tiny_dataset):
    backend = make_backend("flashsparse-fp16", tiny_dataset.normalized_adjacency())
    model = GCN(tiny_dataset.num_features, 8, tiny_dataset.num_classes, seed=1)
    result = train_node_classifier(model, tiny_dataset, backend, epochs=5)
    assert result.backend == "FlashSparse-FP16"
    assert 0.0 <= result.val_accuracy <= 1.0
    acc = evaluate_accuracy(model, backend, __import__("repro.gnn.autograd", fromlist=["Tensor"]).Tensor(tiny_dataset.features), tiny_dataset.labels, tiny_dataset.test_mask)
    assert 0.0 <= acc <= 1.0


def test_agnn_trains_without_error(tiny_dataset):
    model = AGNN(tiny_dataset.num_features, 8, tiny_dataset.num_classes, num_attention_layers=1, seed=0)
    result = train_node_classifier(model, tiny_dataset, "flashsparse-fp16", epochs=3)
    assert len(result.loss_history) == 3


# ---------------------------------------------------------------------------
# End-to-end estimation
# ---------------------------------------------------------------------------
def test_estimate_epoch_time_breakdown(tiny_dataset):
    adj = tiny_dataset.normalized_adjacency()
    est = estimate_epoch_time("gcn", adj, "flashsparse-fp16", RTX4090, hidden=128)
    assert est.total_time_s > 0
    assert est.total_time_s == pytest.approx(
        est.sparse_time_s + est.dense_time_s + est.overhead_time_s + est.preprocessing_time_s
    )
    with pytest.raises(ValueError):
        estimate_epoch_time("mlp", adj, "dgl", RTX4090)


def test_flashsparse_end_to_end_beats_frameworks(tiny_dataset):
    """Figure 16's shape: FlashSparse end-to-end epochs are faster than DGL/PyG."""
    adj = tiny_dataset.normalized_adjacency()
    for model_kind, hidden in (("gcn", 128), ("agnn", 32)):
        flash = estimate_epoch_time(model_kind, adj, "flashsparse-fp16", RTX4090, hidden=hidden)
        dgl = estimate_epoch_time(model_kind, adj, "dgl", RTX4090, hidden=hidden)
        pyg = estimate_epoch_time(model_kind, adj, "pyg", RTX4090, hidden=hidden)
        assert flash.total_time_s < dgl.total_time_s
        assert flash.total_time_s < pyg.total_time_s


def test_preprocessing_is_small_fraction(tiny_dataset):
    """Section 4.4: preprocessing is ~<1% of end-to-end time when amortised."""
    adj = tiny_dataset.normalized_adjacency()
    est = estimate_epoch_time("gcn", adj, "flashsparse-fp16", RTX4090, hidden=128)
    assert est.preprocessing_time_s < 0.05 * est.total_time_s

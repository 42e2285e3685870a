"""GNN models used in the end-to-end case study: GCN and AGNN."""

from __future__ import annotations

import numpy as np

from repro.gnn import autograd as ag
from repro.gnn.autograd import Tensor
from repro.gnn.backends import SparseBackend
from repro.gnn.layers import AGNNLayer, GCNLayer, Linear, Module
from repro.utils.random import default_rng


class GCN(Module):
    """Multi-layer graph convolutional network (Kipf & Welling).

    The paper's accuracy study (Table 8) trains a 5-layer GCN; the end-to-end
    performance study uses a hidden dimension of 128.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        dropout: float = 0.5,
        seed: int | None = None,
    ):
        super().__init__()
        if num_layers < 2:
            raise ValueError("GCN needs at least an input and an output layer")
        rng = default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        self.layers = [
            GCNLayer(dims[i], dims[i + 1], seed=rng.integers(0, 2**31)) for i in range(num_layers)
        ]
        self.dropout = dropout
        self._rng = rng

    def __call__(self, backend: SparseBackend, x: Tensor) -> Tensor:
        h = x
        for i, layer in enumerate(self.layers):
            h = layer(backend, h)
            if i < len(self.layers) - 1:
                h = ag.relu(h)
                h = ag.dropout(h, self.dropout, self._rng, training=self.training)
        return ag.log_softmax(h, axis=1)


class AGNN(Module):
    """Attention-based GNN: a linear embedding, K attention layers, a classifier.

    The attention layers are where the SDDMM → edge-softmax → SpMM pipeline
    of Section 3.4 is exercised; the paper uses a hidden dimension of 32.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_attention_layers: int = 2,
        dropout: float = 0.5,
        seed: int | None = None,
    ):
        super().__init__()
        if num_attention_layers < 1:
            raise ValueError("AGNN needs at least one attention layer")
        rng = default_rng(seed)
        self.embed = Linear(in_features, hidden_features, seed=rng.integers(0, 2**31))
        self.attention_layers = [AGNNLayer() for _ in range(num_attention_layers)]
        self.classify = Linear(hidden_features, num_classes, seed=rng.integers(0, 2**31))
        self.dropout = dropout
        self._rng = rng

    def __call__(self, backend: SparseBackend, x: Tensor) -> Tensor:
        h = ag.relu(self.embed(x))
        h = ag.dropout(h, self.dropout, self._rng, training=self.training)
        for layer in self.attention_layers:
            h = layer(backend, h)
        out = self.classify(h)
        return ag.log_softmax(out, axis=1)

"""Graph neural network substrate (Section 4.4 of the paper).

The paper integrates FlashSparse into PyTorch and trains GCN and AGNN
end-to-end.  PyTorch is not available here, so this subpackage provides the
pieces needed to reproduce the end-to-end case study:

* :mod:`repro.gnn.autograd` — a small reverse-mode automatic differentiation
  engine over NumPy arrays (tensors, matmul/spmm/softmax/... ops);
* :mod:`repro.gnn.backends` — sparse-operator backends: FlashSparse (FP16 /
  TF32) and the framework baselines (DGL-like, PyG-like, TC-GNN), each
  computing with the kernel engine's SpMM / SDDMM cores at its precision
  (backward passes on a transposed pattern built once) plus an estimated
  per-call kernel time;
* :mod:`repro.gnn.layers` / :mod:`repro.gnn.models` — GCN and AGNN;
* :mod:`repro.gnn.data` — synthetic node-classification datasets standing in
  for Cora / Pubmed / ELL / Questions / Minesweeper (Table 8);
* :mod:`repro.gnn.train` — the training loop and accuracy evaluation;
* :mod:`repro.gnn.end_to_end` — per-epoch time estimation for Figure 16.
"""

from repro.gnn.autograd import Tensor, Parameter, no_grad
from repro.gnn.backends import (
    BACKEND_NAMES,
    ServedBackend,
    SparseBackend,
    make_backend,
)
from repro.gnn.layers import GCNLayer, AGNNLayer
from repro.gnn.models import GCN, AGNN
from repro.gnn.data import NodeClassificationDataset, make_dataset, TABLE8_DATASETS
from repro.gnn.train import TrainResult, train_node_classifier, evaluate_accuracy
from repro.gnn.end_to_end import EndToEndEstimate, estimate_epoch_time

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "SparseBackend",
    "ServedBackend",
    "make_backend",
    "BACKEND_NAMES",
    "GCNLayer",
    "AGNNLayer",
    "GCN",
    "AGNN",
    "NodeClassificationDataset",
    "make_dataset",
    "TABLE8_DATASETS",
    "TrainResult",
    "train_node_classifier",
    "evaluate_accuracy",
    "EndToEndEstimate",
    "estimate_epoch_time",
]

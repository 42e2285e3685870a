"""Sparse-operator backends for GNN training.

A :class:`SparseBackend` owns a fixed adjacency pattern (the graph does not
change during training — the "static sparse scenario" of Section 4.4) and
provides:

* numerics for SpMM / SDDMM / edge-softmax forward and backward passes, with
  the backend's precision emulation applied (FP16/TF32 for FlashSparse and
  TC-GNN, FP32 for the CUDA-core frameworks);
* estimated per-call kernel times on a target device, produced by the same
  cost models the kernel benchmarks use, so the end-to-end comparison of
  Figure 16 charges every backend its own sparse-kernel cost while the dense
  (feature-update) work is identical across backends.

The numerics are the kernel engine's own cores over the adjacency's CSR
entries — the entry set the fused layer runs at: SpMM is
:func:`repro.kernels.engine._spmm_rows`, SDDMM is
:func:`~repro.kernels.engine._sddmm_entries` with the pattern as an all-ones
mask, and the edge softmax is :func:`repro.ops.segment_softmax`.  Each
backward pass reuses the same two cores, on a transposed structure built
once per backend (as xformers' sputnik wrappers do), so a fixed-adjacency
SpMM is ``array_equal`` to :func:`repro.spmm` at the backend's precision.
What is quantised to that precision: the adjacency and attention values
and every dense operand.  Edge gradients are not — they stay FP32, where
most of them would be fp16 subnormals.  The hardware-cost accounting lives
in the cost models, not in the arithmetic path, so training remains fast
enough to run the accuracy study (Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import get_baseline
from repro.formats.csr import CSRMatrix
from repro.gpu.device import GPUSpec
from repro.kernels.common import FlashSparseConfig
from repro.kernels.engine import _sddmm_entries, _spmm_rows
from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE, sddmm_flash_cost
from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE, spmm_flash_cost
from repro.ops import segment_ids, segment_softmax, segment_softmax_backward
from repro.perfmodel.model import KernelProfile, estimate_time
from repro.precision.types import Precision, quantize

#: One row per backend: display name, emulated precision, and whose cost
#: model prices its kernels (``None``: FlashSparse's own; otherwise the
#: registered baseline of that name).
_BACKENDS: dict[str, tuple[str, Precision, str | None]] = {
    "flashsparse-fp16": ("FlashSparse-FP16", Precision.FP16, None),
    "flashsparse-tf32": ("FlashSparse-TF32", Precision.TF32, None),
    "dgl": ("DGL", Precision.FP32, "DGL"),
    "pyg": ("PyG", Precision.FP32, "PyG"),
    "tcgnn": ("TC-GNN", Precision.TF32, "TC-GNN"),
}
_ALIASES = {
    "flashsparse": "flashsparse-fp16",
    "fp16": "flashsparse-fp16",
    "tf32": "flashsparse-tf32",
    "tc-gnn": "tcgnn",
}

#: Names accepted by :func:`make_backend`.
BACKEND_NAMES: tuple[str, ...] = tuple(_BACKENDS)


@dataclass
class OpStats:
    """Book-keeping of the sparse operator calls a backend served."""

    spmm_calls: int = 0
    sddmm_calls: int = 0
    edge_softmax_calls: int = 0


@dataclass
class SparseBackend:
    """Sparse kernels + cost model for one graph and one backend flavour."""

    name: str
    adjacency: CSRMatrix
    precision: Precision
    #: cost function handles resolved by :func:`make_backend`
    _spmm_cost: callable = field(repr=False, default=None)
    _sddmm_cost: callable = field(repr=False, default=None)
    _spmm_profile: KernelProfile = field(repr=False, default=None)
    _sddmm_profile: KernelProfile = field(repr=False, default=None)
    stats: OpStats = field(default_factory=OpStats)

    def __post_init__(self) -> None:
        indices = self.adjacency.indices
        self._rows = segment_ids(self.adjacency.indptr)
        self._mask = np.ones(indices.shape[0], dtype=np.float32)
        # Aᵀ's structure, once: a stable sort of the entries by column lists
        # each column's entries in row order, as SciPy's CSR transpose does.
        self._perm = np.argsort(indices, kind="stable")
        self._t_indices = self._rows[self._perm]
        counts = np.bincount(indices, minlength=self.adjacency.n_cols)
        self._t_indptr = np.concatenate(([0], np.cumsum(counts)))

    # ----------------------------------------------------------- numerics
    def _spmm(self, values, dense_q, precision, transpose=False) -> np.ndarray:
        """``A(values) @ dense_q``, or ``A(values)ᵀ @ dense_q``, with
        ``values`` quantised to ``precision``; ``values`` of ``None`` are
        the adjacency's own."""
        values_q = quantize(self.adjacency.data if values is None else values, precision)
        if transpose:
            return _spmm_rows(values_q[self._perm], self._t_indices, self._t_indptr, dense_q)
        adj = self.adjacency
        return _spmm_rows(values_q, adj.indices, adj.indptr, dense_q)

    def _sddmm(self, a_q: np.ndarray, b_q: np.ndarray) -> np.ndarray:
        """One dot product per stored edge, in the adjacency's entry order."""
        return _sddmm_entries(self._rows, self.adjacency.indices, self._mask, a_q, b_q, False)

    def spmm_forward(self, values: np.ndarray | None, dense: np.ndarray) -> np.ndarray:
        """Forward SpMM: ``A(values) @ dense`` with precision emulation."""
        self.stats.spmm_calls += 1
        return self._spmm(values, quantize(dense, self.precision), self.precision)

    def spmm_backward(
        self, values: np.ndarray | None, dense: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Backward SpMM: gradients w.r.t. the edge values and the dense input."""
        self.stats.spmm_calls += 1  # the transposed SpMM of the backward pass
        grad_out_q = quantize(grad_out, self.precision)
        grad_dense = self._spmm(values, grad_out_q, self.precision, transpose=True)
        grad_values = None
        if values is not None:
            # dL/dvalue_e = <grad_out[row_e], dense[col_e]> — an SDDMM.
            self.stats.sddmm_calls += 1
            grad_values = self._sddmm(grad_out_q, quantize(dense, self.precision))
        return grad_values, grad_dense

    def sddmm_forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Forward SDDMM: one dot product per stored edge (CSR order)."""
        self.stats.sddmm_calls += 1
        return self._sddmm(quantize(a, self.precision), quantize(b, self.precision))

    def sddmm_backward(
        self, a: np.ndarray, b: np.ndarray, grad_edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backward SDDMM: scatter the per-edge gradients into both inputs."""
        self.stats.spmm_calls += 2  # two SpMM-shaped scatters
        grad_a = self._spmm(grad_edges, quantize(b, self.precision), Precision.FP32)
        grad_b = self._spmm(
            grad_edges, quantize(a, self.precision), Precision.FP32, transpose=True
        )
        return grad_a, grad_b

    def edge_softmax_forward(self, logits: np.ndarray) -> np.ndarray:
        """Row-wise softmax over edge values (one segment per adjacency row)."""
        self.stats.edge_softmax_calls += 1
        return segment_softmax(logits, self.adjacency.indptr)

    def edge_softmax_backward(self, softmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Backward of the row-wise softmax, from the saved forward output."""
        return segment_softmax_backward(softmax, grad_out, self.adjacency.indptr)

    # --------------------------------------------------------- cost model
    def spmm_time(self, n_dense: int, device: GPUSpec) -> float:
        """Estimated time of one SpMM call with an ``n_dense``-wide operand."""
        cost = self._spmm_cost(self.adjacency, n_dense)
        return estimate_time(cost, device, self._spmm_profile).total_time_s

    def sddmm_time(self, k_dense: int, device: GPUSpec) -> float:
        """Estimated time of one SDDMM call over a ``k_dense`` feature dim."""
        if self._sddmm_cost is None:
            # Backends without a dedicated SDDMM fall back to an SpMM-shaped cost.
            return self.spmm_time(k_dense, device)
        cost = self._sddmm_cost(self.adjacency, k_dense)
        return estimate_time(cost, device, self._sddmm_profile).total_time_s

    @property
    def framework_overhead_us(self) -> float:
        """Per-kernel framework dispatch overhead (already inside the profiles)."""
        return self._spmm_profile.extra_launch_us


@dataclass
class ServedBackend:
    """Attention layers evaluated through a :class:`repro.serve.Server`.

    The training backends above run kernels in-process; this is the *served*
    path: the adjacency lives with a server (its in-process scheduler or a
    multi-host cluster head) and every layer evaluation is one
    ``submit_layer`` request.  :class:`OpStats` counts the *logical* sparse
    operators, so a layer bumps all three counters — the fused transport
    must not hide work from the accounting.
    """

    server: object
    adjacency: CSRMatrix
    #: Queueing deadline forwarded to every submission.
    timeout: float | None = None
    stats: OpStats = field(default_factory=OpStats)

    # ----------------------------------------------------------- layers
    def attention_layer(
        self,
        a: np.ndarray,
        b: np.ndarray,
        x: np.ndarray,
        scale: float | None = None,
        scale_by_mask: bool = False,
    ) -> np.ndarray:
        """One attention layer ``spmm(edge_softmax(scale · sddmm(a, b)), x)``
        in one server round trip, bit-identical to the three kernels run one
        after another.  ``submit_layer`` checks the settings before anything
        is sent; a rejected layer counts no operator.
        """
        future = self.server.submit_layer(
            self.adjacency,
            a,
            b,
            x,
            scale=scale,
            scale_by_mask=scale_by_mask,
            timeout=self.timeout,
        )
        self.stats.sddmm_calls += 1
        self.stats.edge_softmax_calls += 1
        self.stats.spmm_calls += 1
        return np.asarray(future.result().values, dtype=np.float32)

    def agnn_forward(self, h: np.ndarray, beta: float = 1.0) -> np.ndarray:
        """One AGNN layer against the server: cosine attention over
        row-normalised features scaled by ``beta``
        (cf. :class:`repro.gnn.layers.AGNNLayer`)."""
        h = np.ascontiguousarray(np.asarray(h, dtype=np.float32))
        norms = np.sqrt((h**2).sum(axis=1, keepdims=True)) + np.float32(1e-12)
        h_norm = np.ascontiguousarray((h / norms).astype(np.float32))
        return self.attention_layer(h_norm, h_norm, h, scale=float(beta))


def make_backend(name: str, adjacency: CSRMatrix) -> SparseBackend:
    """Build a :class:`SparseBackend` for one of :data:`BACKEND_NAMES`."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _BACKENDS:
        raise KeyError(f"unknown backend {name!r}; available: {BACKEND_NAMES}")
    display, precision, baseline_name = _BACKENDS[key]
    if baseline_name is None:
        config = FlashSparseConfig(precision=precision, engine="batched")
        costs = (
            lambda m, n: spmm_flash_cost(m, n, config),
            lambda m, k: sddmm_flash_cost(m, k, config),
            FLASH_SPMM_PROFILE,
            FLASH_SDDMM_PROFILE,
        )
    else:
        baseline = get_baseline(baseline_name)
        costs = (baseline.spmm_cost, baseline.sddmm_cost, baseline.profile, baseline.profile)
    return SparseBackend(display, adjacency, precision, *costs)

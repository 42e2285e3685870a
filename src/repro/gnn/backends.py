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

The heavy numerics go through SciPy's CSR routines: a CUDA-core FP32 SpMM
and a CPU FP32 SpMM compute the same values, and the tensor-core precisions
are emulated by quantising the operands first.  The hardware-cost accounting
lives in the cost models, not in the arithmetic path, so training remains
fast enough to run the accuracy study (Table 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.baselines import get_baseline
from repro.formats.csr import CSRMatrix
from repro.gpu.device import GPUSpec
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE, sddmm_flash_cost
from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE, spmm_flash_cost
from repro.ops import segment_ids, segment_softmax, segment_softmax_backward
from repro.perfmodel.model import KernelProfile, estimate_time
from repro.precision.types import Precision, quantize

#: Edge-softmax implementations a backend can run: the vectorized segment
#: ops (default) or the per-row oracle loops the parity tests check against.
EDGE_SOFTMAX_IMPLS: tuple[str, ...] = ("vectorized", "reference")

#: Names accepted by :func:`make_backend`.
BACKEND_NAMES: tuple[str, ...] = (
    "flashsparse-fp16",
    "flashsparse-tf32",
    "dgl",
    "pyg",
    "tcgnn",
)


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
    #: Which edge-softmax path to run; "reference" keeps the per-row loops
    #: alive as the oracle for parity tests and the epoch benchmark.
    edge_softmax_impl: str = "vectorized"
    #: Memoised kernel-time estimates keyed by (op, dense width, device spec).
    #: The adjacency is static during training, so each (op, width, device)
    #: combination is priced exactly once per run instead of once per epoch;
    #: the CSR→blocked translation underneath is additionally shared through
    #: the LRU cache of :mod:`repro.formats.cache`.
    _time_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._resolved_edge_softmax_impl()
        csr = self.adjacency.to_scipy().astype(np.float32)
        csr.sort_indices()
        self._csr = csr
        self._csr_t = csr.T.tocsr()
        self._rows = segment_ids(self.adjacency.indptr)
        self._cols = self.adjacency.indices.astype(np.int64)

    # ----------------------------------------------------------- numerics
    def _quantize(self, array: np.ndarray) -> np.ndarray:
        return quantize(array, self.precision)

    def _matrix_with(self, values: np.ndarray | None) -> sp.csr_matrix:
        if values is None:
            return self._csr
        matrix = self._csr.copy()
        matrix.data = np.asarray(values, dtype=np.float32)
        return matrix

    def spmm_forward(self, values: np.ndarray | None, dense: np.ndarray) -> np.ndarray:
        """Forward SpMM: ``A(values) @ dense`` with precision emulation."""
        self.stats.spmm_calls += 1
        matrix = self._matrix_with(None if values is None else self._quantize(values))
        return np.asarray(matrix @ self._quantize(dense), dtype=np.float32)

    def spmm_backward(
        self, values: np.ndarray | None, dense: np.ndarray, grad_out: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Backward SpMM: gradients w.r.t. the edge values and the dense input."""
        self.stats.spmm_calls += 1  # the transposed SpMM of the backward pass
        grad_out_q = self._quantize(grad_out)
        if values is None:
            matrix_t = self._csr_t
        else:
            matrix_t = self._matrix_with(self._quantize(values)).T.tocsr()
        grad_dense = np.asarray(matrix_t @ grad_out_q, dtype=np.float32)
        grad_values = None
        if values is not None:
            # dL/dvalue_e = <grad_out[row_e], dense[col_e]> — an SDDMM.
            self.stats.sddmm_calls += 1
            dense_q = self._quantize(dense)
            grad_values = np.einsum(
                "ij,ij->i", grad_out_q[self._rows], dense_q[self._cols]
            ).astype(np.float32)
        return grad_values, grad_dense

    def sddmm_forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Forward SDDMM: one dot product per stored edge (CSR order)."""
        self.stats.sddmm_calls += 1
        a_q = self._quantize(a)
        b_q = self._quantize(b)
        return np.einsum("ij,ij->i", a_q[self._rows], b_q[self._cols]).astype(np.float32)

    def sddmm_backward(
        self, a: np.ndarray, b: np.ndarray, grad_edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backward SDDMM: scatter the per-edge gradients into both inputs."""
        self.stats.spmm_calls += 2  # two SpMM-shaped scatters
        grad = np.asarray(grad_edges, dtype=np.float32)
        weighted = self._matrix_with(grad)
        grad_a = np.asarray(weighted @ self._quantize(b), dtype=np.float32)
        grad_b = np.asarray(weighted.T.tocsr() @ self._quantize(a), dtype=np.float32)
        return grad_a, grad_b

    def edge_softmax_forward(self, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise softmax over edge values; returns (softmax, cache).

        The default path is one vectorized :func:`repro.ops.segment_softmax`
        over the adjacency's ``indptr`` segments; ``edge_softmax_impl=
        "reference"`` runs the per-row oracle loop instead.
        """
        self.stats.edge_softmax_calls += 1
        if self._resolved_edge_softmax_impl() == "reference":
            out32 = self.reference_edge_softmax_forward(logits)
        else:
            out32 = segment_softmax(
                np.asarray(logits, dtype=np.float64), self.adjacency.indptr
            )
        return out32, out32

    def edge_softmax_backward(self, softmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
        """Backward of the row-wise softmax (vectorized segment reduction)."""
        if self._resolved_edge_softmax_impl() == "reference":
            return self.reference_edge_softmax_backward(softmax, grad_out)
        return segment_softmax_backward(softmax, grad_out, self.adjacency.indptr)

    def _resolved_edge_softmax_impl(self) -> str:
        # Re-validated at dispatch, not just in __post_init__: the knob is
        # normally set by attribute assignment after make_backend(), and a
        # typo there must not silently fall back to the vectorized path.
        if self.edge_softmax_impl not in EDGE_SOFTMAX_IMPLS:
            raise ValueError(
                f"edge_softmax_impl must be one of {EDGE_SOFTMAX_IMPLS}, "
                f"got {self.edge_softmax_impl!r}"
            )
        return self.edge_softmax_impl

    # The per-row loops below are the oracle the vectorized paths are tested
    # against (and what `edge_softmax_impl="reference"` runs): float64 per-row
    # softmax, float32 per-row backward, empty rows skipped.
    def reference_edge_softmax_forward(self, logits: np.ndarray) -> np.ndarray:
        """Per-row oracle for :meth:`edge_softmax_forward`."""
        logits = np.asarray(logits, dtype=np.float64)
        indptr = self.adjacency.indptr
        out = np.zeros_like(logits, dtype=np.float64)
        for r in range(self.adjacency.n_rows):
            lo, hi = int(indptr[r]), int(indptr[r + 1])
            if lo == hi:
                continue
            seg = logits[lo:hi]
            seg = seg - seg.max()
            e = np.exp(seg)
            out[lo:hi] = e / e.sum()
        return out.astype(np.float32)

    def reference_edge_softmax_backward(
        self, softmax: np.ndarray, grad_out: np.ndarray
    ) -> np.ndarray:
        """Per-row oracle for :meth:`edge_softmax_backward`."""
        indptr = self.adjacency.indptr
        grad = np.zeros_like(softmax, dtype=np.float32)
        for r in range(self.adjacency.n_rows):
            lo, hi = int(indptr[r]), int(indptr[r + 1])
            if lo == hi:
                continue
            s = softmax[lo:hi]
            g = grad_out[lo:hi]
            grad[lo:hi] = s * (g - float((g * s).sum()))
        return grad

    # --------------------------------------------------------- cost model
    def _cached_time(self, key: tuple, device: GPUSpec, compute) -> float:
        # GPUSpec carries an unhashable `extra` dict, so the key uses id();
        # the entry pins the device object so the id cannot be recycled, and
        # an identity check guards against a different spec under a stale key.
        entry = self._time_cache.get(key)
        if entry is None or entry[0] is not device:
            entry = (device, compute())
            self._time_cache[key] = entry
        return entry[1]

    def spmm_time(self, n_dense: int, device: GPUSpec) -> float:
        """Estimated time of one SpMM call with an ``n_dense``-wide operand."""
        return self._cached_time(
            ("spmm", int(n_dense), id(device)),
            device,
            lambda: estimate_time(
                self._spmm_cost(self.adjacency, n_dense), device, self._spmm_profile
            ).total_time_s,
        )

    def sddmm_time(self, k_dense: int, device: GPUSpec) -> float:
        """Estimated time of one SDDMM call over a ``k_dense`` feature dim."""
        if self._sddmm_cost is None:
            # Backends without a dedicated SDDMM fall back to an SpMM-shaped cost.
            return self.spmm_time(k_dense, device)
        return self._cached_time(
            ("sddmm", int(k_dense), id(device)),
            device,
            lambda: estimate_time(
                self._sddmm_cost(self.adjacency, k_dense), device, self._sddmm_profile
            ).total_time_s,
        )

    @property
    def framework_overhead_us(self) -> float:
        """Per-kernel framework dispatch overhead (already inside the profiles)."""
        return self._spmm_profile.extra_launch_us


#: Execution modes of :class:`ServedBackend`: ``"fused"`` sends one
#: ``submit_layer`` request per attention layer (protocol v4), ``"composed"``
#: the classic three requests (SDDMM → edge softmax → SpMM).
SERVED_MODES: tuple[str, ...] = ("fused", "composed")


@dataclass
class ServedBackend:
    """Attention layers evaluated through a :class:`repro.serve.Server`.

    The training backends above run kernels in-process; this is the *served*
    path: the adjacency lives with a server (in-process engine, multiprocess
    shard scheduler, or a multi-host cluster head) and every layer
    evaluation is a client request.  In ``"fused"`` mode one layer is one
    ``submit_layer`` round trip; in ``"composed"`` mode it is the historic
    three (SDDMM → edge softmax → SpMM over the attention matrix), kept as
    the bit-identical reference path.  :class:`OpStats` counts the *logical*
    sparse operators, so a layer bumps all three counters in either mode —
    the fused transport must not hide work from the accounting.
    """

    server: object
    adjacency: CSRMatrix
    mode: str = "fused"
    #: Queueing deadline / dispatch class forwarded to every submission.
    timeout: float | None = None
    priority: int = 0
    stats: OpStats = field(default_factory=OpStats)

    def __post_init__(self) -> None:
        if self.mode not in SERVED_MODES:
            raise ValueError(f"mode must be one of {SERVED_MODES}, got {self.mode!r}")

    # ----------------------------------------------------------- layers
    def attention_layer(
        self,
        a: np.ndarray,
        b: np.ndarray,
        x: np.ndarray,
        scale: float | None = None,
        scale_by_mask: bool = False,
    ) -> np.ndarray:
        """One attention layer ``spmm(edge_softmax(scale · sddmm(a, b)), x)``.

        One server round trip when ``mode="fused"``, three when
        ``"composed"``; the outputs are bit-identical (the parity tests pin
        this), so callers choose purely on transport cost.
        """
        self.stats.sddmm_calls += 1
        self.stats.edge_softmax_calls += 1
        self.stats.spmm_calls += 1
        if self.mode == "fused":
            result = self.server.submit_layer(
                self.adjacency,
                a,
                b,
                x,
                scale=scale,
                scale_by_mask=scale_by_mask,
                timeout=self.timeout,
                priority=self.priority,
            ).result()
            return np.asarray(result.values, dtype=np.float32)
        return self._attention_layer_composed(a, b, x, scale, scale_by_mask)

    def _attention_layer_composed(
        self,
        a: np.ndarray,
        b: np.ndarray,
        x: np.ndarray,
        scale: float | None,
        scale_by_mask: bool,
    ) -> np.ndarray:
        # Imported here so importing the training backends does not pull in
        # the whole serving stack.
        from repro.serve.program import attention_csr, gather_edge_values

        sddmm = self.server.submit_sddmm(
            self.adjacency,
            a,
            b,
            scale_by_mask=scale_by_mask,
            timeout=self.timeout,
            priority=self.priority,
        ).result()
        logits = gather_edge_values(
            sddmm.output.partition, self.adjacency.indptr, sddmm.output.vector_values
        )
        if scale is not None:
            logits = (logits * np.float32(scale)).astype(np.float32)
        attention = self.server.submit_edge_softmax(
            self.adjacency, logits, timeout=self.timeout, priority=self.priority
        ).result()
        weighted = attention_csr(self.adjacency, attention.values)
        spmm = self.server.submit_spmm(
            weighted, x, timeout=self.timeout, priority=self.priority
        ).result()
        return np.asarray(spmm.values, dtype=np.float32)

    def agnn_forward(self, h: np.ndarray, beta: float = 1.0) -> np.ndarray:
        """One AGNN layer against the server: cosine attention over
        row-normalised features scaled by ``beta``
        (cf. :class:`repro.gnn.layers.AGNNLayer`)."""
        h = np.ascontiguousarray(np.asarray(h, dtype=np.float32))
        norms = np.sqrt((h**2).sum(axis=1, keepdims=True)) + np.float32(1e-12)
        h_norm = np.ascontiguousarray((h / norms).astype(np.float32))
        return self.attention_layer(h_norm, h_norm, h, scale=float(beta))

    def segment_matmul(self, data, offsets, weights) -> np.ndarray:
        """RGCN-style typed linear through the server (one request)."""
        result = self.server.submit_segment_matmul(
            data, offsets, weights, timeout=self.timeout, priority=self.priority
        ).result()
        return np.asarray(result.values, dtype=np.float32)


def make_backend(name: str, adjacency: CSRMatrix) -> SparseBackend:
    """Build a :class:`SparseBackend` for one of :data:`BACKEND_NAMES`."""
    key = name.strip().lower()
    if key in ("flashsparse-fp16", "flashsparse", "fp16"):
        config = FlashSparseConfig(precision=Precision.FP16, engine="batched")
        return SparseBackend(
            name="FlashSparse-FP16",
            adjacency=adjacency,
            precision=Precision.FP16,
            _spmm_cost=lambda m, n: spmm_flash_cost(m, n, config),
            _sddmm_cost=lambda m, k: sddmm_flash_cost(m, k, config),
            _spmm_profile=FLASH_SPMM_PROFILE,
            _sddmm_profile=FLASH_SDDMM_PROFILE,
        )
    if key in ("flashsparse-tf32", "tf32"):
        config = FlashSparseConfig(precision=Precision.TF32, engine="batched")
        return SparseBackend(
            name="FlashSparse-TF32",
            adjacency=adjacency,
            precision=Precision.TF32,
            _spmm_cost=lambda m, n: spmm_flash_cost(m, n, config),
            _sddmm_cost=lambda m, k: sddmm_flash_cost(m, k, config),
            _spmm_profile=FLASH_SPMM_PROFILE,
            _sddmm_profile=FLASH_SDDMM_PROFILE,
        )
    if key in ("dgl", "pyg"):
        baseline = get_baseline("DGL" if key == "dgl" else "PyG")
        return SparseBackend(
            name=baseline.name,
            adjacency=adjacency,
            precision=Precision.FP32,
            _spmm_cost=baseline.spmm_cost,
            _sddmm_cost=baseline.sddmm_cost,
            _spmm_profile=baseline.profile,
            _sddmm_profile=baseline.profile,
        )
    if key in ("tcgnn", "tc-gnn"):
        baseline = get_baseline("TC-GNN")
        return SparseBackend(
            name=baseline.name,
            adjacency=adjacency,
            precision=Precision.TF32,
            _spmm_cost=baseline.spmm_cost,
            _sddmm_cost=baseline.sddmm_cost,
            _spmm_profile=baseline.profile,
            _sddmm_profile=baseline.profile,
        )
    raise KeyError(f"unknown backend {name!r}; available: {BACKEND_NAMES}")

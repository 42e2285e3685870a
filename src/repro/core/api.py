"""User-facing FlashSparse API.

The typical flow mirrors how the paper integrates FlashSparse into PyTorch:

1. build a :class:`FlashSparseMatrix` from any sparse input (scipy, CSR
   arrays, dense); this runs the sparse-matrix translation into ME-BCRS,
2. call :func:`spmm` / :func:`sddmm` with dense operands,
3. inspect the result's ``values``, ``counter`` (simulated hardware cost)
   and, when a device is requested, the estimated runtime and GFLOPS.

>>> import numpy as np, scipy.sparse as sp
>>> from repro import FlashSparseMatrix, spmm
>>> a = sp.random(128, 128, density=0.05, format="csr", random_state=1)
>>> m = FlashSparseMatrix.from_scipy(a)
>>> b = np.ones((128, 32))
>>> res = spmm(m, b, device="rtx4090")
>>> res.values.shape
(128, 32)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.cache import cached_mebcrs, cached_sgt16
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.counters import CostCounter
from repro.gpu.device import GPUSpec, get_device
from repro.kernels.common import FlashSparseConfig
from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE, sddmm_flash_cost, sddmm_flash_execute
from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE, spmm_flash_cost, spmm_flash_execute
from repro.perfmodel.model import (
    TimeEstimate,
    estimate_time,
    gflops,
    sddmm_useful_flops,
    spmm_useful_flops,
)
from repro.precision.types import Precision

#: Public alias: the kernel configuration object.
KernelConfig = FlashSparseConfig


def _resolve_device(device: str | GPUSpec | None) -> GPUSpec | None:
    if device is None:
        return None
    if isinstance(device, GPUSpec):
        return device
    return get_device(device)


@dataclass
class FlashSparseMatrix:
    """A sparse matrix prepared for FlashSparse kernels.

    Holds the CSR interchange form; the translated ME-BCRS (and, when
    needed, the 16×1) representations are memoised per precision in the
    shared LRU of :mod:`repro.formats.cache`, so repeated kernel calls do
    not re-run the preprocessing (static-sparsity scenario of Section 4.4)
    — even when the same CSR is re-wrapped by a new ``FlashSparseMatrix``.
    """

    csr: CSRMatrix

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix | sp.sparray) -> "FlashSparseMatrix":
        """Build from any scipy sparse matrix."""
        return cls(csr=CSRMatrix.from_scipy(matrix))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "FlashSparseMatrix":
        """Build from a dense array (zeros dropped)."""
        return cls(csr=CSRMatrix.from_dense(dense))

    @classmethod
    def from_csr_arrays(
        cls, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: tuple[int, int]
    ) -> "FlashSparseMatrix":
        """Build from raw CSR arrays.

        The rows must be canonical — column indices strictly increasing
        within each row — or :class:`~repro.formats.csr.CSRMatrix` raises
        ``ValueError``; :meth:`from_scipy` accepts duplicates and any order.
        """
        return cls(csr=CSRMatrix(indptr, indices, data, shape))

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape."""
        return self.csr.shape

    @property
    def nnz(self) -> int:
        """Number of nonzeros."""
        return self.csr.nnz

    # ------------------------------------------------------------- translate
    def mebcrs(
        self, precision: Precision | str = Precision.FP16, by_content: bool = False
    ) -> MEBCRSMatrix:
        """The ME-BCRS translation at ``precision`` (cached).

        ``by_content=True`` deduplicates the translation across structurally
        equal matrices loaded as distinct objects (content-hash cache key).
        """
        return cached_mebcrs(self.csr, precision, by_content=by_content)

    def sgt16(
        self, precision: Precision | str = Precision.TF32, by_content: bool = False
    ) -> SGT16Matrix:
        """The 16×1 baseline translation at ``precision`` (cached)."""
        return cached_sgt16(self.csr, precision, by_content=by_content)

    def to_scipy(self) -> sp.csr_matrix:
        """Back to a scipy CSR matrix."""
        return self.csr.to_scipy()

    # --------------------------------------------------------------- serving
    def content_key(self) -> str:
        """Content fingerprint of the underlying CSR (the serving subsystem's
        batching and translation-dedup handle)."""
        return self.csr.content_key()

    def plan(
        self,
        n_dense: int,
        op: str = "spmm",
        device: str | GPUSpec | None = None,
        precision: Precision | str = Precision.FP16,
        **kwargs,
    ):
        """Derive a :class:`~repro.serve.planner.ServePlan` for this matrix.

        ``op`` selects :func:`~repro.serve.planner.plan_spmm` (``n_dense``
        is the dense width N) or :func:`~repro.serve.planner.plan_sddmm`
        (``n_dense`` is the inner dimension K); extra keyword arguments are
        forwarded to the planner.
        """
        from repro.serve.planner import plan_sddmm, plan_spmm

        if op == "spmm":
            return plan_spmm(self.csr, n_dense, device=device, precision=precision, **kwargs)
        if op == "sddmm":
            return plan_sddmm(self.csr, n_dense, device=device, precision=precision, **kwargs)
        raise ValueError(f"op must be 'spmm' or 'sddmm', got {op!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlashSparseMatrix(shape={self.shape}, nnz={self.nnz})"


@dataclass
class SpmmResult:
    """Result of :func:`spmm`."""

    #: Dense product ``A @ B`` (float32).
    values: np.ndarray
    #: Simulated hardware cost.
    counter: CostCounter
    #: Useful FLOPs (2 * nnz * N).
    useful_flops: int
    #: Estimated runtime on the requested device (None when no device given).
    estimate: TimeEstimate | None = None
    #: Extra information from the kernel.
    meta: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float | None:
        """Estimated throughput in GFLOP/s (None without a device)."""
        if self.estimate is None:
            return None
        return gflops(self.useful_flops, self.estimate.total_time_s)


@dataclass
class SddmmResult:
    """Result of :func:`sddmm`."""

    #: Sparse output in blocked form (same pattern as the mask).
    output: BlockedVectorFormat
    #: Simulated hardware cost.
    counter: CostCounter
    #: Useful FLOPs (2 * nnz * K).
    useful_flops: int
    #: Estimated runtime on the requested device (None when no device given).
    estimate: TimeEstimate | None = None
    #: Extra information from the kernel.
    meta: dict = field(default_factory=dict)

    def to_csr(self) -> CSRMatrix:
        """The sparse output as CSR."""
        return self.output.to_csr()

    def to_scipy(self) -> sp.csr_matrix:
        """The sparse output as a scipy CSR matrix."""
        return self.output.to_csr().to_scipy()

    @property
    def gflops(self) -> float | None:
        """Estimated throughput in GFLOP/s (None without a device)."""
        if self.estimate is None:
            return None
        return gflops(self.useful_flops, self.estimate.total_time_s)


def _as_input(matrix) -> FlashSparseMatrix:
    if isinstance(matrix, FlashSparseMatrix):
        return matrix
    if isinstance(matrix, CSRMatrix):
        return FlashSparseMatrix(csr=matrix)
    if sp.issparse(matrix):
        return FlashSparseMatrix.from_scipy(matrix)
    if isinstance(matrix, np.ndarray):
        return FlashSparseMatrix.from_dense(matrix)
    raise TypeError(
        "expected FlashSparseMatrix, CSRMatrix, scipy sparse matrix or ndarray, "
        f"got {type(matrix).__name__}"
    )


def spmm(
    a,
    b: np.ndarray,
    precision: Precision | str = Precision.FP16,
    coalesced: bool = True,
    device: str | GPUSpec | None = None,
    engine: str = "batched",
) -> SpmmResult:
    """Sparse × dense matrix multiplication with the FlashSparse kernel.

    Parameters
    ----------
    a:
        Sparse matrix (FlashSparseMatrix, CSRMatrix, scipy sparse, or dense
        ndarray that will be sparsified).  CSR inputs are translated to
        ME-BCRS through an LRU cache keyed by object identity; treat them as
        immutable after the first call (see :mod:`repro.formats.cache`).
    b:
        Dense right-hand side of shape ``(a.shape[1], N)``.
    precision:
        ``"fp16"`` (default) or ``"tf32"``.
    coalesced:
        Use the memory-efficient thread mapping (default True).
    device:
        Optional device name (``"h100"``, ``"rtx4090"``) or
        :class:`~repro.gpu.device.GPUSpec`; when given, the result carries an
        estimated runtime and GFLOPS.
    engine:
        ``"batched"`` (default) for the vectorized execution engine,
        ``"reference"`` for the per-block emulation loop.
    """
    inp = _as_input(a)
    config = FlashSparseConfig(precision=Precision(precision), coalesced=coalesced, engine=engine)
    fmt = inp.mebcrs(config.precision)
    result = spmm_flash_execute(fmt, b, config)
    spec = _resolve_device(device)
    estimate = estimate_time(result.counter, spec, FLASH_SPMM_PROFILE) if spec else None
    return SpmmResult(
        values=result.values,
        counter=result.counter,
        useful_flops=result.useful_flops,
        estimate=estimate,
        meta=result.meta,
    )


def sddmm(
    mask,
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision | str = Precision.FP16,
    scale_by_mask: bool = False,
    device: str | GPUSpec | None = None,
    engine: str = "batched",
) -> SddmmResult:
    """Sampled dense × dense matrix multiplication with the FlashSparse kernel.

    Computes ``out[i, j] = <a[i, :], b[j, :]>`` for every nonzero position of
    ``mask`` (optionally scaled by the mask's values).  ``engine`` selects the
    batched execution engine (default: one dot product per stored nonzero)
    or the reference emulation loop; values agree to FP32 round-off and the
    cost counter exactly.
    """
    inp = _as_input(mask)
    config = FlashSparseConfig(precision=Precision(precision), engine=engine)
    fmt = inp.mebcrs(config.precision)
    result = sddmm_flash_execute(fmt, a, b, config, scale_by_mask=scale_by_mask)
    spec = _resolve_device(device)
    estimate = estimate_time(result.counter, spec, FLASH_SDDMM_PROFILE) if spec else None
    return SddmmResult(
        output=result.output,
        counter=result.counter,
        useful_flops=result.useful_flops,
        estimate=estimate,
        meta=result.meta,
    )


def spmm_cost(
    a,
    n_dense: int,
    precision: Precision | str = Precision.FP16,
    coalesced: bool = True,
) -> CostCounter:
    """Cost-only SpMM (no numeric result); see :func:`spmm`."""
    inp = _as_input(a)
    config = FlashSparseConfig(precision=Precision(precision), coalesced=coalesced)
    return spmm_flash_cost(inp.mebcrs(config.precision), n_dense, config)


def sddmm_cost(
    mask,
    k_dense: int,
    precision: Precision | str = Precision.FP16,
) -> CostCounter:
    """Cost-only SDDMM (no numeric result); see :func:`sddmm`."""
    inp = _as_input(mask)
    config = FlashSparseConfig(precision=Precision(precision))
    return sddmm_flash_cost(inp.mebcrs(config.precision), k_dense, config)


def start_server(
    device: str | GPUSpec | None = None,
    precision: Precision | str = Precision.FP16,
    workers: int | None = None,
    backend: str = "local",
    hosts: int | None = None,
    **kwargs,
):
    """Start a :class:`~repro.serve.server.Server` for this process.

    (Named ``start_server`` rather than ``serve`` because ``repro.serve``
    is the subsystem package — a same-named function on the package would
    be shadowed by the submodule binding on first import.)

    The returned server accepts concurrent :meth:`submit_spmm` /
    :meth:`submit_sddmm` calls, batches same-matrix requests, plans memory
    budgets from ``device`` (``workers`` divides the workspace into shards)
    and runs the shards in this process.  Use it as a context manager::

        with repro.start_server(device="rtx4090", workers=4) as server:
            fut = server.submit_spmm(matrix, b)
            result = fut.result()
        print(server.snapshot().latency_p95_s)

    ``backend="cluster"`` serves over ``hosts`` worker-host subprocesses
    instead (see :mod:`repro.cluster`): shard
    payloads travel a TCP transport, matrices route to hosts by content
    affinity, and a host death mid-request fails over to the survivors::

        with repro.start_server(backend="cluster", hosts=2) as server:
            result = server.submit_spmm(matrix, b).result()
        print(server.snapshot().meta["scheduler"]["failovers"])

    Extra keyword arguments are forwarded to the ``Server`` constructor
    (queue depth and admission policy, cluster options — see its docstring).
    """
    from repro.serve.server import Server

    return Server(
        device=device,
        precision=precision,
        workers=workers,
        backend=backend,
        hosts=hosts,
        **kwargs,
    )

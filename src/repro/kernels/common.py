"""Shared kernel configuration and the one result type per op.

:class:`SpmmResult` and :class:`SddmmResult` are what every path returns:
the kernel entry points (8×1 and 16×1), the CSR baselines,
:func:`repro.spmm` / :func:`repro.sddmm` (which add an ``estimate`` when
given a device) and a served request.  A product and its cost, whichever
path computed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.perfmodel.model import TimeEstimate, gflops
from repro.precision.types import Precision

#: Execution engines accepted by :class:`FlashSparseConfig`.
ENGINES: tuple[str, ...] = ("batched", "reference")

@dataclass(frozen=True)
class FlashSparseConfig:
    """Configuration of a TCU kernel invocation.

    The sparse granularity is not configured here: the entry point called
    (``*_flash_*`` for 8×1, ``*_tcu16_*`` for 16×1) is the choice, and a
    blocked-format input carries its own ``vector_size``.

    Attributes
    ----------
    precision:
        Tensor-core precision (``fp16`` or ``tf32``).
    coalesced:
        Use the memory-efficient thread mapping of Section 3.3 (Figure 7c).
        ``False`` selects the direct mapping (Figure 7b) — the ablation mode
        of Figure 15.  Read by the 8×1 SpMM only; the mappings are defined
        on the swapped operand layout.
    engine:
        ``"batched"`` (default) runs the vectorized execution engine of
        :mod:`repro.kernels.engine`; ``"reference"`` runs the per-(window,
        block, tile) emulation loop that mirrors the CUDA kernel
        instruction-for-instruction.  Both produce the same cost counters
        exactly and the same values up to FP32 round-off.
    """

    precision: Precision = Precision.FP16
    coalesced: bool = True
    engine: str = "batched"

    def __post_init__(self) -> None:
        object.__setattr__(self, "precision", Precision(self.precision))
        if self.precision is Precision.FP32:
            raise ValueError(
                "tensor-core kernels support fp16/tf32 only; "
                "use the CUDA-core baselines for fp32"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")


@dataclass
class SpmmResult:
    """The result of an SpMM: the product and its simulated cost.

    Every path returns this one type — the kernel entry points, the
    baselines, :func:`repro.spmm` and a served request (``kernel`` reads
    ``"flashsparse_spmm"`` there).
    """

    #: Dense output matrix C = A @ B, shape (M, N), float32.
    values: np.ndarray
    #: Hardware cost the kernel would incur.
    counter: CostCounter
    #: Name of the kernel that produced the result.
    kernel: str
    #: Useful FLOPs of the operation (2 * nnz * N).
    useful_flops: int
    #: Estimated runtime on a device (None when no device was given).
    estimate: TimeEstimate | None = None
    #: Extra metadata (precision, mapping, vector size, ...).
    meta: dict = field(default_factory=dict)

    @property
    def gflops(self) -> float | None:
        """Estimated throughput in GFLOP/s (None without an estimate)."""
        if self.estimate is None:
            return None
        return gflops(self.useful_flops, self.estimate.total_time_s)


@dataclass
class SddmmResult:
    """The result of an SDDMM: the sampled output and its simulated cost
    (one type on every path, as :class:`SpmmResult`)."""

    #: Sparse output in the same blocked format as the input mask (values
    #: replaced by the sampled dot products).
    output: BlockedVectorFormat
    #: Hardware cost the kernel would incur.
    counter: CostCounter
    #: Name of the kernel that produced the result.
    kernel: str
    #: Useful FLOPs of the operation (2 * nnz * K).
    useful_flops: int
    #: Estimated runtime on a device (None when no device was given).
    estimate: TimeEstimate | None = None
    #: Extra metadata.
    meta: dict = field(default_factory=dict)

    def to_csr(self) -> CSRMatrix:
        """The sparse output as a CSR matrix."""
        return self.output.to_csr()

    def to_scipy(self) -> sp.csr_matrix:
        """The sparse output as a scipy CSR matrix."""
        return self.to_csr().to_scipy()

    @property
    def gflops(self) -> float | None:
        """Estimated throughput in GFLOP/s (None without an estimate)."""
        if self.estimate is None:
            return None
        return gflops(self.useful_flops, self.estimate.total_time_s)

"""FlashSparse SpMM: the 8×1 swap-and-transpose binding (Section 3.3).

A declaration over the one SpMM kernel of :mod:`repro.kernels.spmm`: the
performance profile, the :data:`~repro.kernels.granularity.FLASH` binding
(8-row ME-BCRS vectors, one MMA per 16 dense columns, B rows loaded under
the thread mappings of Figure 7) and the two entry points.
"""

from __future__ import annotations

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import FlashSparseConfig, SpmmResult
from repro.kernels.granularity import FLASH
from repro.kernels.spmm import spmm_cost, spmm_execute
from repro.perfmodel.model import KernelProfile

#: Performance profile of the FlashSparse SpMM kernel.
FLASH_SPMM_PROFILE = KernelProfile(
    name="FlashSparse-SpMM",
    tcu_efficiency=0.35,
    cuda_efficiency=0.60,
    memory_efficiency=0.72,
    l2_efficiency=0.70,
    mma_issue_ns=1.0,
    index_op_weight=2.0,
    notes="8x1 swap-and-transpose kernel with coalesced thread mapping; wide "
    "128-bit loads sustain a high fraction of L2 bandwidth",
)


def spmm_flash_execute(
    a: BlockedVectorFormat | CSRMatrix,
    b: np.ndarray,
    config: FlashSparseConfig | None = None,
) -> SpmmResult:
    """Execute C = A @ B with the FlashSparse SpMM kernel.

    Parameters
    ----------
    a:
        Sparse matrix, either already in ME-BCRS or as CSR (translated on the
        fly, as the paper's preprocessing kernel would).
    b:
        Dense matrix of shape ``(a.n_cols, N)``.
    config:
        Kernel configuration (precision and thread mapping).
    """
    return spmm_execute(FLASH, "flashsparse_spmm", spmm_flash_cost, a, b, config)


def spmm_flash_cost(
    a: BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    config: FlashSparseConfig | None = None,
) -> CostCounter:
    """Cost of the FlashSparse SpMM without computing the numeric result
    (exactly the counter :func:`spmm_flash_execute` produces)."""
    return spmm_cost(FLASH, a, n_dense, config)

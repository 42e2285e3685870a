"""Simulated FlashSparse kernels (SpMM / SDDMM) and the 16×1 TCU baselines.

Each kernel has two entry points:

* an ``execute`` function that produces the numeric result *and* the cost
  counter (used by tests, examples and GNN training);
* a ``cost`` function that produces the same cost counter directly from the
  format's block structure without touching the values (used by the
  per-matrix benchmark sweeps, where only costs are needed).

Execution engine architecture
-----------------------------
Every ``execute`` function dispatches on ``FlashSparseConfig.engine``:

* ``engine="reference"`` walks the TC-block structure with a per-(window,
  block, tile) Python loop, issuing one emulated MMA
  (:func:`repro.gpu.mma.mma_execute` / ``mma_execute_swapped``) per tile —
  a faithful, instruction-level mirror of the CUDA kernel and the oracle
  the batched engine is validated against;
* ``engine="batched"`` (the default) routes the numerics through
  :mod:`repro.kernels.engine`, which works at the stored nonzero lanes of
  the format
  (:meth:`~repro.formats.blocked.BlockedVectorFormat.lanes_as_csr`), never
  at padded block slots.  SpMM is one row-wise accumulate —
  ``out[r] = Σ_e q(value[e]) · B_q[col[e]]`` in FP32, in storage order —
  the MMA accumulator kept across a window's blocks, with no per-block
  product and no window reduction.  SDDMM is one dot product per nonzero —
  ``out[e] = A_q[row[e]] · B_q[col[e]]`` — a gather and an ``einsum`` in
  fixed L2-sized entry chunks.

The reference/batched contract: both engines produce *exactly* the same
:class:`~repro.gpu.counters.CostCounter` state (the batched path takes its
counter from the closed-form ``cost`` functions, which are computed over the
block-width histogram with the bulk counter APIs and are asserted
field-for-field equal to the loop's counters), and the same numeric values
up to FP32 accumulation-order round-off (the reference loop, which stays the
per-MMA oracle, sums tile by tile).  The batched engine itself is
**bit-identical** under sharding, chunking, layer fusion and (SpMM) operand
coalescing: an output row depends only on its own entries, an output
column only on its own column of the dense operand, a sampled value only
on its own two dense rows.  CSR inputs are
translated to the blocked formats through the LRU cache of
:mod:`repro.formats.cache`, so sweeps and training loops that re-submit the
same matrix do not pay the translation twice.
"""

from repro.kernels.common import (
    FlashSparseConfig,
    SpmmKernelResult,
    SddmmKernelResult,
    resolve_flash_format,
    resolve_tcu16_format,
)
from repro.kernels.engine import sddmm_batched, spmm_batched
from repro.kernels.thread_mapping import (
    ThreadMapping,
    direct_mapping,
    coalesced_mapping,
    b_tile_transactions,
)
from repro.kernels.spmm_flash import (
    spmm_flash_execute,
    spmm_flash_cost,
    FLASH_SPMM_PROFILE,
)
from repro.kernels.sddmm_flash import (
    sddmm_flash_execute,
    sddmm_flash_cost,
    FLASH_SDDMM_PROFILE,
)
from repro.kernels.spmm_tcu16 import (
    spmm_tcu16_execute,
    spmm_tcu16_cost,
    TCU16_SPMM_PROFILE,
)
from repro.kernels.sddmm_tcu16 import (
    sddmm_tcu16_execute,
    sddmm_tcu16_cost,
    TCU16_SDDMM_PROFILE,
)

__all__ = [
    "FlashSparseConfig",
    "SpmmKernelResult",
    "SddmmKernelResult",
    "resolve_flash_format",
    "resolve_tcu16_format",
    "spmm_batched",
    "sddmm_batched",
    "ThreadMapping",
    "direct_mapping",
    "coalesced_mapping",
    "b_tile_transactions",
    "spmm_flash_execute",
    "spmm_flash_cost",
    "FLASH_SPMM_PROFILE",
    "sddmm_flash_execute",
    "sddmm_flash_cost",
    "FLASH_SDDMM_PROFILE",
    "spmm_tcu16_execute",
    "spmm_tcu16_cost",
    "TCU16_SPMM_PROFILE",
    "sddmm_tcu16_execute",
    "sddmm_tcu16_cost",
    "TCU16_SDDMM_PROFILE",
]

"""Simulated tensor-core kernels: one SpMM, one SDDMM, two operand bindings.

:mod:`repro.kernels.spmm` and :mod:`repro.kernels.sddmm` each hold one kernel
body — execute, per-MMA reference loop, closed-form cost pass — written over
a :class:`~repro.kernels.granularity.Granularity` record.  The table in
:mod:`repro.kernels.granularity` has two rows: FlashSparse's 8×1
swap-and-transpose binding over ME-BCRS and the 16×1 direct binding over
SGT-16 (TC-GNN, DTC-SpMM).  The four ``*_flash`` / ``*_tcu16`` modules are
declarations over them — a profile, a binding and two entry points:

* ``execute`` produces the numeric result *and* the cost counter (tests,
  examples, GNN training);
* ``cost`` produces the same counter from the format's block structure
  alone (the per-matrix benchmark sweeps, where only costs are needed).

``execute`` returns :class:`~repro.kernels.common.SpmmResult` /
:class:`~repro.kernels.common.SddmmResult`, the one result type per op
that the baselines, :func:`repro.spmm` / :func:`repro.sddmm` and a served
request return as well.

Every ``execute`` dispatches on ``FlashSparseConfig.engine``:

* ``engine="reference"`` walks the TC-block structure with a per-(window,
  block, tile) Python loop, issuing one emulated MMA of the binding per
  tile — an instruction-level mirror of the CUDA kernel and the oracle the
  batched engine is validated against, for numerics and per-block costs;
* ``engine="batched"`` (the default) routes the numerics through
  :mod:`repro.kernels.engine`, which works at the stored nonzero lanes of
  the format
  (:meth:`~repro.formats.blocked.BlockedVectorFormat.lanes_as_csr`, a
  gather through the translation's entry map), never at padded block
  slots.  SpMM is one row-wise accumulate —
  ``out[r] = Σ_e q(value[e]) · B_q[col[e]]`` in FP32, in storage order;
  SDDMM is one dot product per nonzero — ``out[e] = A_q[row[e]] ·
  B_q[col[e]]``.  Equation (1) is an identity, so the binding moves cost,
  never bits: both granularities return the same values here.

The reference/batched contract: both engines produce *exactly* the same
:class:`~repro.gpu.counters.CostCounter` state (the batched path takes its
counter from the entry point's own ``cost`` function) and the same values up
to FP32 accumulation-order round-off.  The batched engine itself is
**bit-identical** under sharding, chunking, layer fusion and (SpMM) operand
coalescing.  CSR inputs are translated through the LRU cache of
:mod:`repro.formats.cache`, so re-submitting a matrix does not pay the
translation twice.
"""

from repro.kernels.common import (
    FlashSparseConfig,
    SpmmResult,
    SddmmResult,
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
    "SpmmResult",
    "SddmmResult",
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

"""Tensor-core baselines: DTC-SpMM and TC-GNN.

Both prior TCU approaches use the 16×1 nonzero-vector granularity analysed in
Section 2; their cost is therefore the 16×1 kernel of
:mod:`repro.kernels.spmm_tcu16` plus the approach-specific overheads the
paper calls out:

* **DTC-SpMM** (ASPLOS'24) — ``mma.m16n8k8`` TF32 with systematic
  optimisations; the strongest prior TCU baseline.  Its cost is essentially
  the 16×1 kernel at TF32 precision.
* **TC-GNN** (USENIX ATC'23) — WMMA ``m16n16k8`` TF32 with the SGT sparse
  translation.  Its kernel performs extensive per-element position checks to
  locate sparse elements inside each TC block; the paper attributes TC-GNN's
  poor (and size-degrading) performance to this overhead, so the model
  charges index work proportional to the stored block elements per dense
  tile, on top of the WMMA pipeline's lower efficiency.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import Baseline
from repro.formats.csr import CSRMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.gpu.counters import CostCounter
from repro.kernels.common import FlashSparseConfig, SpmmResult, SddmmResult
from repro.kernels.granularity import TCU16, ceil_div
from repro.kernels.sddmm_tcu16 import sddmm_tcu16_cost, sddmm_tcu16_execute
from repro.kernels.spmm_tcu16 import spmm_tcu16_cost, spmm_tcu16_execute
from repro.perfmodel.model import KernelProfile
from repro.precision.types import Precision

#: Per-element position-check work TC-GNN performs inside each sparse TC
#: block, charged once per dense tile the block is multiplied against.
TCGNN_POSITION_CHECK_OPS = 4

#: Shared 16×1 kernel configuration for both TCU baselines.  The engine is
#: pinned explicitly: the baselines' execute paths run the batched vectorized
#: engine (not the per-block emulation loops), which the audit of the stale
#: "baselines walk Python loops" ROADMAP claim made explicit.
_TCU16_BATCHED_CONFIG = FlashSparseConfig(precision=Precision.TF32, engine="batched")


# ---------------------------------------------------------------------------
# DTC-SpMM
# ---------------------------------------------------------------------------
DTC_SPMM_PROFILE = KernelProfile(
    name="DTC-SpMM",
    tcu_efficiency=0.25,
    cuda_efficiency=0.55,
    memory_efficiency=0.65,
    l2_efficiency=0.40,
    mma_issue_ns=1.2,
    imbalance_factor=1.10,
    notes="16x1 vectors, mma.m16n8k8 TF32; narrower per-thread loads than the "
    "8x1 swap-and-transpose kernel",
)


def dtc_spmm_cost(matrix: CSRMatrix | SGT16Matrix, n_dense: int) -> CostCounter:
    """Cost of DTC-SpMM: the 16×1 TF32 MMA kernel."""
    config = _TCU16_BATCHED_CONFIG
    return spmm_tcu16_cost(matrix, n_dense, config, api="mma")


def dtc_spmm_execute(matrix: CSRMatrix | SGT16Matrix, b: np.ndarray) -> SpmmResult:
    """Execute DTC-SpMM (numerics + cost)."""
    config = _TCU16_BATCHED_CONFIG
    result = spmm_tcu16_execute(matrix, b, config, api="mma")
    result.kernel = "DTC-SpMM"
    result.meta["baseline"] = "DTC-SpMM"
    return result


DTC_SPMM = Baseline(
    name="DTC-SpMM",
    paper_reference="Fan et al., DTC-SpMM (ASPLOS'24) [10]",
    precision=Precision.TF32,
    granularity="16x1 on TCU",
    profile=DTC_SPMM_PROFILE,
    spmm_cost=dtc_spmm_cost,
    spmm_execute=dtc_spmm_execute,
    notes="Strongest prior tensor-core SpMM; 16x1 nonzero vectors.",
)


# ---------------------------------------------------------------------------
# TC-GNN
# ---------------------------------------------------------------------------
TCGNN_PROFILE = KernelProfile(
    name="TC-GNN",
    tcu_efficiency=0.15,
    cuda_efficiency=0.45,
    memory_efficiency=0.50,
    l2_friendly=False,
    mma_issue_ns=2.0,
    imbalance_factor=1.20,
    extra_launch_us=20.0,
    notes="WMMA m16n16k8 TF32 with per-element position checks; SGT's shared-memory "
    "walks defeat L2 reuse, so all traffic is charged at DRAM rate",
)


def _tcgnn_position_check_ops(matrix: CSRMatrix | SGT16Matrix, tiles: int) -> int:
    # The translation the kernel call just before this one went through:
    # a cache hit, never a second ``from_csr``.
    fmt = TCU16.resolve(matrix, _TCU16_BATCHED_CONFIG.precision)
    stored_elements = fmt.num_nonzero_vectors * fmt.vector_size
    return int(stored_elements * tiles * TCGNN_POSITION_CHECK_OPS)


def tcgnn_spmm_cost(matrix: CSRMatrix | SGT16Matrix, n_dense: int) -> CostCounter:
    """Cost of TC-GNN's SpMM: 16×1 WMMA kernel plus position-check overhead."""
    config = _TCU16_BATCHED_CONFIG
    counter = spmm_tcu16_cost(matrix, n_dense, config, api="wmma")
    tiles = ceil_div(int(n_dense), 16)
    counter.add_index_ops(_tcgnn_position_check_ops(matrix, tiles))
    return counter


def tcgnn_spmm_execute(matrix: CSRMatrix | SGT16Matrix, b: np.ndarray) -> SpmmResult:
    """Execute TC-GNN's SpMM (numerics + cost including position checks)."""
    config = _TCU16_BATCHED_CONFIG
    result = spmm_tcu16_execute(matrix, b, config, api="wmma")
    tiles = ceil_div(int(np.asarray(b).shape[1]), 16)
    result.counter.add_index_ops(_tcgnn_position_check_ops(matrix, tiles))
    result.kernel = "TC-GNN"
    result.meta["baseline"] = "TC-GNN"
    return result


def tcgnn_sddmm_cost(matrix: CSRMatrix | SGT16Matrix, k_dense: int) -> CostCounter:
    """Cost of TC-GNN's SDDMM at 16×1 granularity plus position checks."""
    config = _TCU16_BATCHED_CONFIG
    counter = sddmm_tcu16_cost(matrix, k_dense, config)
    chunks = ceil_div(int(k_dense), 8)
    counter.add_index_ops(_tcgnn_position_check_ops(matrix, chunks))
    return counter


def tcgnn_sddmm_execute(matrix: CSRMatrix | SGT16Matrix, a: np.ndarray, b: np.ndarray) -> SddmmResult:
    """Execute TC-GNN's SDDMM (numerics + cost)."""
    config = _TCU16_BATCHED_CONFIG
    result = sddmm_tcu16_execute(matrix, a, b, config)
    chunks = ceil_div(int(np.asarray(a).shape[1]), 8)
    result.counter.add_index_ops(_tcgnn_position_check_ops(matrix, chunks))
    result.kernel = "TC-GNN"
    result.meta["baseline"] = "TC-GNN"
    return result


TCGNN = Baseline(
    name="TC-GNN",
    paper_reference="Wang et al., TC-GNN (USENIX ATC'23) [45]",
    precision=Precision.TF32,
    granularity="16x1 on TCU",
    profile=TCGNN_PROFILE,
    spmm_cost=tcgnn_spmm_cost,
    spmm_execute=tcgnn_spmm_execute,
    sddmm_cost=tcgnn_sddmm_cost,
    sddmm_execute=tcgnn_sddmm_execute,
    notes="WMMA-based GNN kernels; per-element position checks dominate on large matrices.",
)

"""Sparse matrix storage formats.

This subpackage implements the storage formats that the paper's kernels and
baselines rely on:

* :mod:`repro.formats.csr` — plain CSR, the input/interchange format;
* :mod:`repro.formats.windows` — row-window / nonzero-vector partitioning,
  the shared preprocessing step of every TCU approach (Section 2.2);
* :mod:`repro.formats.blocked` — a generic "window of nonzero vectors"
  block format parameterised by the vector height and the TC-block width
  ``k``;
* :mod:`repro.formats.mebcrs` — ME-BCRS, FlashSparse's memory-efficient
  format that stores no padded zero vectors (Section 3.5);
* :mod:`repro.formats.srbcrs` — SR-BCRS, the padding-based format of
  prior work, used as the footprint baseline for Table 7;
* :mod:`repro.formats.sgt16` — the 16×1-vector format used by TC-GNN and
  DTC-SpMM;
* :mod:`repro.formats.stats` — redundancy statistics (zero fill, MMA
  counts, data-access cost) used for Figures 1, 12 and Table 2;
* :mod:`repro.formats.cache` — an LRU cache of CSR → blocked translations
  shared by the kernel entry points;
* :mod:`repro.formats.matrix` — :class:`~repro.formats.matrix.FlashSparseMatrix`,
  the user-facing matrix (a CSR and its cached translations) that
  :func:`repro.spmm`, :func:`repro.sddmm` and the server accept; the
  package facade :mod:`repro` exports it.

A translator's default TC-block width ``k`` is the ``k`` of the MMA its
kernels issue, read from the instruction tables of :mod:`repro.gpu.mma`.
"""

from repro.formats.csr import CSRMatrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.formats.blocked import BlockBatch, BlockedVectorFormat, LaneCSR
from repro.formats.cache import cached_mebcrs, cached_sgt16, clear_format_cache
from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.srbcrs import SRBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.formats.stats import (
    VectorStats,
    vector_stats,
    mma_count_spmm,
    mma_count_sddmm,
    spmm_data_access_bytes,
    sddmm_data_access_bytes,
)

__all__ = [
    "CSRMatrix",
    "WindowPartition",
    "partition_windows",
    "BlockBatch",
    "LaneCSR",
    "BlockedVectorFormat",
    "cached_mebcrs",
    "cached_sgt16",
    "clear_format_cache",
    "MEBCRSMatrix",
    "SRBCRSMatrix",
    "SGT16Matrix",
    "VectorStats",
    "vector_stats",
    "mma_count_spmm",
    "mma_count_sddmm",
    "spmm_data_access_bytes",
    "sddmm_data_access_bytes",
]

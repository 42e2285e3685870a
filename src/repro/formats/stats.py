"""Redundancy statistics for nonzero-vector partitions.

These functions reproduce the paper's motivation and cost analyses without
running any kernel:

* :func:`vector_stats` — nonzero-vector counts and the number of zero
  elements stored inside nonzero vectors (Table 2);
* :func:`mma_count_spmm` / :func:`mma_count_sddmm` — the number of MMA
  invocations needed to complete one SpMM / SDDMM at a given vector
  granularity (Figure 1);
* :func:`spmm_data_access_bytes` / :func:`sddmm_data_access_bytes` — the
  paper's "data access cost" formulas from Figures 2, 6 and 12.

The conventions follow Section 2.2 and 3.3: at 16×1 granularity the sparse
block is the MMA *left* operand, so each MMA covers ``n = 8`` columns of the
dense matrix; at 8×1 granularity (FlashSparse's swap-and-transpose) the
sparse block is the *right* operand and each MMA covers ``m = 16`` dense
columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.formats.csr import CSRMatrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.precision.types import Precision, element_bytes


def _ceil_div(a: int, b: int) -> int:
    return -(-int(a) // int(b))


@dataclass(frozen=True)
class VectorStats:
    """Nonzero-vector statistics of a matrix at one vector granularity."""

    vector_size: int
    nnz: int
    num_nonzero_vectors: int
    zero_fill: int
    num_windows: int

    @property
    def stored_elements(self) -> int:
        """Elements stored inside nonzero vectors (nonzeros + zero fill)."""
        return self.num_nonzero_vectors * self.vector_size

    @property
    def fill_ratio(self) -> float:
        """Zero fill divided by nnz (how many wasted slots per useful value)."""
        return self.zero_fill / self.nnz if self.nnz else 0.0

    @property
    def vector_density(self) -> float:
        """Average fraction of a stored vector that is nonzero."""
        return self.nnz / self.stored_elements if self.stored_elements else 0.0


def vector_stats(matrix: CSRMatrix | WindowPartition, vector_size: int | None = None) -> VectorStats:
    """Compute :class:`VectorStats` for a matrix (or precomputed partition)."""
    if isinstance(matrix, WindowPartition):
        part = matrix
        if vector_size is not None and vector_size != part.vector_size:
            raise ValueError("vector_size disagrees with the provided partition")
    else:
        if vector_size is None:
            raise ValueError("vector_size is required when passing a CSR matrix")
        part = partition_windows(matrix, vector_size)
    return VectorStats(
        vector_size=part.vector_size,
        nnz=part.nnz,
        num_nonzero_vectors=part.num_nonzero_vectors,
        zero_fill=part.zero_fill,
        num_windows=part.num_windows,
    )


def dense_tile_cols(vector_size: int) -> int:
    """Dense-matrix columns covered by one MMA at a given sparse granularity.

    16×1 (sparse block as left operand): the output tile is ``m16n8`` so each
    MMA covers 8 dense columns.  8×1 (swap-and-transpose): the dense block is
    the left operand of shape ``m16×k`` so each MMA covers 16 dense columns.
    """
    if vector_size == 16:
        return 8
    if vector_size == 8:
        return 16
    raise ValueError(f"unsupported vector size {vector_size}; expected 8 or 16")


def mma_count_spmm(
    partition: WindowPartition | CSRMatrix,
    k: int,
    n_dense: int,
    vector_size: int | None = None,
) -> int:
    """Number of MMA invocations for one SpMM.

    Parameters
    ----------
    partition:
        A :class:`WindowPartition` (or a CSR matrix, partitioned on the fly).
    k:
        TC-block width (vectors per MMA): the MMA ``k`` dimension.
    n_dense:
        Number of columns ``N`` of the dense matrix B.
    vector_size:
        Required when passing a CSR matrix.
    """
    if isinstance(partition, CSRMatrix):
        if vector_size is None:
            raise ValueError("vector_size is required when passing a CSR matrix")
        partition = partition_windows(partition, vector_size)
    blocks = partition.num_tc_blocks(k)
    tiles = _ceil_div(n_dense, dense_tile_cols(partition.vector_size))
    return int(blocks * tiles)


def spmm_data_access_bytes(
    partition: WindowPartition | CSRMatrix,
    k: int,
    n_dense: int,
    precision: Precision | str = Precision.FP16,
    vector_size: int | None = None,
    include_output: bool = False,
) -> int:
    """The paper's SpMM data-access cost (Figures 2, 6 and 12).

    Per MMA, the kernel touches the sparse TC block A
    (``vector_size × k`` elements) and the dense TC block B
    (``k × dense_tile`` elements); the cost is summed over all MMAs.  When
    ``include_output`` is set, the ``vector_size × dense_tile`` accumulator
    write-back per output tile is added (the paper's headline formula counts
    only the input blocks, which is the default here).
    """
    if isinstance(partition, CSRMatrix):
        if vector_size is None:
            raise ValueError("vector_size is required when passing a CSR matrix")
        partition = partition_windows(partition, vector_size)
    v = partition.vector_size
    tile = dense_tile_cols(v)
    elem = element_bytes(precision)
    mmas = mma_count_spmm(partition, k=k, n_dense=n_dense)
    per_mma_elements = v * k + k * tile
    cost = mmas * per_mma_elements * elem
    if include_output:
        out_tiles = partition.num_windows * _ceil_div(n_dense, tile)
        cost += out_tiles * v * tile * 4  # FP32 accumulator write-back
    return int(cost)


def sddmm_vectors_per_output_block(vector_size: int) -> int:
    """Nonzero vectors covered by one sparse output TC block in SDDMM.

    At 16×1 the sparse output block is 16×8 (8 vectors); at 8×1 it is 8×16
    (16 vectors), thanks to the swap-and-transpose strategy (Figure 8).
    """
    return dense_tile_cols(vector_size)


def mma_count_sddmm(
    partition: WindowPartition | CSRMatrix,
    mma_k: int,
    k_dense: int,
    vector_size: int | None = None,
) -> int:
    """Number of MMA invocations for one SDDMM.

    ``k_dense`` is the inner (feature) dimension K of the two dense inputs;
    each output TC block needs ``ceil(K / mma_k)`` MMAs.
    """
    if isinstance(partition, CSRMatrix):
        if vector_size is None:
            raise ValueError("vector_size is required when passing a CSR matrix")
        partition = partition_windows(partition, vector_size)
    per_block = sddmm_vectors_per_output_block(partition.vector_size)
    counts = partition.vectors_per_window
    out_blocks = int(((counts + per_block - 1) // per_block).sum())
    return out_blocks * _ceil_div(k_dense, mma_k)


def sddmm_data_access_bytes(
    partition: WindowPartition | CSRMatrix,
    mma_k: int,
    k_dense: int,
    precision: Precision | str = Precision.FP16,
    vector_size: int | None = None,
    include_output: bool = False,
) -> int:
    """SDDMM data-access cost at a given vector granularity (Figure 12 b)."""
    if isinstance(partition, CSRMatrix):
        if vector_size is None:
            raise ValueError("vector_size is required when passing a CSR matrix")
        partition = partition_windows(partition, vector_size)
    v = partition.vector_size
    per_block = sddmm_vectors_per_output_block(v)
    elem = element_bytes(precision)
    mmas = mma_count_sddmm(partition, mma_k=mma_k, k_dense=k_dense)
    per_mma_elements = v * mma_k + mma_k * per_block
    cost = mmas * per_mma_elements * elem
    if include_output:
        counts = partition.vectors_per_window
        out_blocks = int(((counts + per_block - 1) // per_block).sum())
        cost += out_blocks * v * per_block * 4
    return int(cost)

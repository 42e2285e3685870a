"""Generic blocked nonzero-vector format.

ME-BCRS (8×1 vectors, FlashSparse), SR-BCRS (8×1 vectors with zero-vector
padding) and the SGT-style 16×1 format of TC-GNN / DTC-SpMM all share the
same skeleton: the matrix is cut into row windows of ``vector_size`` rows,
the nonzero vectors (columns with at least one nonzero inside the window)
are packed together, and groups of ``k`` consecutive vectors form the sparse
TC blocks consumed by the MMA instructions.

:class:`BlockedVectorFormat` implements that skeleton once; the concrete
formats in :mod:`repro.formats.mebcrs`, :mod:`repro.formats.srbcrs` and
:mod:`repro.formats.sgt16` specialise the vector size, the padding policy and
the memory-footprint accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.ops import segment_ids
from repro.precision.types import Precision, dtype_for, quantize


@dataclass(frozen=True)
class BlockBatch:
    """The TC-block index of a :class:`BlockedVectorFormat` for one grouping.

    Blocks are numbered in storage order (window by window, then block by
    block within the window).  This is structure only — what the shard cut
    and the planner count; the numeric engine reads :class:`LaneCSR`.

    Attributes
    ----------
    group:
        Number of vectors grouped per block (the format's ``k`` for SpMM; the
        output-tile width for SDDMM).
    window_offsets:
        ``(num_windows + 1,)`` — indptr-style block offsets:
        ``window_offsets[w]:window_offsets[w + 1]`` is window ``w``'s block
        range.
    """

    group: int
    window_offsets: np.ndarray

    @property
    def num_blocks(self) -> int:
        """Total number of TC blocks under this grouping."""
        return int(self.window_offsets[-1])


@dataclass(frozen=True)
class LaneCSR:
    """The stored nonzero lanes of a :class:`BlockedVectorFormat`, row by row.

    A gather through the entry map
    (:attr:`~repro.formats.windows.WindowPartition.entry_slot`) — a CSR over
    the format's ``num_windows · vector_size`` padded rows: row ``w · v + r``
    owns entries ``row_offsets[row]:row_offsets[row + 1]``, one per nonzero
    vector of window ``w`` whose lane ``r`` is nonzero, in storage order
    (ascending vector index, which for the canonical source CSR is its own
    entry order).  ``columns`` (int32) is the vector's column, ``values``
    (float32) the stored element and ``slot`` (int64) its flat position
    ``vector · v + lane`` in ``vector_values`` — where SDDMM writes the
    entry's output.  Zero lanes — the zero fill inside nonzero vectors,
    every padded block lane and any CSR entry whose stored value is zero —
    have no entry, so the engine does work per nonzero, not per block slot.
    """

    row_offsets: np.ndarray
    columns: np.ndarray
    values: np.ndarray
    slot: np.ndarray


@dataclass
class BlockedVectorFormat:
    """Window/vector-blocked sparse matrix.

    Attributes
    ----------
    partition:
        The nonzero-vector structure (windows, vector column indices).
    vector_values:
        Array of shape ``(num_nonzero_vectors, vector_size)``;
        ``vector_values[j, r]`` is the element at row offset ``r`` of nonzero
        vector ``j`` within its window (zero where the original matrix has no
        entry).  This is a layout-neutral view; :meth:`values_row_major`
        materialises the paper's exact per-block row-major byte layout.
    k:
        TC-block width — number of vectors grouped per MMA operand
        (8 for FP16, 4 for TF32 in FlashSparse; 8 for the 16×1 baselines).
    precision:
        Storage precision of the values.
    """

    partition: WindowPartition
    vector_values: np.ndarray
    k: int
    precision: Precision = Precision.FP32
    format_name: str = field(default="blocked", repr=False)

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        self.precision = Precision(self.precision)
        expected = (self.partition.num_nonzero_vectors, self.partition.vector_size)
        if self.vector_values.shape != expected:
            raise ValueError(
                f"vector_values must have shape {expected}, got {self.vector_values.shape}"
            )

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_csr(
        cls,
        matrix: CSRMatrix,
        vector_size: int,
        k: int,
        precision: Precision | str = Precision.FP32,
        partition: WindowPartition | None = None,
        **kwargs,
    ) -> "BlockedVectorFormat":
        """Translate a CSR matrix into the blocked nonzero-vector format.

        This is the "sparse matrix translation" step of Figure 3; the paper
        performs it with a CUDA kernel, here it is fully vectorised NumPy.
        ``partition`` is ``matrix``'s own :func:`partition_windows` result
        when the caller already holds it (a translation cache keyed by
        :meth:`~repro.formats.csr.CSRMatrix.structure_key`): the
        translation is then one value scatter through its entry map.  A
        partition whose shape, nnz or vector size differs from the
        matrix's raises ``ValueError``; the caller vouches for the rest.
        """
        precision = Precision(precision)
        if partition is None:
            partition = partition_windows(matrix, vector_size)
        elif (partition.n_rows, partition.n_cols, partition.nnz, partition.vector_size) != (
            *matrix.shape,
            matrix.nnz,
            vector_size,
        ):
            raise ValueError(
                f"partition of a {partition.n_rows}x{partition.n_cols} matrix with "
                f"{partition.nnz} nonzeros at vector size {partition.vector_size} does not "
                f"match this {matrix.n_rows}x{matrix.n_cols} matrix with {matrix.nnz} "
                f"nonzeros at vector size {vector_size}"
            )
        values = partition.scatter(matrix.data, dtype_for(precision))
        return cls(partition=partition, vector_values=values, k=k, precision=precision, **kwargs)

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> tuple[int, int]:
        """Original matrix shape."""
        return (self.partition.n_rows, self.partition.n_cols)

    @property
    def vector_size(self) -> int:
        """Nonzero-vector length / window height."""
        return self.partition.vector_size

    @property
    def num_windows(self) -> int:
        """Number of row windows."""
        return self.partition.num_windows

    @property
    def num_nonzero_vectors(self) -> int:
        """Number of stored nonzero vectors."""
        return self.partition.num_nonzero_vectors

    @property
    def nnz(self) -> int:
        """Number of nonzeros of the original matrix."""
        return self.partition.nnz

    @property
    def num_tc_blocks(self) -> int:
        """Total number of sparse TC blocks (groups of up to ``k`` vectors)."""
        return self.partition.num_tc_blocks(self.k)

    @property
    def row_pointers(self) -> np.ndarray:
        """Per-window start offsets into :attr:`column_indices` (ME-BCRS array 1)."""
        return self.partition.window_ptr

    @property
    def column_indices(self) -> np.ndarray:
        """Column index of every stored nonzero vector (ME-BCRS array 2)."""
        return self.partition.vector_cols

    @property
    def zero_fill(self) -> int:
        """Number of explicit zeros stored inside nonzero vectors."""
        return self.partition.zero_fill

    # -------------------------------------------------------------- accessors
    def window_vector_range(self, window: int) -> tuple[int, int]:
        """Half-open range of nonzero-vector indices belonging to ``window``."""
        return (
            int(self.partition.window_ptr[window]),
            int(self.partition.window_ptr[window + 1]),
        )

    def window_blocks(self, window: int) -> int:
        """Number of TC blocks in ``window``."""
        start, end = self.window_vector_range(window)
        count = end - start
        return (count + self.k - 1) // self.k

    def block_columns(self, window: int, block: int) -> np.ndarray:
        """Column indices of the vectors in TC block ``block`` of ``window``."""
        start, end = self.window_vector_range(window)
        lo = start + block * self.k
        hi = min(lo + self.k, end)
        if lo >= end:
            raise IndexError(f"window {window} has no block {block}")
        return self.partition.vector_cols[lo:hi]

    def block_values(self, window: int, block: int) -> np.ndarray:
        """Values of TC block ``block`` of ``window``.

        Returns an array of shape ``(vector_size, width)`` where ``width`` is
        the number of vectors actually present in the block (``<= k``; the
        last block of a window may be narrower, which is exactly the case
        ME-BCRS refuses to pad).
        """
        start, end = self.window_vector_range(window)
        lo = start + block * self.k
        hi = min(lo + self.k, end)
        if lo >= end:
            raise IndexError(f"window {window} has no block {block}")
        # vector_values is (vectors, vector_size); the TC block is
        # (vector_size rows, width vectors).
        return np.asarray(self.vector_values[lo:hi].T)

    # -------------------------------------------------------- batched access
    def blocks_as_arrays(self, group: int | None = None) -> BlockBatch:
        """The block index (count and per-window offsets) for ``group``.

        ``group`` is the number of vectors per block and defaults to the
        format's MMA width :attr:`k`; the SDDMM kernels pass their output-tile
        width instead.  Structure only, so it is memoised on the partition
        (:meth:`~repro.formats.windows.WindowPartition.memo`) per ``group``:
        every translation of one pattern shares it.
        """
        group = self.k if group is None else int(group)
        if group <= 0:
            raise ValueError("group must be positive")
        part = self.partition

        def build() -> BlockBatch:
            offsets = np.zeros(part.num_windows + 1, dtype=np.int64)
            np.cumsum(part.tc_blocks_per_window(group), out=offsets[1:])
            return BlockBatch(group=group, window_offsets=offsets)

        return part.memo(("block_index", group), build)

    def lanes_as_csr(self) -> LaneCSR:
        """The nonzero lanes as a row-wise CSR (see :class:`LaneCSR`).

        A gather through the entry map (``partition.entry_slot``): the CSR
        entries whose stored value is nonzero, in CSR order — which is
        already storage order, since the source CSR is canonical.  The
        values are read from :attr:`vector_values`, never the source CSR,
        so a translation bug shows in the numerics.  Built on first use and
        cached on the instance: a translation is not mutated after
        :meth:`from_csr`.
        """
        view = self.__dict__.get("_lane_csr_cache")
        if view is not None:
            return view
        part = self.partition
        v = self.vector_size
        stored = self.vector_values.reshape(-1)[part.entry_slot]
        keep = stored != 0
        slot = part.entry_slot[keep]
        vector = slot // v
        row = segment_ids(part.window_ptr)[vector] * v + slot % v
        row_offsets = np.zeros(self.num_windows * v + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=self.num_windows * v), out=row_offsets[1:])
        view = LaneCSR(
            row_offsets=row_offsets,
            columns=part.vector_cols[vector],
            values=np.asarray(stored[keep], dtype=np.float32),
            slot=slot,
        )
        self.__dict__["_lane_csr_cache"] = view
        return view

    def quantized_lane_values(self, precision: Precision | str) -> np.ndarray:
        """:meth:`lanes_as_csr`'s ``values`` quantised to ``precision`` —
        the sparse operand of SpMM.

        Quantised once per translation and precision, and cached beside the
        lane view under the same no-mutation assumption.  The raw values
        stay on :class:`LaneCSR`: SDDMM masks with them, and its
        ``scale_by_mask`` multiplies by the *stored* value.
        """
        precision = Precision(precision)
        cache: dict = self.__dict__.setdefault("_lane_values_cache", {})
        values = cache.get(precision)
        if values is None:
            values = cache[precision] = quantize(self.lanes_as_csr().values, precision)
        return values

    # ----------------------------------------------------------- conversions
    def to_csr(self) -> CSRMatrix:
        """Convert back to CSR: the lane view over the original rows.

        Entries whose stored value is zero (explicit zeros, fp16 underflow,
        exact-zero SDDMM outputs) are dropped.  Shares its arrays with the
        cached :meth:`lanes_as_csr` view.
        """
        lanes = self.lanes_as_csr()
        indptr = lanes.row_offsets[: self.shape[0] + 1]
        return CSRMatrix(indptr, lanes.columns, lanes.values, self.shape)

    def to_dense(self) -> np.ndarray:
        """Dense reconstruction (tests / small matrices only)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        v = self.vector_size
        for w in range(self.num_windows):
            row0 = w * v
            row1 = min(row0 + v, self.shape[0])
            start, end = self.window_vector_range(w)
            if start == end:
                continue
            cols = self.partition.vector_cols[start:end].astype(np.int64)
            block = self.vector_values[start:end].T  # (v, n_vectors)
            dense[row0:row1, cols] = block[: row1 - row0]
        return dense

    def values_row_major(self) -> np.ndarray:
        """Materialise the per-block row-major value layout of the paper.

        For every window and every TC block the block's elements are emitted
        row by row (``vector_size`` rows of ``width`` elements), exactly the
        "Values uses sparse TC blocks as strides, storing the elements of each
        sparse TC block in row-major" layout of Figure 10.
        """
        chunks: list[np.ndarray] = []
        for w in range(self.num_windows):
            for b in range(self.window_blocks(w)):
                chunks.append(self.block_values(w, b).reshape(-1))
        if not chunks:
            return np.zeros(0, dtype=dtype_for(self.precision))
        return np.concatenate(chunks).astype(dtype_for(self.precision))

    # --------------------------------------------------------------- metrics
    def value_element_bytes(self) -> int:
        """Bytes per stored value element."""
        return dtype_for(self.precision).itemsize

    def memory_footprint_bytes(self, index_bytes: int = 4) -> int:
        """Bytes used by the three format arrays (no padding in the base class)."""
        value_count = self.num_nonzero_vectors * self.vector_size
        return int(
            (self.num_windows + 1) * index_bytes
            + self.num_nonzero_vectors * index_bytes
            + value_count * self.value_element_bytes()
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"vector_size={self.vector_size}, k={self.k}, "
            f"vectors={self.num_nonzero_vectors}, blocks={self.num_tc_blocks}, "
            f"precision={self.precision})"
        )

"""Row-window / nonzero-vector partitioning.

Every TCU approach in the paper starts by slicing the sparse matrix into row
*windows* whose height equals the nonzero-vector length (16 for TC-GNN /
DTC-SpMM, 8 for FlashSparse).  Within a window, any column that contains at
least one nonzero is a *nonzero vector*; the all-zero columns are dropped and
the nonzero vectors are packed next to each other before being grouped into
TC blocks of ``k`` vectors (Section 2.2, Figure 2).

:func:`partition_windows` performs this preprocessing in a fully vectorised
way (the paper performs it with a CUDA kernel; here NumPy plays that role)
and returns a :class:`WindowPartition`, the shared substrate for ME-BCRS,
SR-BCRS and the 16×1 SGT format.  The whole partition comes from one
in-place sort of ``uint64`` keys that pack each entry's (window, column)
pair above its CSR index; runs of equal pairs are the nonzero vectors.
Packing needs ``bit_length(num_windows · n_cols − 1) + bit_length(nnz − 1)
≤ 64``; wider inputs take a stable ``argsort`` of the bare pair keys, which
gives the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.formats.csr import CSRMatrix
from repro.utils.lru import LRU

#: Entries one partition's memo (:meth:`WindowPartition.memo`) keeps.  The
#: six end-to-end workloads put at most 4 distinct keys on one partition
#: (a served pattern: its values-free format, a block index, a plan and a
#: cost counter), counted over a 4 s run of each; 8 leaves room for a few
#: more widths.
PATTERN_MEMO_SIZE = 8


@dataclass
class WindowPartition:
    """Nonzero-vector structure of a sparse matrix for a given vector size.

    Attributes
    ----------
    vector_size:
        Window height / nonzero-vector length (8 or 16).
    n_rows, n_cols:
        Original matrix dimensions.
    num_windows:
        ``ceil(n_rows / vector_size)``.
    window_ptr:
        Array of length ``num_windows + 1``; ``window_ptr[w]:window_ptr[w+1]``
        indexes the nonzero vectors of window ``w`` in ``vector_cols``.
    vector_cols:
        Column index of each nonzero vector, sorted within each window.
    entry_slot:
        The entry map: for every CSR nonzero (in CSR order), its flat index
        ``vector · vector_size + row % vector_size`` into a format's
        ``(num_nonzero_vectors, vector_size)`` value array (int64) — the one
        place the translation's scatter is computed.  A canonical CSR (what
        :class:`~repro.formats.csr.CSRMatrix` guarantees) gives every entry
        its own slot, and within a row ascending column is ascending vector,
        so CSR order is storage order.  Structure only: it depends on
        ``indptr`` / ``indices``, never on the values.
    nnz:
        Number of stored nonzeros of the original matrix.
    """

    vector_size: int
    n_rows: int
    n_cols: int
    num_windows: int
    window_ptr: np.ndarray
    vector_cols: np.ndarray
    entry_slot: np.ndarray
    nnz: int

    def scatter(self, entries: np.ndarray, dtype) -> np.ndarray:
        """``entries`` — one value per CSR entry, in CSR order — laid out as
        a ``(num_nonzero_vectors, vector_size)`` value array of ``dtype``,
        zero in the slots no entry maps to: a translation's value scatter
        through the entry map."""
        out = np.zeros((self.num_nonzero_vectors, self.vector_size), dtype=dtype)
        out.reshape(-1)[self.entry_slot] = entries
        return out

    def memo(self, key: Hashable, build: Callable[[], object]):
        """``build()``'s value, computed once per partition and ``key``.

        The one memo of what a sparsity pattern implies: everything derived
        from the partition alone — a grouping's block index, a closed-form
        cost counter, a serving plan, the server's values-free format — is
        computed on first use and shared
        by every translation of the pattern, a values-only request's
        included.  ``key`` must name every other input ``build`` reads; a
        caller hands out a copy of a mutable value.  An
        :class:`~repro.utils.lru.LRU` of :data:`PATTERN_MEMO_SIZE` entries,
        kept beside the fields under the partition's no-mutation contract.
        """
        memo = self.__dict__.get("_memo")
        if memo is None:
            memo = self.__dict__.setdefault("_memo", LRU(PATTERN_MEMO_SIZE))
        return memo.lookup(key, build)

    # ------------------------------------------------------------ statistics
    @property
    def num_nonzero_vectors(self) -> int:
        """Total number of nonzero vectors across all windows."""
        return int(self.vector_cols.shape[0])

    @property
    def vectors_per_window(self) -> np.ndarray:
        """Number of nonzero vectors in each window."""
        return np.diff(self.window_ptr)

    @property
    def zero_fill(self) -> int:
        """Zero elements stored inside the nonzero vectors (Table 2)."""
        return self.num_nonzero_vectors * self.vector_size - self.nnz

    def tc_blocks_per_window(self, k: int) -> np.ndarray:
        """Number of TC blocks (groups of ``k`` vectors) in each window."""
        if k <= 0:
            raise ValueError("k must be positive")
        counts = self.vectors_per_window
        return (counts + k - 1) // k

    def num_tc_blocks(self, k: int) -> int:
        """Total number of TC blocks when vectors are grouped ``k`` at a time."""
        return int(self.tc_blocks_per_window(k).sum())

    def padded_vectors(self, k: int) -> int:
        """Number of zero vectors a padding-based format (SR-BCRS) would add."""
        counts = self.vectors_per_window
        return int((self.tc_blocks_per_window(k) * k - counts).sum())

    def block_widths(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-TC-block vector counts and segment geometry, in storage order.

        Returns ``(widths, window_of_block, first_block)``: ``widths[b]`` is
        the number of vectors actually present in block ``b`` (``k`` for full
        blocks, the residue for the last block of a window),
        ``window_of_block[b]`` is the window the block belongs to, and
        ``first_block`` (length ``num_windows + 1``) gives each window's
        block range as ``first_block[w]:first_block[w + 1]``.  This is the
        block-width histogram the batched engine and the closed-form cost
        estimators share.
        """
        blocks_per_window = self.tc_blocks_per_window(k).astype(np.int64)
        n_blocks = int(blocks_per_window.sum())
        window_of_block = np.repeat(
            np.arange(self.num_windows, dtype=np.int64), blocks_per_window
        )
        first_block = np.zeros(self.num_windows + 1, dtype=np.int64)
        np.cumsum(blocks_per_window, out=first_block[1:])
        index_in_window = np.arange(n_blocks, dtype=np.int64) - first_block[window_of_block]
        counts = self.vectors_per_window.astype(np.int64)
        widths = np.minimum(counts[window_of_block] - index_in_window * k, k)
        return widths, window_of_block, first_block

    # -------------------------------------------------------------- accessors
    def window_row_range(self, window: int) -> tuple[int, int]:
        """Half-open row range ``[start, stop)`` covered by ``window``."""
        start = window * self.vector_size
        stop = min(start + self.vector_size, self.n_rows)
        return start, stop


def partition_windows(matrix: CSRMatrix, vector_size: int) -> WindowPartition:
    """Partition ``matrix`` into row windows of ``vector_size`` nonzero vectors.

    Window ``w``'s entries are the contiguous CSR range
    ``indptr[w·v]:indptr[min((w+1)·v, n_rows)]``, so each entry's key
    ``window · n_cols + column`` is one ``repeat`` over the windows.  The
    keys, each shifted up by ``b = bit_length(nnz − 1)`` bits with the
    entry's index in the low ``b`` bits, are distinct, so one in-place
    ``uint64`` sort orders them uniquely: the high bits are the sorted keys
    and the low bits the stable permutation.  A first-of-run mask over the
    sorted keys marks where each vector starts; ``vector_cols`` is the
    column of each run's first entry, ``window_ptr`` the running vector
    count at each window's first entry, and ``entry_slot`` scatters each
    run's vector id back through the permutation, plus the entry's lane
    ``row % v``.  When the packed key would not fit in 64 bits
    (``bit_length(num_windows · n_cols − 1) + b > 64``), a stable
    ``argsort`` of the bare keys gives the same permutation, only slower.

    Parameters
    ----------
    matrix:
        Input sparse matrix in CSR form.
    vector_size:
        Nonzero-vector length: 8 for FlashSparse, 16 for TC-GNN / DTC-SpMM.
    """
    if vector_size <= 0:
        raise ValueError("vector_size must be positive")
    n_rows, n_cols = matrix.shape
    num_windows = (n_rows + vector_size - 1) // vector_size if n_rows else 0
    nnz = matrix.nnz

    if nnz == 0:
        return WindowPartition(
            vector_size=vector_size,
            n_rows=n_rows,
            n_cols=n_cols,
            num_windows=num_windows,
            window_ptr=np.zeros(num_windows + 1, dtype=np.int64),
            vector_cols=np.zeros(0, dtype=np.int32),
            entry_slot=np.zeros(0, dtype=np.int64),
            nnz=0,
        )

    indptr = matrix.indptr
    entry_ptr = indptr[np.minimum(np.arange(num_windows + 1) * vector_size, n_rows)]

    # Key order is window-then-column order, the order the formats store
    # vectors in.
    window_keys = np.arange(num_windows, dtype=np.uint64) * np.uint64(n_cols)
    key = np.repeat(window_keys, np.diff(entry_ptr))
    key += matrix.indices.astype(np.uint64)
    index_bits = (nnz - 1).bit_length()
    if (num_windows * n_cols - 1).bit_length() + index_bits <= 64:
        key <<= np.uint64(index_bits)
        key |= np.arange(nnz, dtype=np.uint64)
        key.sort()
        perm = (key & np.uint64((1 << index_bits) - 1)).view(np.int64)
        key >>= np.uint64(index_bits)
    else:
        perm = key.argsort(kind="stable")
        key = key[perm]

    # vectors_before[i] counts the vectors that start before sorted position
    # i.  Window w's entries sit at entry_ptr[w]:entry_ptr[w+1] in CSR and in
    # sorted order alike, so window_ptr samples it there.
    first = np.empty(nnz, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    vectors_before = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(first, out=vectors_before[1:])
    window_ptr = vectors_before[entry_ptr]
    vector_cols = matrix.indices[perm[first]]

    entry_slot = np.empty(nnz, dtype=np.int64)
    entry_slot[perm] = (vectors_before[1:] - 1) * vector_size
    entry_slot += np.repeat(np.arange(n_rows, dtype=np.int64) % vector_size, np.diff(indptr))

    return WindowPartition(
        vector_size=vector_size,
        n_rows=n_rows,
        n_cols=n_cols,
        num_windows=num_windows,
        window_ptr=window_ptr,
        vector_cols=vector_cols,
        entry_slot=entry_slot,
        nnz=nnz,
    )

"""Thread-to-data mappings for loading the dense TC block B (Section 3.3).

In the swap-and-transpose SpMM the dense TC block B (``k`` rows × 16 dense
columns for FP16) becomes the *left* MMA operand after transposition.  The
PTX fragment layout of the left operand makes each thread responsible for
four FP16 elements; how those logical fragment slots are bound to physical
columns of B decides how the warp's loads coalesce:

* the **direct mapping** (Figure 7b) binds thread ``T(g, t)`` to physical
  columns ``g`` and ``g + 8``.  Each 8-thread group then touches only 16
  contiguous bytes per load instruction, so every 32-byte transaction is half
  wasted — 16 transactions per 8×16 FP16 tile;
* the **memory-efficient mapping** (Figure 7c) shuffles the columns so the
  same thread reads the adjacent columns ``2g`` and ``2g + 1``; the four
  elements form a 2×2 block, the two elements of a row are read as one
  packed 32-bit access, and each 8-thread group fills a full 32-byte
  transaction — 8 transactions per tile.

Because the accumulator C^T shares the B^T fragment layout, the same column
shuffle is applied to the output tile and undone at store time, so the
numeric result is unchanged — only the coalescing differs.  This module
provides both mappings, address generation, and the transaction counting
helpers the kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.device import WARP_SIZE
from repro.gpu.memory import MemoryTransactionModel, TransactionReport, WarpAccess
from repro.precision.types import Precision, element_bytes


@dataclass(frozen=True)
class ThreadMapping:
    """Mapping from warp lanes to (row, column) coordinates of the B tile.

    ``rows``/``cols`` have shape ``(32, elements_per_thread)`` and address the
    *logical* dense TC block B of shape ``(k, dense_cols)``; ``column_perm``
    records the physical→logical column permutation the mapping applies (the
    identity for the direct mapping), so the kernel can permute the output
    tile back.
    """

    name: str
    precision: Precision
    k: int
    dense_cols: int
    rows: np.ndarray
    cols: np.ndarray
    column_perm: np.ndarray

    @property
    def elements_per_thread(self) -> int:
        """Register elements each thread loads for the B tile."""
        return int(self.rows.shape[1])

    def thread_addresses(
        self,
        row_base_addresses: np.ndarray,
        col_offset_bytes: int = 0,
    ) -> list[WarpAccess]:
        """Per-instruction warp accesses for loading the tile.

        ``row_base_addresses`` gives, for each of the ``k`` tile rows, the
        byte address in global memory where that row's tile segment starts
        (rows of B selected by the sparse column indices are not contiguous).
        Elements accessed as an adjacent pair by one thread (the coalesced
        2×2 block) are merged into a single wider access.
        """
        row_base_addresses = np.asarray(row_base_addresses, dtype=np.int64)
        if row_base_addresses.shape[0] != self.k:
            raise ValueError(f"expected {self.k} row addresses, got {row_base_addresses.shape[0]}")
        elem = element_bytes(self.precision)
        accesses: list[WarpAccess] = []
        e = 0
        while e < self.elements_per_thread:
            # Detect a packed pair: same row, adjacent columns for every lane.
            packed = (
                e + 1 < self.elements_per_thread
                and np.array_equal(self.rows[:, e], self.rows[:, e + 1])
                and np.array_equal(self.cols[:, e] + 1, self.cols[:, e + 1])
            )
            width = 2 * elem if packed else elem
            addrs = (
                row_base_addresses[self.rows[:, e]]
                + col_offset_bytes
                + self.cols[:, e] * elem
            )
            accesses.append(WarpAccess(tuple(int(a) for a in addrs), int(width)))
            e += 2 if packed else 1
        return accesses


def _fp16_b_tile_geometry() -> tuple[int, int]:
    # FP16 swap-and-transpose: B tile is k=8 rows by 16 dense columns.
    return 8, 16


def _tf32_b_tile_geometry() -> tuple[int, int]:
    # TF32 swap-and-transpose (m16n8k4): B tile is k=4 rows by 16 dense columns.
    return 4, 16


def direct_mapping(precision: Precision | str = Precision.FP16) -> ThreadMapping:
    """The direct thread mapping of Figure 7(b)."""
    precision = Precision(precision)
    lanes = np.arange(WARP_SIZE)
    group = lanes // 4
    tig = lanes % 4
    if precision is Precision.FP16:
        k, dense_cols = _fp16_b_tile_geometry()
        # Left-operand (B^T) fragment: a0/a1 at B rows 2t/2t+1 column g,
        # a2/a3 at B rows 2t/2t+1 column g+8.
        rows = np.stack([2 * tig, 2 * tig + 1, 2 * tig, 2 * tig + 1], axis=1)
        cols = np.stack([group, group, group + 8, group + 8], axis=1)
    elif precision is Precision.TF32:
        k, dense_cols = _tf32_b_tile_geometry()
        # m16n8k4 left operand: a0 at B row t column g, a1 at row t column g+8.
        rows = np.stack([tig, tig], axis=1)
        cols = np.stack([group, group + 8], axis=1)
    else:  # pragma: no cover - config validation rejects fp32 earlier
        raise ValueError("thread mappings exist for fp16/tf32 only")
    return ThreadMapping(
        name="direct",
        precision=precision,
        k=k,
        dense_cols=dense_cols,
        rows=rows,
        cols=cols,
        column_perm=np.arange(dense_cols),
    )


def coalesced_mapping(precision: Precision | str = Precision.FP16) -> ThreadMapping:
    """The memory-efficient (coalesced) thread mapping of Figure 7(c).

    For FP16 the logical column ``g`` is re-bound to physical column ``2g``
    and logical ``g + 8`` to physical ``2g + 1``, turning each thread's four
    elements into a 2×2 block of adjacent memory.  For TF32 the direct
    mapping is already fully coalesced (each element is 4 bytes, so an
    8-thread group spans a whole 32-byte sector), and the same mapping is
    returned under the coalesced name.
    """
    precision = Precision(precision)
    base = direct_mapping(precision)
    if precision is Precision.TF32:
        return ThreadMapping(
            name="coalesced",
            precision=precision,
            k=base.k,
            dense_cols=base.dense_cols,
            rows=base.rows,
            cols=base.cols,
            column_perm=base.column_perm,
        )
    # FP16: permutation sigma(logical col) -> physical col, which turns each
    # thread's four elements into a 2x2 block of adjacent memory.  The element
    # order below lists the block row-major so that adjacent register slots
    # can be fetched as one packed 32-bit access.
    dense_cols = base.dense_cols
    perm = np.empty(dense_cols, dtype=np.int64)
    half = dense_cols // 2
    perm[:half] = 2 * np.arange(half)
    perm[half:] = 2 * np.arange(half) + 1
    lanes = np.arange(WARP_SIZE)
    group = lanes // 4
    tig = lanes % 4
    rows = np.stack([2 * tig, 2 * tig, 2 * tig + 1, 2 * tig + 1], axis=1)
    cols = np.stack([2 * group, 2 * group + 1, 2 * group, 2 * group + 1], axis=1)
    return ThreadMapping(
        name="coalesced",
        precision=precision,
        k=base.k,
        dense_cols=dense_cols,
        rows=rows,
        cols=cols,
        column_perm=perm,
    )


def get_mapping(precision: Precision | str, coalesced: bool) -> ThreadMapping:
    """Select the mapping for a kernel configuration."""
    return coalesced_mapping(precision) if coalesced else direct_mapping(precision)


def b_tile_transactions(
    mapping: ThreadMapping,
    row_stride_bytes: int,
    row_indices: np.ndarray | None = None,
    col_offset: int = 0,
    model: MemoryTransactionModel | None = None,
) -> TransactionReport:
    """Coalesce the loads of one dense TC block B under ``mapping``.

    ``row_indices`` are the rows of the dense matrix B selected by the sparse
    block's column indices (defaults to ``0..k-1``); ``row_stride_bytes`` is
    the byte stride between consecutive rows of B (``N * element_bytes``);
    ``col_offset`` is the first dense column of the tile.
    """
    model = model or MemoryTransactionModel()
    if row_indices is None:
        row_indices = np.arange(mapping.k)
    row_indices = np.asarray(row_indices, dtype=np.int64)
    if row_indices.shape[0] < mapping.k:
        # Residue block: missing rows are zero-filled registers, no loads.
        # Map missing tile rows onto the first row but mark them absent by
        # excluding their lanes; the simplest faithful treatment is to count
        # only the present rows' accesses.
        present = np.zeros(mapping.k, dtype=bool)
        present[: row_indices.shape[0]] = True
        padded = np.zeros(mapping.k, dtype=np.int64)
        padded[: row_indices.shape[0]] = row_indices
    else:
        present = np.ones(mapping.k, dtype=bool)
        padded = row_indices[: mapping.k]
    elem = element_bytes(mapping.precision)
    row_base = padded * row_stride_bytes
    accesses = mapping.thread_addresses(row_base, col_offset_bytes=col_offset * elem)
    if not np.all(present):
        # Rebuild the accesses, dropping the lanes whose tile row is absent
        # (their registers are zero-filled, no global load is issued).
        filtered: list[WarpAccess] = []
        e = 0
        idx = 0
        while e < mapping.elements_per_thread:
            packed = (
                e + 1 < mapping.elements_per_thread
                and np.array_equal(mapping.rows[:, e], mapping.rows[:, e + 1])
                and np.array_equal(mapping.cols[:, e] + 1, mapping.cols[:, e + 1])
            )
            lanes_present = present[mapping.rows[:, e]]
            original = accesses[idx]
            addrs = tuple(a for a, keep in zip(original.addresses, lanes_present) if keep)
            if addrs:
                filtered.append(WarpAccess(addrs, original.access_bytes))
            e += 2 if packed else 1
            idx += 1
        accesses = filtered
    return model.coalesce_many(accesses)


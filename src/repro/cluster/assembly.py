"""Shard-result reassembly in the cluster head.

The in-process ``ShardScheduler`` places each
shard's rows into its output as the shard finishes.  Across hosts the
results come back as payloads over the transport, in any order, and the
head must reassemble them.  Every op returns one row
slice of its output per shard: the dense rows of the shard's window range
for SpMM and the fused layer; for SDDMM, one value per CSR entry of those
rows, an ``(entries, 1)`` block of the ``(nnz, 1)`` output.

Correctness is enforced, not assumed: shards are window-aligned, so their
output regions are disjoint by construction, and the head keeps exactly
one copy of each shard in flight.  An overlapping write, a second delivery
of a shard id (even a byte-identical one) or a missing shard at
:meth:`result` time means the head's routing bookkeeping is broken and
raises :class:`~repro.cluster.errors.AssemblyError` rather than returning
a partially (or doubly) written output.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.errors import AssemblyError


class SpmmAssembly:
    """Reassembles per-shard row slices into the ``(n_rows, n_dense)``
    output of any served op (for SDDMM: ``(nnz, 1)``).

    Rows not covered by any shard (trailing all-empty windows produce no
    shard) stay zero — exactly what the one-shot engine writes for them.
    A request cut into one shard that covers every row is the common case
    on the cluster: that shard's (writable, float32, C-contiguous) rows
    are adopted as the output instead of being copied into a zeroed one.
    """

    def __init__(self, n_rows: int, n_dense: int, num_shards: int):
        self.shape = (int(n_rows), int(n_dense))
        self.num_shards = int(num_shards)
        #: The output, allocated by the first placement that cannot adopt.
        self.out: np.ndarray | None = None
        self._covered = np.zeros(self.shape[0], dtype=bool)
        self._placed: set[int] = set()

    def add(self, shard: int, row0: int, rows: np.ndarray) -> None:
        """Place shard ``shard``'s row block starting at matrix row ``row0``.

        The tail window's rows past ``n_rows`` are clipped, mirroring
        :meth:`repro.kernels.engine.ShardOp.place`.  A second delivery of
        ``shard`` raises, like an overlap.
        """
        shard = int(shard)
        if not 0 <= shard < self.num_shards:
            raise AssemblyError(f"unknown shard id {shard} (have {self.num_shards})")
        if shard in self._placed:
            raise AssemblyError(f"shard {shard} delivered twice")
        row0 = int(row0)
        n_rows, n_dense = self.shape
        if not 0 <= row0 < n_rows or rows.ndim != 2 or rows.shape[1] != n_dense:
            raise AssemblyError(
                f"shard {shard} returned rows of shape {rows.shape} at row {row0}"
            )
        stop = min(row0 + rows.shape[0], n_rows)
        if self._covered[row0:stop].any():
            raise AssemblyError(f"shard {shard} overlaps already-covered rows")
        adopt = (
            self.num_shards == 1
            and row0 == 0
            and stop == n_rows
            and rows.dtype == np.float32
            and rows.flags.c_contiguous
            and rows.flags.writeable
        )
        if adopt:
            self.out = rows[:n_rows]
        else:
            if self.out is None:
                self.out = np.zeros(self.shape, dtype=np.float32)
            self.out[row0:stop] = rows[: stop - row0]
        self._covered[row0:stop] = True
        self._placed.add(shard)

    @property
    def missing_shards(self) -> int:
        """Shards dispatched but not yet delivered."""
        return self.num_shards - len(self._placed)

    def result(self) -> np.ndarray:
        """The assembled output; raises if any shard never arrived."""
        if self.missing_shards:
            raise AssemblyError(
                f"{self.missing_shards}/{self.num_shards} shards missing at assembly"
            )
        if self.out is None:
            self.out = np.zeros(self.shape, dtype=np.float32)
        return self.out

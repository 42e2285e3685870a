"""Cost counters accumulated by simulated kernels.

Every simulated kernel (FlashSparse and every baseline) receives a
:class:`CostCounter` and records the hardware events it would generate on the
real device:

* ``mma`` invocations, keyed by operand shape and precision,
* CUDA-core fused multiply-adds (for the CUDA-core baselines),
* global-memory transactions of each size (32/64/128 bytes),
* bytes logically read / written (the paper's "data access cost"),
* shared-memory traffic and auxiliary integer work (e.g. TC-GNN's per-element
  position checks), which feed the performance model's overhead terms.

Counters are plain data: additive, comparable and serialisable, so that
benchmark harnesses can aggregate them across many matrices.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class CostCounter:
    """Accumulates simulated hardware costs for one kernel invocation.

    All counts start at zero; kernels call the ``add_*`` methods while they
    execute (or while their analytic cost estimator runs).
    """

    #: MMA invocations keyed by ``(shape_name, precision)``.
    mma_invocations: Dict[tuple[str, str], int] = field(default_factory=dict)
    #: Scalar fused multiply-add operations on CUDA cores.
    cuda_fma: int = 0
    #: Global-memory load transactions keyed by transaction size in bytes.
    load_transactions: Dict[int, int] = field(default_factory=dict)
    #: Global-memory store transactions keyed by transaction size in bytes.
    store_transactions: Dict[int, int] = field(default_factory=dict)
    #: Bytes logically accessed (the paper's "data access cost"), reads.
    bytes_read: int = 0
    #: Bytes logically accessed, writes.
    bytes_written: int = 0
    #: Unique bytes read (compulsory DRAM traffic: the data footprint that has
    #: to come from device memory at least once; re-reads hit the L2 model).
    footprint_read_bytes: int = 0
    #: Unique bytes written (compulsory DRAM write-back traffic).
    footprint_write_bytes: int = 0
    #: Bytes moved through shared memory.
    shared_bytes: int = 0
    #: Auxiliary integer/index operations (position checks, modulo residue
    #: computations, ...) that the performance model charges to CUDA cores.
    index_ops: int = 0
    #: Number of thread blocks / warps launched, for occupancy modelling.
    warps_launched: int = 0
    #: Number of kernel launches represented by this counter.
    kernel_launches: int = 1

    # ------------------------------------------------------------------ adds
    def add_mma(self, shape_name: str, precision: str, count: int = 1) -> None:
        """Record ``count`` MMA invocations of the given shape/precision."""
        if count < 0:
            raise ValueError("MMA count must be non-negative")
        if count == 0:
            return
        key = (shape_name, precision)
        self.mma_invocations[key] = self.mma_invocations.get(key, 0) + int(count)

    def add_cuda_fma(self, count: int) -> None:
        """Record scalar FMA work executed on CUDA cores."""
        if count < 0:
            raise ValueError("FMA count must be non-negative")
        self.cuda_fma += int(count)

    def add_load(self, transaction_bytes: int, count: int = 1, useful_bytes: int | None = None) -> None:
        """Record ``count`` global load transactions of ``transaction_bytes``.

        ``useful_bytes`` is the number of bytes the kernel actually needed; it
        defaults to the full transaction size.  The difference is wasted
        bandwidth, which is how the non-coalesced thread mapping shows up.
        """
        if count < 0:
            raise ValueError("transaction count must be non-negative")
        if count:
            self.load_transactions[transaction_bytes] = (
                self.load_transactions.get(transaction_bytes, 0) + int(count)
            )
        if useful_bytes is None:
            useful_bytes = transaction_bytes * count
        self.bytes_read += int(useful_bytes)

    def add_store(self, transaction_bytes: int, count: int = 1, useful_bytes: int | None = None) -> None:
        """Record ``count`` global store transactions of ``transaction_bytes``."""
        if count < 0:
            raise ValueError("transaction count must be non-negative")
        if count:
            self.store_transactions[transaction_bytes] = (
                self.store_transactions.get(transaction_bytes, 0) + int(count)
            )
        if useful_bytes is None:
            useful_bytes = transaction_bytes * count
        self.bytes_written += int(useful_bytes)

    def add_load_bulk(self, transaction_bytes: int, counts, useful_bytes) -> None:
        """Vectorised :meth:`add_load`: sum per-block transaction/byte arrays.

        ``counts`` and ``useful_bytes`` are array-likes (one entry per block /
        window / whatever unit the caller batched over); the totals land in
        the same counter fields one ``add_load`` per entry would produce, so a
        closed-form cost pass over a block-width histogram yields bit-identical
        state to the per-block loop.
        """
        self.add_load(
            transaction_bytes,
            int(np.sum(counts, dtype=np.int64)),
            useful_bytes=int(np.sum(useful_bytes, dtype=np.int64)),
        )

    def add_store_bulk(self, transaction_bytes: int, counts, useful_bytes) -> None:
        """Vectorised :meth:`add_store`; see :meth:`add_load_bulk`."""
        self.add_store(
            transaction_bytes,
            int(np.sum(counts, dtype=np.int64)),
            useful_bytes=int(np.sum(useful_bytes, dtype=np.int64)),
        )

    def set_read_footprint(self, nbytes: int) -> None:
        """Record the unique bytes this kernel must read from DRAM."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        self.footprint_read_bytes = int(nbytes)

    def set_write_footprint(self, nbytes: int) -> None:
        """Record the unique bytes this kernel must write back to DRAM."""
        if nbytes < 0:
            raise ValueError("byte count must be non-negative")
        self.footprint_write_bytes = int(nbytes)

    def add_index_ops(self, count: int) -> None:
        """Record auxiliary integer work (position checks, residue maths)."""
        if count < 0:
            raise ValueError("op count must be non-negative")
        self.index_ops += int(count)

    def add_warps(self, count: int) -> None:
        """Record launched warps."""
        if count < 0:
            raise ValueError("warp count must be non-negative")
        self.warps_launched += int(count)

    # --------------------------------------------------------------- queries
    @property
    def total_mma(self) -> int:
        """Total MMA invocations across all shapes/precisions."""
        return sum(self.mma_invocations.values())

    @property
    def total_load_transactions(self) -> int:
        """Total number of global load transactions."""
        return sum(self.load_transactions.values())

    @property
    def total_store_transactions(self) -> int:
        """Total number of global store transactions."""
        return sum(self.store_transactions.values())

    @property
    def transaction_bytes_moved(self) -> int:
        """Bytes actually moved by load+store transactions (incl. waste)."""
        moved = 0
        for size, count in self.load_transactions.items():
            moved += size * count
        for size, count in self.store_transactions.items():
            moved += size * count
        return moved

    @property
    def data_access_bytes(self) -> int:
        """The paper's "data access cost": useful bytes read + written."""
        return self.bytes_read + self.bytes_written

    @property
    def footprint_bytes(self) -> int:
        """Unique bytes touched (compulsory DRAM traffic, reads + writes)."""
        return self.footprint_read_bytes + self.footprint_write_bytes

    # ------------------------------------------------------------ arithmetic
    def merge(self, other: "CostCounter") -> "CostCounter":
        """Return a new counter that is the sum of ``self`` and ``other``."""
        out = CostCounter()
        out += self
        out += other
        # kernel_launches: each operand counts its own launches.
        out.kernel_launches = self.kernel_launches + other.kernel_launches
        return out

    def __iadd__(self, other: "CostCounter") -> "CostCounter":
        for key, count in other.mma_invocations.items():
            self.mma_invocations[key] = self.mma_invocations.get(key, 0) + count
        self.cuda_fma += other.cuda_fma
        for size, count in other.load_transactions.items():
            self.load_transactions[size] = self.load_transactions.get(size, 0) + count
        for size, count in other.store_transactions.items():
            self.store_transactions[size] = self.store_transactions.get(size, 0) + count
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.footprint_read_bytes += other.footprint_read_bytes
        self.footprint_write_bytes += other.footprint_write_bytes
        self.shared_bytes += other.shared_bytes
        self.index_ops += other.index_ops
        self.warps_launched += other.warps_launched
        return self

    def __add__(self, other: "CostCounter") -> "CostCounter":
        return self.merge(other)

    def copy(self) -> "CostCounter":
        """An independent copy: the scalars and the three count dicts (whose
        keys and counts are immutable), not the object graph."""
        out = copy.copy(self)
        out.mma_invocations = dict(self.mma_invocations)
        out.load_transactions = dict(self.load_transactions)
        out.store_transactions = dict(self.store_transactions)
        return out

    # --------------------------------------------------------------- export
    def as_dict(self) -> dict:
        """Flat dictionary view, convenient for tabulation / JSON."""
        return {
            "total_mma": self.total_mma,
            "mma_invocations": {f"{s}/{p}": c for (s, p), c in sorted(self.mma_invocations.items())},
            "cuda_fma": self.cuda_fma,
            "load_transactions": dict(sorted(self.load_transactions.items())),
            "store_transactions": dict(sorted(self.store_transactions.items())),
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "data_access_bytes": self.data_access_bytes,
            "footprint_read_bytes": self.footprint_read_bytes,
            "footprint_write_bytes": self.footprint_write_bytes,
            "shared_bytes": self.shared_bytes,
            "index_ops": self.index_ops,
            "warps_launched": self.warps_launched,
            "kernel_launches": self.kernel_launches,
        }

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"CostCounter(mma={self.total_mma}, cuda_fma={self.cuda_fma}, "
            f"loads={self.total_load_transactions}, stores={self.total_store_transactions}, "
            f"data={self.data_access_bytes}B, index_ops={self.index_ops})"
        )


def _parse_shape_name(shape_name: str) -> tuple[int, int, int]:
    """Parse an ``m16n8k8``-style shape name into ``(m, n, k)``."""
    name = shape_name.lower()
    for prefix in ("wmma_", "mma_"):
        if name.startswith(prefix):
            name = name[len(prefix):]
    try:
        m_part, rest = name.split("n", 1)
        n_part, k_part = rest.split("k", 1)
        return int(m_part.lstrip("m")), int(n_part), int(k_part)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"cannot parse MMA shape name {shape_name!r}") from exc

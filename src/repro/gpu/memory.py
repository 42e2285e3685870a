"""Transaction-level model of global-memory coalescing.

Section 3.3 of the paper argues about memory efficiency purely in terms of
how the per-thread accesses of a warp coalesce into 32/64/128-byte
transactions: the direct thread mapping needs sixteen 32-byte transactions
to load an 8×16 FP16 tile, while the memory-efficient mapping needs eight.
This module reproduces that reasoning.

The model follows the hardware behaviour at sector granularity: global
memory is divided into 32-byte sectors; a warp-wide access touches some set
of sectors; contiguous runs of touched sectors are merged into transactions
of at most 128 bytes.  The number of transactions and the bytes they move
(including wasted bytes for partially-used sectors) are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpu.device import MIN_TRANSACTION_BYTES, GPUSpec

#: Largest single memory transaction, in bytes.
MAX_TRANSACTION_BYTES = 128
#: Sector size used by the coalescer.
SECTOR_BYTES = MIN_TRANSACTION_BYTES


@dataclass(frozen=True)
class WarpAccess:
    """One warp-wide global-memory access.

    ``addresses`` holds the starting byte address accessed by each
    participating thread; ``access_bytes`` is the number of contiguous bytes
    each thread reads or writes (e.g. 2 for a lone FP16 element, 4 for an
    FP32 or a packed ``half2``).
    """

    addresses: tuple[int, ...]
    access_bytes: int

    def __post_init__(self) -> None:
        if self.access_bytes <= 0:
            raise ValueError("access_bytes must be positive")
        if any(a < 0 for a in self.addresses):
            raise ValueError("addresses must be non-negative")


@dataclass(frozen=True)
class TransactionReport:
    """Result of coalescing one warp-wide access."""

    #: Sizes (bytes) of the issued transactions, in address order.
    transaction_sizes: tuple[int, ...]
    #: Bytes the threads actually requested.
    useful_bytes: int

    @property
    def num_transactions(self) -> int:
        """Number of memory transactions issued."""
        return len(self.transaction_sizes)

    @property
    def bytes_moved(self) -> int:
        """Total bytes moved over the memory bus (including waste)."""
        return int(sum(self.transaction_sizes))

    @property
    def efficiency(self) -> float:
        """Fraction of moved bytes that were useful (0 < efficiency <= 1)."""
        if self.bytes_moved == 0:
            return 1.0
        return min(self.useful_bytes, self.bytes_moved) / self.bytes_moved


class MemoryTransactionModel:
    """Sector-based coalescing model for warp-wide accesses."""

    def __init__(self, sector_bytes: int = SECTOR_BYTES, max_transaction_bytes: int = MAX_TRANSACTION_BYTES):
        if max_transaction_bytes % sector_bytes != 0:
            raise ValueError("max transaction size must be a multiple of the sector size")
        self.sector_bytes = int(sector_bytes)
        self.max_transaction_bytes = int(max_transaction_bytes)

    def coalesce(self, access: WarpAccess) -> TransactionReport:
        """Coalesce one warp-wide access into memory transactions."""
        if not access.addresses:
            return TransactionReport(transaction_sizes=(), useful_bytes=0)
        sectors: set[int] = set()
        useful = 0
        for addr in access.addresses:
            useful += access.access_bytes
            first = addr // self.sector_bytes
            last = (addr + access.access_bytes - 1) // self.sector_bytes
            sectors.update(range(first, last + 1))

        # Merge contiguous sectors into transactions of at most
        # ``max_transaction_bytes``.
        ordered = sorted(sectors)
        sizes: list[int] = []
        run_len = 0
        prev = None
        max_sectors = self.max_transaction_bytes // self.sector_bytes
        for sector in ordered:
            if prev is not None and sector == prev + 1 and run_len < max_sectors:
                run_len += 1
            else:
                if run_len:
                    sizes.append(run_len * self.sector_bytes)
                run_len = 1
            prev = sector
        if run_len:
            sizes.append(run_len * self.sector_bytes)
        return TransactionReport(transaction_sizes=tuple(sizes), useful_bytes=useful)

    def coalesce_many(self, accesses: Iterable[WarpAccess]) -> TransactionReport:
        """Coalesce a sequence of warp-wide accesses issued back to back.

        Each access is coalesced independently (the hardware does not merge
        transactions across separate load instructions).
        """
        sizes: list[int] = []
        useful = 0
        for access in accesses:
            report = self.coalesce(access)
            sizes.extend(report.transaction_sizes)
            useful += report.useful_bytes
        return TransactionReport(transaction_sizes=tuple(sizes), useful_bytes=useful)


_DEFAULT_MODEL = MemoryTransactionModel()


def simulate_warp_load(addresses: Sequence[int], access_bytes: int) -> TransactionReport:
    """Convenience wrapper: coalesce one warp-wide load with the default model."""
    return _DEFAULT_MODEL.coalesce(WarpAccess(tuple(int(a) for a in addresses), int(access_bytes)))


def transactions_for_tile_load(
    row_indices: Sequence[int],
    row_bytes: int,
    row_stride_bytes: int,
    base_address: int = 0,
) -> TransactionReport:
    """Transactions needed to load whole rows of a row-major matrix.

    This helper models a warp loading ``len(row_indices)`` row segments of
    ``row_bytes`` contiguous bytes each, where row ``i`` of the source matrix
    starts at ``base_address + i * row_stride_bytes``.  It is used for
    loading TC block B rows gathered by the sparse column indices, where the
    rows themselves are contiguous but scattered with large strides.
    """
    accesses = []
    for r in row_indices:
        start = base_address + int(r) * row_stride_bytes
        # Model each row segment as consecutive 4-byte thread accesses, the
        # widest per-thread access pattern the kernels use.
        step = 4 if row_bytes % 4 == 0 else 2
        addrs = tuple(range(start, start + row_bytes, step))
        accesses.append(WarpAccess(addresses=addrs, access_bytes=step))
    return _DEFAULT_MODEL.coalesce_many(accesses)


# ---------------------------------------------------------------------------
# Device memory budgets
# ---------------------------------------------------------------------------

#: Default fraction of the memory left after operands that an op's streaming
#: intermediates may occupy.  Deliberately conservative: a serving process
#: co-hosts several in-flight requests plus the translation cache.
DEFAULT_WORKSPACE_FRACTION = 0.25


@dataclass(frozen=True)
class MemoryBudget:
    """Workspace budget carved out of a device's global memory.

    ``capacity_bytes`` is the device capacity (``GPUSpec.memory_bytes``),
    ``resident_bytes`` the memory pinned by an op's operands and outputs
    (dense matrices, translated sparse format), and ``workspace_fraction``
    the share of the remainder the op's work in flight may use.  The
    serving planner sizes its shard tasks from :attr:`workspace_bytes`.
    """

    capacity_bytes: int
    resident_bytes: int
    workspace_fraction: float = DEFAULT_WORKSPACE_FRACTION

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.resident_bytes < 0:
            raise ValueError("resident_bytes must be non-negative")
        if not 0.0 < self.workspace_fraction <= 1.0:
            raise ValueError("workspace_fraction must be in (0, 1]")

    @property
    def free_bytes(self) -> int:
        """Capacity left after the resident operands (never negative)."""
        return max(0, self.capacity_bytes - self.resident_bytes)

    @property
    def workspace_bytes(self) -> int:
        """Bytes the op's streaming intermediates may occupy."""
        return int(self.free_bytes * self.workspace_fraction)

    @property
    def fits(self) -> bool:
        """Whether the resident set alone fits on the device at all."""
        return self.resident_bytes <= self.capacity_bytes


def derive_budget(
    spec: GPUSpec,
    resident_bytes: int,
    workspace_fraction: float = DEFAULT_WORKSPACE_FRACTION,
) -> MemoryBudget:
    """The :class:`MemoryBudget` of running an op with ``resident_bytes``
    of operands on ``spec``.

    Raises ``ValueError`` when the spec does not declare a memory capacity
    (``memory_bytes == 0``) — callers that tolerate unknown capacity should
    check first and fall back to an explicit byte budget.
    """
    if spec.memory_bytes <= 0:
        raise ValueError(
            f"device {spec.name!r} declares no memory capacity; "
            "pass an explicit byte budget instead"
        )
    return MemoryBudget(
        capacity_bytes=int(spec.memory_bytes),
        resident_bytes=int(resident_bytes),
        workspace_fraction=workspace_fraction,
    )

"""Memory-budget planner: GPUSpec + block index → shard size.

The numeric engine has no memory knobs: SpMM accumulates row-wise and holds
no intermediate, SDDMM works in fixed L2-sized entry chunks.  What a served
request still needs sizing is its *shard tasks* — how many TC blocks of
work (and of dense data touched) one shard — run in the server process or
handed to a worker host — covers.  Given the device's declared memory capacity
(:attr:`~repro.gpu.device.GPUSpec.memory_bytes`), the planner

1. computes the *resident* footprint of the operation — the translated
   sparse format plus the dense operands and output, which must live in
   device memory for the whole run,
2. carves a workspace budget out of the remaining capacity
   (:func:`repro.gpu.memory.derive_budget`),
3. divides the workspace by the number of workers and by the dense bytes a
   block touches (:func:`~repro.kernels.engine.spmm_bytes_per_block` /
   :func:`~repro.kernels.engine.sddmm_bytes_per_block` — the figure sizes
   *work per shard task*), and
4. snaps the resulting shard target to the format's block index
   (:meth:`~repro.formats.blocked.BlockedVectorFormat.blocks_as_arrays`,
   the one the shard cut reads): shards are window-aligned, so a window
   with more blocks than the target becomes a shard of its own and the
   plan reports the true peak.

The planner is deliberately conservative — a serving process co-hosts
several in-flight requests — and fully deterministic: the same matrix,
dense width and device always produce the same plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.cache import pattern_format
from repro.formats.csr import CSRMatrix
from repro.gpu.device import GPUSpec, get_device
from repro.gpu.memory import DEFAULT_WORKSPACE_FRACTION, MemoryBudget, derive_budget
from repro.kernels.engine import (
    sddmm_bytes_per_block,
    spmm_bytes_per_block,
    window_aligned_ranges,
)
from repro.kernels.sddmm_flash import VECTORS_PER_OUTPUT_BLOCK
from repro.precision.types import Precision, element_bytes

#: Upper bound on the planner-chosen ``workers`` the workspace is divided
#: by; beyond this the per-shard overhead dominates for the matrix sizes the
#: simulator handles.
MAX_PLANNED_WORKERS = 8


@dataclass(frozen=True)
class ServePlan:
    """Derived execution configuration for one serving operation.

    ``block_chunk`` (the shard size the server passes to its scheduler as
    ``target_blocks``) and ``workers`` are what execution consumes; the
    rest records how they were derived so tests and operators can audit
    the plan against the device budget.
    """

    op: str
    precision: Precision
    workers: int
    #: Hosts the memory budget was divided across (1 = single machine).
    hosts: int
    #: Window-aligned shard size target in blocks; ``None`` means an even
    #: split across the scheduler's workers (one shard in process).
    block_chunk: int | None
    #: The workspace byte budget the shard size was divided out of; ``None``
    #: when no budget applies.
    max_intermediate_bytes: int | None
    #: Float32 bytes of dense data one block touches (engine formula).
    bytes_per_block: int
    #: Total TC blocks of the operation.
    num_blocks: int
    #: Window-aligned shards the scheduler will dispatch.
    num_shards: int
    #: Worst-case dense bytes concurrently in work under this plan (accounts
    #: for windows larger than the shard target, which cannot be split).
    expected_peak_bytes: int
    #: The device budget the plan was derived from (None with an explicit
    #: byte budget or no budget at all).
    budget: MemoryBudget | None = None
    meta: dict = field(default_factory=dict)

    @property
    def within_budget(self) -> bool:
        """Whether the expected peak fits the derived workspace budget."""
        if self.budget is None:
            return True
        return self.expected_peak_bytes <= self.budget.workspace_bytes


def _resolve_format(
    matrix: BlockedVectorFormat | CSRMatrix, precision: Precision
) -> BlockedVectorFormat:
    if isinstance(matrix, BlockedVectorFormat):
        return matrix
    # A plan reads the pattern only, as the server's does.
    return pattern_format(matrix, precision)


def _default_workers(requested: int | None, num_shards: int) -> int:
    if requested is not None:
        workers = int(requested)
        if workers < 1:
            raise ValueError("workers must be >= 1")
    else:
        workers = min(os.cpu_count() or 1, MAX_PLANNED_WORKERS)
    # More workers than shards would idle from the first dispatch.
    return max(1, min(workers, num_shards))


def _plan(
    op: str,
    fmt: BlockedVectorFormat,
    bytes_per_block: int,
    resident_bytes: int,
    group: int,
    device: str | GPUSpec | None,
    workers: int | None,
    workspace_fraction: float,
    max_intermediate_bytes: int | None,
    hosts: int = 1,
) -> ServePlan:
    offsets = fmt.blocks_as_arrays(group).window_offsets
    num_blocks = int(offsets[-1])
    hosts = max(1, int(hosts))

    budget: MemoryBudget | None = None
    workspace: int | None = max_intermediate_bytes
    if workspace is None and device is not None:
        spec = device if isinstance(device, GPUSpec) else get_device(device)
        budget = derive_budget(spec, resident_bytes, workspace_fraction)
        workspace = budget.workspace_bytes
    if workspace is not None and hosts > 1:
        # A cluster serves one request across `hosts` machines whose device
        # budgets the declared capacity stands for collectively: each host
        # gets an equal share, so no single host is planned past 1/hosts of
        # the workspace however the shards land.
        workspace = int(workspace) // hosts

    if workspace is None or num_blocks == 0:
        # No budget to honour: one-shot, single shard.
        ranges = window_aligned_ranges(offsets, max(1, num_blocks))
        peak = num_blocks * bytes_per_block
        plan_workers = _default_workers(workers, len(ranges))
        return ServePlan(
            op=op,
            precision=fmt.precision,
            workers=plan_workers,
            hosts=hosts,
            block_chunk=None,
            max_intermediate_bytes=None,
            bytes_per_block=bytes_per_block,
            num_blocks=num_blocks,
            num_shards=len(ranges),
            expected_peak_bytes=peak,
            budget=budget,
            meta={"resident_bytes": resident_bytes, "one_shot": True},
        )

    workspace = max(int(workspace), bytes_per_block)
    # First sizing pass assumes the full worker complement; the shard count
    # it implies may then cap the workers, which only widens the per-worker
    # share (never violating the budget).
    provisional_workers = _default_workers(workers, max(1, num_blocks))
    chunk = max(1, (workspace // provisional_workers) // bytes_per_block)
    ranges = window_aligned_ranges(offsets, chunk)
    plan_workers = _default_workers(workers, len(ranges))

    # True peak: workers × the largest shard actually produced (a window
    # wider than the chunk target cannot be split below one window).
    largest_shard = max((r.num_blocks for r in ranges), default=0)
    peak = plan_workers * largest_shard * bytes_per_block

    return ServePlan(
        op=op,
        precision=fmt.precision,
        workers=plan_workers,
        hosts=hosts,
        block_chunk=chunk,
        max_intermediate_bytes=int(workspace),
        bytes_per_block=bytes_per_block,
        num_blocks=num_blocks,
        num_shards=len(ranges),
        expected_peak_bytes=peak,
        budget=budget,
        meta={
            "resident_bytes": resident_bytes,
            "one_shot": False,
            "max_blocks_in_window": int(np.diff(offsets).max()) if fmt.num_windows else 0,
        },
    )


def plan_spmm(
    matrix: BlockedVectorFormat | CSRMatrix,
    n_dense: int,
    device: str | GPUSpec | None = None,
    precision: Precision | str = Precision.FP16,
    workers: int | None = None,
    workspace_fraction: float = DEFAULT_WORKSPACE_FRACTION,
    max_intermediate_bytes: int | None = None,
    hosts: int = 1,
) -> ServePlan:
    """Plan one SpMM: derive the shard size from the device budget.

    Parameters
    ----------
    matrix:
        The sparse operand (a CSR input is planned from its cached
        pattern, :func:`~repro.formats.cache.pattern_format`).
    n_dense:
        Dense-operand width ``N``.
    device:
        Device name or :class:`GPUSpec` whose ``memory_bytes`` bounds the
        workspace.  Without a device (and without an explicit byte budget)
        the plan is one-shot.
    workers:
        Worker override; defaults to ``min(cpu_count, 8)``, capped by the
        number of shards the budget produces.
    workspace_fraction:
        Share of post-operand device memory granted to work in flight.
    max_intermediate_bytes:
        Explicit workspace byte budget that bypasses the device derivation.
    hosts:
        Worker hosts the budget is divided across (cluster serving); the
        per-host workspace share is ``workspace / hosts``.
    """
    precision = Precision(precision)
    n_dense = int(n_dense)
    if n_dense <= 0:
        raise ValueError("n_dense must be positive")
    fmt = _resolve_format(matrix, precision)
    elem = element_bytes(precision)
    resident = (
        fmt.memory_footprint_bytes()
        + fmt.shape[1] * n_dense * elem  # dense B
        + fmt.shape[0] * n_dense * 4  # FP32 output C
    )
    return _plan(
        "spmm",
        fmt,
        spmm_bytes_per_block(fmt.vector_size, fmt.k, n_dense),
        resident,
        fmt.k,
        device,
        workers,
        workspace_fraction,
        max_intermediate_bytes,
        hosts,
    )


def plan_sddmm(
    matrix: BlockedVectorFormat | CSRMatrix,
    k_dense: int,
    device: str | GPUSpec | None = None,
    precision: Precision | str = Precision.FP16,
    workers: int | None = None,
    workspace_fraction: float = DEFAULT_WORKSPACE_FRACTION,
    max_intermediate_bytes: int | None = None,
    hosts: int = 1,
) -> ServePlan:
    """Plan one SDDMM (see :func:`plan_spmm`); ``k_dense`` is the inner
    feature dimension of the two dense inputs."""
    precision = Precision(precision)
    k_dense = int(k_dense)
    if k_dense <= 0:
        raise ValueError("k_dense must be positive")
    fmt = _resolve_format(matrix, precision)
    elem = element_bytes(precision)
    resident = (
        fmt.memory_footprint_bytes()
        + (fmt.shape[0] + fmt.shape[1]) * k_dense * elem  # dense A and B
        + fmt.num_nonzero_vectors * fmt.vector_size * 4  # FP32 output values
    )
    group = VECTORS_PER_OUTPUT_BLOCK
    return _plan(
        "sddmm",
        fmt,
        sddmm_bytes_per_block(fmt.vector_size, group, k_dense),
        resident,
        group,
        device,
        workers,
        workspace_fraction,
        max_intermediate_bytes,
        hosts,
    )

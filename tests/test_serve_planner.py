"""Planner: GPUSpec memory budget → shard size, enforced by tracemalloc.

The contract: the planner derives the served shard size
(``ServePlan.block_chunk``), the workspace it was cut from
(``max_intermediate_bytes``) and the worker count from the device's
declared memory capacity and the format's block histogram, a shard task of
the derived size never exceeds the budget (asserted here with tracemalloc
against a deliberately tiny budget), and planned runs produce the same
values and exactly the same cost counters as unplanned runs.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_csr

from repro.core.api import FlashSparseMatrix, spmm
from repro.formats.mebcrs import MEBCRSMatrix
from repro.gpu.device import RTX4090, GPUSpec
from repro.gpu.memory import MemoryBudget, derive_budget
from repro.kernels.engine import SHARD_OPS, lane_cache, spmm_bytes_per_block
from repro.serve import Server
from repro.serve.planner import plan_sddmm, plan_spmm


def _tiny_device(capacity_bytes: int) -> GPUSpec:
    """An RTX 4090 clone whose memory capacity is shrunk for budget tests."""
    return replace(RTX4090, name="tiny", memory_bytes=int(capacity_bytes))


def test_plan_spmm_derives_all_three_knobs_from_device():
    csr = random_csr(600, 560, 0.05, seed=1)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    # Budget small enough to force chunking: resident + a few chunk slabs.
    resident = plan_spmm(fmt, 64).meta["resident_bytes"]
    plan = plan_spmm(fmt, 64, device=_tiny_device(resident + 2_000_000), workers=2)
    assert plan.op == "spmm"
    assert plan.block_chunk is not None and plan.block_chunk >= 1
    assert plan.max_intermediate_bytes is not None
    assert plan.workers >= 1
    assert plan.num_shards >= 2  # the budget actually split the batch
    assert plan.bytes_per_block == spmm_bytes_per_block(fmt.vector_size, fmt.k, 64)
    # Derivation chain is auditable: budget → workspace → chunk.
    assert plan.budget is not None
    assert plan.max_intermediate_bytes == plan.budget.workspace_bytes
    assert plan.within_budget


def test_plan_is_deterministic_and_one_shot_without_budget():
    csr = random_csr(200, 200, 0.05, seed=2)
    p1 = plan_spmm(csr, 32)
    p2 = plan_spmm(csr, 32)
    assert p1 == p2
    assert p1.block_chunk is None and p1.max_intermediate_bytes is None
    assert p1.meta["one_shot"]


def test_plan_workers_capped_by_shard_count():
    csr = random_csr(40, 40, 0.2, seed=3)  # few windows -> few shards
    plan = plan_spmm(csr, 16, workers=8)
    assert plan.workers <= max(1, plan.num_shards)


def test_plan_rejects_unknown_capacity_and_bad_inputs():
    csr = random_csr(64, 64, 0.1, seed=4)
    with pytest.raises(ValueError):
        plan_spmm(csr, 32, device=_tiny_device(0))
    with pytest.raises(ValueError):
        plan_spmm(csr, 0)
    with pytest.raises(ValueError):
        plan_sddmm(csr, -3)
    with pytest.raises(ValueError):
        plan_spmm(csr, 32, workers=0)


def test_memory_budget_arithmetic():
    budget = MemoryBudget(capacity_bytes=1000, resident_bytes=400, workspace_fraction=0.5)
    assert budget.free_bytes == 600
    assert budget.workspace_bytes == 300
    assert budget.fits
    over = MemoryBudget(capacity_bytes=1000, resident_bytes=1400)
    assert over.free_bytes == 0 and not over.fits
    with pytest.raises(ValueError):
        MemoryBudget(capacity_bytes=0, resident_bytes=0)
    with pytest.raises(ValueError):
        MemoryBudget(capacity_bytes=10, resident_bytes=0, workspace_fraction=1.5)
    with pytest.raises(ValueError):
        derive_budget(_tiny_device(0), 0)
    assert derive_budget(RTX4090, 0).capacity_bytes == RTX4090.memory_bytes


def test_planned_run_matches_unplanned_values_and_counters():
    csr = random_csr(400, 380, 0.05, seed=5)
    rng = np.random.default_rng(5)
    b = rng.standard_normal((380, 48))
    base = spmm(csr, b)
    resident = plan_spmm(csr, 48).meta["resident_bytes"]
    # A served request runs under the plan its server derives for the device.
    with Server(device=_tiny_device(resident + 3_000_000), workers=1) as server:
        res = server.submit_spmm(csr, b).result()
    assert res.meta["plan"].num_shards >= 2  # the budget actually split the run
    np.testing.assert_array_equal(res.values, base.values)
    assert res.counter.as_dict() == base.counter.as_dict()


def test_matrix_plan_integration():
    m = FlashSparseMatrix.from_scipy(random_csr(128, 128, 0.08, seed=6).to_scipy())
    assert m.content_key() == m.csr.content_key()
    # A matrix's own translation plans as its CSR does on the serving path.
    plan = plan_spmm(m.mebcrs("fp16"), 32, max_intermediate_bytes=50_000)
    assert plan == plan_spmm(m.csr, 32, max_intermediate_bytes=50_000)
    assert plan.max_intermediate_bytes == 50_000
    assert plan.block_chunk * plan.bytes_per_block <= 50_000
    assert plan_sddmm(m.mebcrs("fp16"), 16) == plan_sddmm(m.csr, 16)


def test_planner_budget_enforced_by_tracemalloc():
    """The acceptance gate: every shard task of a planned run stays within
    the declared budget; the whole matrix as one task would not have."""
    csr = random_csr(2400, 2200, 0.02, seed=7)
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    n_dense = 256
    rng = np.random.default_rng(7)
    b_q = rng.standard_normal((2200, n_dense)).astype(np.float32)

    resident = plan_spmm(fmt, n_dense).meta["resident_bytes"]
    device = _tiny_device(resident + 8 * 2**20)  # ~2 MiB workspace at 25%
    plan = plan_spmm(fmt, n_dense, device=device, workers=1)
    assert plan.max_intermediate_bytes <= 2 * 2**20 + 2**18

    one_shot_bytes = plan.num_blocks * plan.bytes_per_block
    assert one_shot_bytes > 10 * plan.max_intermediate_bytes  # test has teeth

    op = SHARD_OPS["spmm"]
    ranges, _ = op.plan(fmt, [b_q], None, 1, plan.block_chunk)
    assert len(ranges) == plan.num_shards
    params = {"precision": "fp16"}
    back = fmt.to_csr()
    source = op.lanes(lane_cache(), 0, (back.indptr, back.indices, back.data), "fp16")  # builds
    sliced = [op.slice(source, r, fmt.vector_size) for r in ranges]
    op.run(sliced[0], [b_q], params)  # warm

    tracemalloc.start()
    try:
        peaks = []
        for s in sliced:
            tracemalloc.clear_traces()
            tracemalloc.reset_peak()
            op.run(s, [b_q], params)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()

    # A shard task allocates its own output rows (≤ blocks · v · N · 4, part
    # of the per-block figure the workspace was divided by) and the
    # quantised copy of its sparse values — never anything matrix-sized.
    allowance = plan.max_intermediate_bytes + 2**18
    assert max(peaks) <= allowance, (
        f"planned shard peak {max(peaks)} exceeds budget allowance {allowance} "
        f"(workspace {plan.max_intermediate_bytes})"
    )
    # And the matrix as a single task could not have fit in that allowance.
    assert one_shot_bytes > allowance
    assert csr.n_rows * n_dense * 4 > allowance

"""Layer programs: validation, wire round trips, composed-execution helpers.

The program representation is what every fused executor consumes, so its
validation must reject malformed pipelines at submit time (not inside a
worker process) and its canonical ``(scale, scale_by_mask)`` form must be
stable across wire round trips.  The shard-alignment property test pins the
invariant the whole fusion rests on: window-aligned shards never split a
softmax row segment.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import random_csr

from repro.formats.mebcrs import MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.kernels.engine import SHARD_OPS, window_aligned_ranges
from repro.precision.types import Precision, quantize
from repro.serve.program import (
    LayerProgram,
    LayerStep,
    ProgramError,
    attention_csr,
    gather_edge_values,
)

# ------------------------------------------------------------- validation
def test_attention_layer_constructor_builds_canonical_pipeline():
    program = LayerProgram.attention_layer(scale=0.5, scale_by_mask=True)
    assert [s.op for s in program.steps] == ["sddmm", "scale", "edge_softmax", "spmm"]
    assert program.canonical() == (0.5, True)
    assert program.operand_names() == ("a", "b", "x")


def test_scaleless_program_canonicalises_to_none():
    assert LayerProgram.attention_layer().canonical() == (None, False)


def test_consecutive_scales_fold_in_float32():
    program = LayerProgram(
        steps=(
            LayerStep("sddmm", {"a": "a", "b": "b"}),
            LayerStep("scale", {"value": 0.3}),
            LayerStep("scale", {"value": 7.0}),
            LayerStep("edge_softmax", {}),
            LayerStep("spmm", {"x": "x"}),
        )
    )
    scale, by_mask = program.canonical()
    assert scale == float(np.float32(np.float32(0.3) * np.float32(7.0)))
    assert by_mask is False


@pytest.mark.parametrize(
    "steps, match",
    [
        ((), "at least one step"),
        ((LayerStep("spmm", {"x": "x"}),), "must start with 'sddmm'"),
        (
            (LayerStep("sddmm", {}), LayerStep("edge_softmax", {})),
            "must end with 'spmm'",
        ),
        (
            (
                LayerStep("sddmm", {}),
                LayerStep("spmm", {"x": "x"}),
                LayerStep("edge_softmax", {}),
                LayerStep("spmm", {"x": "x"}),
            ),
            "exactly one 'sddmm' and one 'spmm'",
        ),
        (
            (
                LayerStep("sddmm", {}),
                LayerStep("edge_softmax", {}),
                LayerStep("scale", {"value": 1.0}),
                LayerStep("spmm", {"x": "x"}),
            ),
            "immediately precede 'spmm'",
        ),
        (
            (
                LayerStep("sddmm", {}),
                LayerStep("scale", {"value": float("inf")}),
                LayerStep("edge_softmax", {}),
                LayerStep("spmm", {"x": "x"}),
            ),
            "finite 'value'",
        ),
        (
            (
                LayerStep("sddmm", {"a": "nope"}),
                LayerStep("edge_softmax", {}),
                LayerStep("spmm", {"x": "x"}),
            ),
            "unknown panel",
        ),
        (
            (
                LayerStep("sddmm", {}),
                LayerStep("edge_softmax", {}),
                LayerStep("spmm", {"x": "dangling"}),
            ),
            "unknown panel",
        ),
        (
            (
                LayerStep("gather", {}),
                LayerStep("edge_softmax", {}),
                LayerStep("spmm", {"x": "x"}),
            ),
            "unknown step op",
        ),
    ],
)
def test_malformed_programs_fail_at_construction(steps, match):
    with pytest.raises(ProgramError, match=match):
        LayerProgram(steps=steps)


def test_wire_round_trip_preserves_program_and_revalidates():
    program = LayerProgram.attention_layer(scale=1.25, scale_by_mask=True)
    wire = program.to_wire()
    assert all(isinstance(item, dict) for item in wire)
    rebuilt = LayerProgram.from_wire(wire)
    assert rebuilt == program
    assert rebuilt.canonical() == program.canonical()
    # A tampered wire form re-validates on the receiving side.
    broken = [dict(item) for item in wire]
    broken[0]["op"] = "spmm"
    with pytest.raises(ProgramError):
        LayerProgram.from_wire(broken)


# ------------------------------------------------- composed-execution helpers
@pytest.mark.parametrize("fmt_cls", [MEBCRSMatrix, SGT16Matrix])
def test_gather_edge_values_inverts_the_translation_scatter(fmt_cls):
    csr = random_csr(70, 60, 0.07, seed=2)
    fmt = fmt_cls.from_csr(csr, precision="fp16")
    gathered = gather_edge_values(fmt.partition, csr.indptr, fmt.vector_values)
    expected = quantize(csr.data, Precision.FP16).astype(np.float32)
    np.testing.assert_array_equal(gathered, expected)


def test_attention_csr_shares_pattern_and_checks_shape():
    csr = random_csr(30, 28, 0.1, seed=5)
    values = np.arange(csr.nnz, dtype=np.float32)
    rebuilt = attention_csr(csr, values)
    assert rebuilt.shape == csr.shape
    np.testing.assert_array_equal(rebuilt.indptr, csr.indptr)
    np.testing.assert_array_equal(rebuilt.indices, csr.indices)
    np.testing.assert_array_equal(rebuilt.data, values)
    with pytest.raises(ValueError, match="shape"):
        attention_csr(csr, values[:-1])


# --------------------------------------------------- shard-alignment property
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("target", (1, 3, 7, 10_000))
def test_window_aligned_shards_never_split_a_softmax_row_segment(seed, target):
    """The invariant fused serving rests on: shard boundaries are window-
    (hence row-) aligned, so every CSR row segment — a softmax domain —
    lands in exactly one shard, and the shard-local mappings tile the
    entry space gaplessly."""
    rng = np.random.default_rng(seed)
    csr = random_csr(
        int(rng.integers(20, 200)),
        int(rng.integers(20, 200)),
        float(rng.uniform(0.01, 0.15)),
        seed=seed,
    )
    fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
    batch = fmt.blocks_as_arrays()
    ranges = window_aligned_ranges(batch.window_offsets, target)
    v = fmt.partition.vector_size
    n_rows = csr.shape[0]
    covered_entries = 0
    prev_w1 = 0
    for shard in ranges:
        assert shard.w0 == prev_w1  # gapless window coverage, in order
        prev_w1 = shard.w1
        r0 = shard.w0 * v
        r1 = min(shard.w1 * v, n_rows)
        assert r0 % v == 0  # row-aligned: no row (= softmax segment) split
        sliced = SHARD_OPS["layer"].slice(fmt, shard, csr.indptr)
        local_indptr = sliced["local_indptr"]
        # The local CSR layout covers exactly the shard's rows and entries.
        assert sliced["row0"] == r0
        assert local_indptr.shape == (r1 - r0 + 1,)
        assert local_indptr[0] == 0
        span = int(local_indptr[-1])
        e0 = int(csr.indptr[r0])
        assert span == int(csr.indptr[r1]) - e0
        covered_entries += span
        # Every entry carries its own column and the value stored for it.
        np.testing.assert_array_equal(sliced["columns"], csr.indices[e0 : e0 + span])
        np.testing.assert_array_equal(
            sliced["mask"], csr.data[e0 : e0 + span].astype(np.float16).astype(np.float32)
        )
    assert prev_w1 == fmt.num_windows or not ranges
    assert covered_entries == csr.nnz  # entries partitioned, none duplicated

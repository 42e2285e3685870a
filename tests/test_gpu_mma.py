"""Tests for MMA semantics, fragment layouts and the swap-and-transpose identity."""

import numpy as np
import pytest

from repro.gpu.counters import CostCounter
from repro.gpu.mma import (
    FLASH_SHAPES,
    MMA_M16N8K4_TF32,
    MMA_M16N8K8_FP16,
    MMA_M16N8K8_TF32,
    MMA_M16N8K16_FP16,
    SUPPORTED_SHAPES,
    TCU16_SHAPES,
    WMMA_M16N16K8_TF32,
    block_k,
    distribute_fragment,
    gather_fragment,
    layout_a,
    layout_b,
    layout_c,
    mma_execute,
    mma_execute_swapped,
)
from repro.precision.types import Precision

ALL_SHAPES = list(SUPPORTED_SHAPES)


def test_table1_shapes_are_supported():
    """Table 1 of the paper lists exactly these WMMA/MMA operand shapes."""
    names = {(s.api, s.precision, s.name) for s in SUPPORTED_SHAPES}
    assert ("wmma", "tf32", "m16n16k8") in names
    assert ("mma", "tf32", "m16n8k4") in names
    assert ("mma", "tf32", "m16n8k8") in names
    assert ("mma", "fp16", "m16n8k8") in names
    assert ("mma", "fp16", "m16n8k16") in names


def test_flashsparse_default_shapes():
    # FlashSparse uses m16n8k4 for TF32 and m16n8k8 for FP16 (Section 2.1).
    assert FLASH_SHAPES[Precision.FP16, "mma"] is MMA_M16N8K8_FP16
    assert FLASH_SHAPES[Precision.TF32, "mma"] is MMA_M16N8K4_TF32
    assert (block_k(FLASH_SHAPES, "fp16"), block_k(FLASH_SHAPES, "tf32")) == (8, 4)
    assert block_k(FLASH_SHAPES, "fp32") == 8  # FP32 takes the FP16 row
    with pytest.raises(ValueError):
        block_k(FLASH_SHAPES, "fp64")


def test_tcu16_shape_table():
    # The 16x1 approaches: DTC-SpMM's m16n8k8 and TC-GNN's WMMA m16n16k8.
    assert TCU16_SHAPES[Precision.FP16, "mma"] is MMA_M16N8K8_FP16
    assert TCU16_SHAPES[Precision.TF32, "mma"] is MMA_M16N8K8_TF32
    assert TCU16_SHAPES[Precision.TF32, "wmma"] is WMMA_M16N16K8_TF32
    assert {shape.k for shape in TCU16_SHAPES.values()} == {8}
    assert [block_k(TCU16_SHAPES, p) for p in ("fp16", "tf32", "fp32")] == [8, 8, 8]
    assert set(FLASH_SHAPES.values()) | set(TCU16_SHAPES.values()) <= set(SUPPORTED_SHAPES)


def test_shape_properties():
    s = MMA_M16N8K8_FP16
    assert s.a_shape == (16, 8)
    assert s.b_shape == (8, 8)
    assert s.c_shape == (16, 8)
    assert s.flops == 2 * 16 * 8 * 8
    assert s.element_bytes == 2
    assert MMA_M16N8K4_TF32.element_bytes == 4


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: f"{s.api}-{s.name}-{s.precision}")
@pytest.mark.parametrize("operand", ["a", "b", "c"])
def test_fragment_layout_is_a_bijection(shape, operand):
    """Every tile element is owned by exactly one (lane, register) slot."""
    layout = {"a": layout_a, "b": layout_b, "c": layout_c}[operand](shape)
    tile_shape = {"a": shape.a_shape, "b": shape.b_shape, "c": shape.c_shape}[operand]
    coords = set(zip(layout.rows.ravel().tolist(), layout.cols.ravel().tolist()))
    assert len(coords) == tile_shape[0] * tile_shape[1]
    assert layout.rows.min() >= 0 and layout.rows.max() == tile_shape[0] - 1
    assert layout.cols.min() >= 0 and layout.cols.max() == tile_shape[1] - 1
    assert layout.rows.shape[0] == 32


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: f"{s.api}-{s.name}-{s.precision}")
@pytest.mark.parametrize("operand", ["a", "b", "c"])
def test_distribute_gather_round_trip(shape, operand, rng):
    layout = {"a": layout_a, "b": layout_b, "c": layout_c}[operand](shape)
    tile_shape = {"a": shape.a_shape, "b": shape.b_shape, "c": shape.c_shape}[operand]
    tile = rng.standard_normal(tile_shape)
    fragments = distribute_fragment(tile, layout)
    assert fragments.shape == (32, layout.elements_per_thread)
    rebuilt = gather_fragment(fragments, layout)
    np.testing.assert_array_equal(rebuilt, tile)


def test_distribute_rejects_wrong_shape(rng):
    layout = layout_a(MMA_M16N8K8_FP16)
    with pytest.raises(ValueError):
        distribute_fragment(rng.standard_normal((8, 8)), layout)
    with pytest.raises(ValueError):
        gather_fragment(rng.standard_normal((31, 4)), layout)


def test_m16n8k8_fp16_a_layout_matches_ptx_documentation():
    """Spot-check the documented per-thread ownership (PTX ISA, ref [33])."""
    layout = layout_a(MMA_M16N8K8_FP16)
    # Thread 0 (group 0, tid-in-group 0): a0/a1 at row 0 cols 0/1, a2/a3 at row 8.
    assert layout.coordinates(0) == [(0, 0), (0, 1), (8, 0), (8, 1)]
    # Thread 5 (group 1, tid 1): cols 2/3, rows 1 and 9.
    assert layout.coordinates(5) == [(1, 2), (1, 3), (9, 2), (9, 3)]
    # Thread 31 (group 7, tid 3): cols 6/7, rows 7 and 15.
    assert layout.coordinates(31) == [(7, 6), (7, 7), (15, 6), (15, 7)]


def test_m16n8k8_fp16_b_layout_matches_ptx_documentation():
    layout = layout_b(MMA_M16N8K8_FP16)
    assert layout.coordinates(0) == [(0, 0), (1, 0)]
    assert layout.coordinates(31) == [(6, 7), (7, 7)]


def test_m16n8k4_tf32_layouts():
    a = layout_a(MMA_M16N8K4_TF32)
    b = layout_b(MMA_M16N8K4_TF32)
    assert a.coordinates(0) == [(0, 0), (8, 0)]
    assert b.coordinates(0) == [(0, 0)]
    assert b.coordinates(31) == [(3, 7)]


@pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: f"{s.api}-{s.name}-{s.precision}")
def test_mma_execute_matches_reference(shape, rng):
    a = rng.standard_normal(shape.a_shape)
    b = rng.standard_normal(shape.b_shape)
    c = rng.standard_normal(shape.c_shape).astype(np.float32)
    out = mma_execute(a, b, c, shape)
    ref = a @ b + c
    # Precision emulation (10-bit mantissa) bounds the error.
    np.testing.assert_allclose(out, ref, rtol=5e-2, atol=5e-2)


def test_mma_execute_zero_accumulator(rng):
    shape = MMA_M16N8K8_FP16
    a = rng.standard_normal(shape.a_shape)
    b = rng.standard_normal(shape.b_shape)
    out = mma_execute(a, b, None, shape)
    np.testing.assert_allclose(out, a @ b, rtol=5e-2, atol=5e-2)


def test_mma_execute_charges_counter(rng):
    shape = MMA_M16N8K8_FP16
    counter = CostCounter()
    mma_execute(rng.standard_normal(shape.a_shape), rng.standard_normal(shape.b_shape), None, shape, counter)
    mma_execute(rng.standard_normal(shape.a_shape), rng.standard_normal(shape.b_shape), None, shape, counter)
    assert counter.total_mma == 2
    assert counter.mma_invocations[("m16n8k8", "fp16")] == 2


def test_mma_execute_validates_shapes(rng):
    shape = MMA_M16N8K8_FP16
    good_a = rng.standard_normal(shape.a_shape)
    good_b = rng.standard_normal(shape.b_shape)
    with pytest.raises(ValueError):
        mma_execute(good_a[:8], good_b, None, shape)
    with pytest.raises(ValueError):
        mma_execute(good_a, good_b[:4], None, shape)
    with pytest.raises(ValueError):
        mma_execute(good_a, good_b, np.zeros((4, 4)), shape)


@pytest.mark.parametrize("shape", [MMA_M16N8K8_FP16, MMA_M16N8K4_TF32, MMA_M16N8K8_TF32, MMA_M16N8K16_FP16])
def test_swap_and_transpose_identity(shape, rng):
    """Equation (1): A x B == (B^T x A^T)^T, with A as the n x k sparse tile."""
    sparse_tile = rng.standard_normal((shape.n, shape.k))
    dense_tile = rng.standard_normal((shape.k, shape.m))
    swapped = mma_execute_swapped(sparse_tile, dense_tile, None, shape)
    reference = sparse_tile @ dense_tile
    np.testing.assert_allclose(swapped, reference, rtol=5e-2, atol=5e-2)
    assert swapped.shape == (shape.n, shape.m)


def test_swap_and_transpose_accumulates(rng):
    shape = MMA_M16N8K8_FP16
    sparse_tile = rng.standard_normal((shape.n, shape.k))
    dense_tile = rng.standard_normal((shape.k, shape.m))
    acc = rng.standard_normal((shape.n, shape.m)).astype(np.float32)
    out = mma_execute_swapped(sparse_tile, dense_tile, acc, shape)
    np.testing.assert_allclose(out, sparse_tile @ dense_tile + acc, rtol=5e-2, atol=5e-2)


def test_swap_and_transpose_validates_shapes(rng):
    shape = MMA_M16N8K8_FP16
    with pytest.raises(ValueError):
        mma_execute_swapped(rng.standard_normal((16, 8)), rng.standard_normal((8, 16)), None, shape)
    with pytest.raises(ValueError):
        mma_execute_swapped(rng.standard_normal((8, 8)), rng.standard_normal((16, 8)), None, shape)


def test_swap_and_transpose_counts_one_mma_per_call(rng):
    shape = MMA_M16N8K4_TF32
    counter = CostCounter()
    mma_execute_swapped(
        rng.standard_normal((shape.n, shape.k)),
        rng.standard_normal((shape.k, shape.m)),
        None,
        shape,
        counter,
    )
    assert counter.total_mma == 1
    assert ("m16n8k4", "tf32") in counter.mma_invocations


def test_sparse_operand_vector_length_is_8_with_swap():
    """The point of the swap: the sparse tile's row count equals n = 8, not m = 16."""
    for shape in (MMA_M16N8K8_FP16, MMA_M16N8K4_TF32):
        assert shape.n == 8
        assert shape.m == 16

"""Tests for the direct vs memory-efficient thread mappings (Figure 7)."""

import numpy as np
import pytest

from repro.kernels.thread_mapping import (
    b_tile_transactions,
    coalesced_mapping,
    direct_mapping,
    get_mapping,
)
from repro.precision.types import Precision


def test_direct_mapping_fp16_geometry():
    mapping = direct_mapping("fp16")
    assert mapping.k == 8
    assert mapping.dense_cols == 16
    assert mapping.elements_per_thread == 4
    # Thread 0 touches columns 0 and 8 of the tile (Figure 7 b).
    cols_t0 = set(mapping.cols[0].tolist())
    assert cols_t0 == {0, 8}


def test_coalesced_mapping_fp16_geometry():
    mapping = coalesced_mapping("fp16")
    assert mapping.k == 8
    assert mapping.dense_cols == 16
    # Thread 0 touches the adjacent columns 0 and 1 (Figure 7 c).
    cols_t0 = set(mapping.cols[0].tolist())
    assert cols_t0 == {0, 1}


@pytest.mark.parametrize("factory", [direct_mapping, coalesced_mapping])
@pytest.mark.parametrize("precision", ["fp16", "tf32"])
def test_mapping_covers_every_tile_element_once(factory, precision):
    mapping = factory(precision)
    coords = set(zip(mapping.rows.ravel().tolist(), mapping.cols.ravel().tolist()))
    assert len(coords) == mapping.k * mapping.dense_cols


def test_column_perm_is_a_permutation():
    mapping = coalesced_mapping("fp16")
    assert sorted(mapping.column_perm.tolist()) == list(range(16))
    # Direct mapping uses the identity permutation.
    assert direct_mapping("fp16").column_perm.tolist() == list(range(16))


def test_fp16_direct_mapping_needs_16_transactions():
    """Figure 7 (b): 16 32-byte transactions to load the 8x16 FP16 tile."""
    mapping = direct_mapping("fp16")
    report = b_tile_transactions(mapping, row_stride_bytes=1 << 16)
    assert report.num_transactions == 16
    assert report.bytes_moved == 16 * 32
    assert report.useful_bytes == 8 * 16 * 2
    assert report.efficiency == pytest.approx(0.5)


def test_fp16_coalesced_mapping_needs_8_transactions():
    """Figure 7 (c): 8 32-byte transactions — a 50% reduction."""
    mapping = coalesced_mapping("fp16")
    report = b_tile_transactions(mapping, row_stride_bytes=1 << 16)
    assert report.num_transactions == 8
    assert report.bytes_moved == 8 * 32
    assert report.useful_bytes == 8 * 16 * 2
    assert report.efficiency == pytest.approx(1.0)


def test_tf32_mappings_equal_transactions():
    """For TF32 the direct mapping is already fully coalesced."""
    direct = b_tile_transactions(direct_mapping("tf32"), row_stride_bytes=1 << 16)
    coalesced = b_tile_transactions(coalesced_mapping("tf32"), row_stride_bytes=1 << 16)
    assert direct.num_transactions == coalesced.num_transactions
    assert direct.efficiency == pytest.approx(1.0)


def test_residue_block_loads_fewer_rows():
    mapping = coalesced_mapping("fp16")
    full = b_tile_transactions(mapping, row_stride_bytes=1 << 16, row_indices=np.arange(8))
    partial = b_tile_transactions(mapping, row_stride_bytes=1 << 16, row_indices=np.arange(3))
    assert partial.num_transactions < full.num_transactions
    assert partial.useful_bytes == 3 * 16 * 2


def test_get_mapping_dispatch():
    assert get_mapping("fp16", True).name == "coalesced"
    assert get_mapping("fp16", False).name == "direct"
    assert get_mapping(Precision.TF32, True).precision is Precision.TF32


def test_thread_addresses_validation():
    mapping = coalesced_mapping("fp16")
    with pytest.raises(ValueError):
        mapping.thread_addresses(np.zeros(3))  # needs k=8 row addresses


def test_thread_addresses_generate_packed_accesses():
    """The coalesced FP16 mapping reads 2x FP16 as a single 4-byte access."""
    mapping = coalesced_mapping("fp16")
    accesses = mapping.thread_addresses(np.arange(8) * (1 << 12))
    # 4 elements per thread merged into 2 packed accesses.
    assert len(accesses) == 2
    assert all(a.access_bytes == 4 for a in accesses)
    direct = direct_mapping("fp16")
    accesses_direct = direct.thread_addresses(np.arange(8) * (1 << 12))
    assert len(accesses_direct) == 4
    assert all(a.access_bytes == 2 for a in accesses_direct)

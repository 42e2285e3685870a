"""Tests for the global-memory transaction (coalescing) model."""

import pytest

from repro.gpu.memory import (
    MAX_TRANSACTION_BYTES,
    MemoryTransactionModel,
    TransactionReport,
    WarpAccess,
    simulate_warp_load,
    transactions_for_tile_load,
)


def test_fully_coalesced_warp_load_is_one_128_byte_transaction():
    # 32 threads x 4 bytes, consecutive addresses -> one 128 B transaction.
    report = simulate_warp_load([i * 4 for i in range(32)], 4)
    assert report.num_transactions == 1
    assert report.transaction_sizes == (128,)
    assert report.bytes_moved == 128
    assert report.useful_bytes == 128
    assert report.efficiency == 1.0


def test_half_empty_sector_wastes_half_the_transaction():
    # 8 threads x 2 bytes = 16 useful bytes still needs a full 32 B transaction.
    report = simulate_warp_load([i * 2 for i in range(8)], 2)
    assert report.num_transactions == 1
    assert report.transaction_sizes == (32,)
    assert report.useful_bytes == 16
    assert report.bytes_moved - report.useful_bytes == 16
    assert report.efficiency == 0.5


def test_strided_access_generates_one_transaction_per_sector():
    # 32 threads, 4 bytes each, 128-byte stride: every access in its own sector.
    report = simulate_warp_load([i * 128 for i in range(32)], 4)
    assert report.num_transactions == 32
    assert all(size == 32 for size in report.transaction_sizes)
    assert report.efficiency == pytest.approx(4 / 32)


def test_contiguous_sectors_merge_up_to_128_bytes():
    # 64 consecutive 4-byte accesses span 256 bytes -> two 128-byte transactions.
    model = MemoryTransactionModel()
    report = model.coalesce(WarpAccess(tuple(i * 4 for i in range(64)), 4))
    assert report.transaction_sizes == (128, 128)


def test_empty_access_produces_no_transactions():
    report = simulate_warp_load([], 4)
    assert report.num_transactions == 0
    assert report.bytes_moved == 0
    assert report.efficiency == 1.0


def test_unaligned_access_spans_two_sectors():
    # A 4-byte access at address 30 crosses the 32-byte boundary.
    report = simulate_warp_load([30], 4)
    assert report.num_transactions == 1
    assert report.transaction_sizes == (64,)


def test_warp_access_validation():
    with pytest.raises(ValueError):
        WarpAccess((0, 4), 0)
    with pytest.raises(ValueError):
        WarpAccess((-4,), 4)


def test_model_rejects_bad_configuration():
    with pytest.raises(ValueError):
        MemoryTransactionModel(sector_bytes=32, max_transaction_bytes=100)


def test_coalesce_many_does_not_merge_across_instructions():
    model = MemoryTransactionModel()
    # Two separate 16-byte half-sector accesses to the same sector would merge
    # if issued together, but they are separate instructions.
    a1 = WarpAccess(tuple(range(0, 16, 2)), 2)
    a2 = WarpAccess(tuple(range(16, 32, 2)), 2)
    report = model.coalesce_many([a1, a2])
    assert report.num_transactions == 2
    assert report.useful_bytes == 32


def test_transactions_for_tile_load_counts_rows_independently():
    # 8 rows of 32 bytes each, far apart in memory -> 8 transactions.
    report = transactions_for_tile_load(
        row_indices=list(range(8)), row_bytes=32, row_stride_bytes=1 << 16
    )
    assert report.num_transactions == 8
    assert report.useful_bytes == 8 * 32


def test_transactions_for_tile_load_half_rows_waste_bandwidth():
    # 16-byte row segments still cost one 32-byte transaction each.
    report = transactions_for_tile_load(
        row_indices=list(range(8)), row_bytes=16, row_stride_bytes=1 << 16
    )
    assert report.num_transactions == 8
    assert report.bytes_moved == 8 * 32
    assert report.useful_bytes == 8 * 16


def test_transaction_report_properties():
    report = TransactionReport(transaction_sizes=(32, 64), useful_bytes=48)
    assert report.num_transactions == 2
    assert report.bytes_moved == 96
    assert report.bytes_moved - report.useful_bytes == 48
    assert 0 < report.efficiency <= 1
    assert MAX_TRANSACTION_BYTES == 128

"""Tests for the cost counters."""

import pytest

from repro.gpu.counters import CostCounter, _parse_shape_name


def test_empty_counter_is_zero():
    c = CostCounter()
    assert c.total_mma == 0
    assert c.cuda_fma == 0
    assert c.total_load_transactions == 0
    assert c.total_store_transactions == 0
    assert c.data_access_bytes == 0
    assert c.footprint_bytes == 0


def test_add_mma_accumulates_by_shape_and_precision():
    c = CostCounter()
    c.add_mma("m16n8k8", "fp16", 3)
    c.add_mma("m16n8k8", "fp16", 2)
    c.add_mma("m16n8k4", "tf32", 1)
    assert c.total_mma == 6
    assert c.mma_invocations[("m16n8k8", "fp16")] == 5
    assert c.mma_invocations[("m16n8k4", "tf32")] == 1


def test_add_mma_negative_raises():
    with pytest.raises(ValueError):
        CostCounter().add_mma("m16n8k8", "fp16", -1)


def test_parse_shape_name():
    assert _parse_shape_name("m16n8k8") == (16, 8, 8)
    assert _parse_shape_name("m16n16k8") == (16, 16, 8)
    with pytest.raises(ValueError):
        _parse_shape_name("bogus")


def test_add_load_tracks_transactions_and_useful_bytes():
    c = CostCounter()
    c.add_load(32, 4, useful_bytes=100)
    c.add_load(128, 1)
    assert c.load_transactions[32] == 4
    assert c.load_transactions[128] == 1
    assert c.bytes_read == 100 + 128
    assert c.transaction_bytes_moved == 4 * 32 + 128


def test_add_store_tracks_transactions_and_useful_bytes():
    c = CostCounter()
    c.add_store(32, 2, useful_bytes=40)
    assert c.total_store_transactions == 2
    assert c.bytes_written == 40


def test_negative_counts_rejected():
    c = CostCounter()
    with pytest.raises(ValueError):
        c.add_load(32, -1)
    with pytest.raises(ValueError):
        c.add_cuda_fma(-1)
    with pytest.raises(ValueError):
        c.add_index_ops(-1)
    with pytest.raises(ValueError):
        c.set_read_footprint(-1)


def test_merge_is_additive():
    a = CostCounter()
    a.add_mma("m16n8k8", "fp16", 1)
    a.add_load(32, 2)
    a.add_cuda_fma(10)
    b = CostCounter()
    b.add_mma("m16n8k8", "fp16", 2)
    b.add_store(32, 1)
    b.add_index_ops(5)
    merged = a + b
    assert merged.total_mma == 3
    assert merged.total_load_transactions == 2
    assert merged.total_store_transactions == 1
    assert merged.cuda_fma == 10
    assert merged.index_ops == 5
    assert merged.kernel_launches == 2
    # Operands unchanged.
    assert a.total_mma == 1
    assert b.total_mma == 2


def test_footprint_tracking():
    c = CostCounter()
    c.set_read_footprint(1000)
    c.set_write_footprint(200)
    assert c.footprint_bytes == 1200
    d = CostCounter()
    d.set_read_footprint(50)
    assert (c + d).footprint_bytes == 1250


def test_as_dict_round_trips_key_fields():
    c = CostCounter()
    c.add_mma("m16n8k4", "tf32", 7)
    c.add_load(32, 3)
    c.add_store(32, 1)
    c.add_index_ops(9)
    d = c.as_dict()
    assert d["total_mma"] == 7
    assert d["mma_invocations"]["m16n8k4/tf32"] == 7
    assert d["load_transactions"][32] == 3
    assert d["index_ops"] == 9


def test_summary_is_a_string():
    c = CostCounter()
    c.add_mma("m16n8k8", "fp16", 1)
    assert "mma=1" in c.summary()

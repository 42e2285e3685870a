"""Tests for the roofline performance model and summary helpers."""

import numpy as np
import pytest

from repro.gpu.counters import CostCounter
from repro.gpu.device import H100_PCIE, RTX4090
from repro.perfmodel.model import (
    DEFAULT_PROFILE,
    KernelProfile,
    PerformanceModel,
    estimate_time,
    gflops,
    sddmm_useful_flops,
    spmm_useful_flops,
)
from repro.perfmodel.summary import geometric_mean, speedup_distribution


def make_counter(mma=0, fma=0, load_bytes=0, footprint=None, index_ops=0, warps=1000):
    c = CostCounter()
    if mma:
        c.add_mma("m16n8k8", "fp16", mma)
    if fma:
        c.add_cuda_fma(fma)
    if load_bytes:
        c.add_load(32, load_bytes // 32, useful_bytes=load_bytes)
    if footprint is not None:
        c.set_read_footprint(footprint)
    if index_ops:
        c.add_index_ops(index_ops)
    c.add_warps(warps)
    return c


def test_useful_flops_helpers():
    assert spmm_useful_flops(100, 64) == 2 * 100 * 64
    assert sddmm_useful_flops(100, 32) == 2 * 100 * 32


def test_gflops():
    assert gflops(2e9, 1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        gflops(1, 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        KernelProfile(name="bad", tcu_efficiency=0.0)
    with pytest.raises(ValueError):
        KernelProfile(name="bad", memory_efficiency=1.5)
    with pytest.raises(ValueError):
        KernelProfile(name="bad", imbalance_factor=0.5)


def test_estimate_includes_launch_overhead():
    empty = CostCounter()
    est = estimate_time(empty, RTX4090)
    assert est.total_time_s >= RTX4090.kernel_launch_overhead_us * 1e-6
    assert est.bound in ("compute", "memory")


def test_more_mmas_take_longer():
    small = estimate_time(make_counter(mma=1_000), RTX4090)
    large = estimate_time(make_counter(mma=100_000), RTX4090)
    assert large.total_time_s > small.total_time_s
    assert large.tcu_time_s > small.tcu_time_s


def test_memory_bound_kernel_dominated_by_bytes():
    c = make_counter(mma=10, load_bytes=512 * 1024 * 1024, footprint=256 * 1024 * 1024)
    est = estimate_time(c, RTX4090)
    assert est.bound == "memory"
    assert est.memory_time_s > est.tcu_time_s


def test_l2_model_rewards_small_footprints():
    """Same traffic, smaller unique footprint -> shorter memory time."""
    heavy = make_counter(load_bytes=256 * 1024 * 1024, footprint=256 * 1024 * 1024)
    light = make_counter(load_bytes=256 * 1024 * 1024, footprint=8 * 1024 * 1024)
    t_heavy = estimate_time(heavy, RTX4090).memory_time_s
    t_light = estimate_time(light, RTX4090).memory_time_s
    assert t_light < t_heavy


def test_l2_unfriendly_profile_ignores_footprint():
    profile = KernelProfile(name="thrash", l2_friendly=False)
    counter = make_counter(load_bytes=64 * 1024 * 1024, footprint=1 * 1024 * 1024)
    friendly = estimate_time(counter, RTX4090, DEFAULT_PROFILE).memory_time_s
    hostile = estimate_time(counter, RTX4090, profile).memory_time_s
    assert hostile > friendly


def test_index_ops_charged_to_cuda_cores():
    base = estimate_time(make_counter(mma=100), RTX4090).cuda_time_s
    with_checks = estimate_time(make_counter(mma=100, index_ops=10_000_000), RTX4090).cuda_time_s
    assert with_checks > base


def test_imbalance_factor_scales_compute():
    c = make_counter(fma=10_000_000_000)
    balanced = estimate_time(c, RTX4090, KernelProfile(name="bal", imbalance_factor=1.0))
    skewed = estimate_time(c, RTX4090, KernelProfile(name="skew", imbalance_factor=2.0))
    assert skewed.total_time_s > balanced.total_time_s


def test_occupancy_penalty_for_tiny_launches():
    c_few = make_counter(load_bytes=1024 * 1024, footprint=1024 * 1024, warps=4)
    c_many = make_counter(load_bytes=1024 * 1024, footprint=1024 * 1024, warps=100_000)
    t_few = estimate_time(c_few, RTX4090).memory_time_s
    t_many = estimate_time(c_many, RTX4090).memory_time_s
    assert t_few > t_many


def test_devices_differ():
    c = make_counter(mma=1_000_000, load_bytes=64 * 1024 * 1024, footprint=32 * 1024 * 1024)
    t_h100 = estimate_time(c, H100_PCIE).total_time_s
    t_4090 = estimate_time(c, RTX4090).total_time_s
    assert t_h100 != t_4090
    assert t_h100 < t_4090  # higher bandwidth and TCU throughput


def test_extra_launch_overhead():
    slow = KernelProfile(name="framework", extra_launch_us=100.0)
    c = CostCounter()
    assert estimate_time(c, RTX4090, slow).launch_time_s > estimate_time(c, RTX4090).launch_time_s


def test_performance_model_class_matches_function():
    c = make_counter(mma=1234, load_bytes=1 << 20, footprint=1 << 19)
    model = PerformanceModel(RTX4090)
    assert model.estimate(c).total_time_s == estimate_time(c, RTX4090).total_time_s


# ---------------------------------------------------------------------------
# Summary helpers
# ---------------------------------------------------------------------------
def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geometric_mean([])
    with pytest.raises(ValueError):
        geometric_mean([1.0, 0.0])


def test_speedup_distribution_buckets():
    dist = speedup_distribution([0.5, 1.2, 1.7, 2.5, 8.0])
    assert dist["<1"] == pytest.approx(20.0)
    assert dist["1-1.5"] == pytest.approx(20.0)
    assert dist["1.5-2"] == pytest.approx(20.0)
    assert dist[">=2"] == pytest.approx(40.0)
    assert dist["max"] == pytest.approx(8.0)
    assert dist["geomean"] > 0
    with pytest.raises(ValueError):
        speedup_distribution([])


def test_speedup_distribution_sums_to_100():
    rng = np.random.default_rng(0)
    dist = speedup_distribution(rng.uniform(0.2, 10, 1000))
    assert dist["<1"] + dist["1-1.5"] + dist["1.5-2"] + dist[">=2"] == pytest.approx(100.0)


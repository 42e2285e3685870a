"""Tests for the simulated device descriptions."""

import pytest

from repro.gpu.device import (
    H100_PCIE,
    RTX4090,
    TRANSACTION_SIZES,
    WARP_SIZE,
    get_device,
)


def test_warp_size_is_32():
    assert WARP_SIZE == 32


def test_transaction_sizes_match_paper():
    # Section 3.3: NVIDIA GPUs support 32-, 64- and 128-byte transactions.
    assert TRANSACTION_SIZES == (32, 64, 128)


def test_h100_spec_matches_paper_description():
    # Section 4: 456 tensor cores, 14592 CUDA cores.
    assert H100_PCIE.tensor_core_count == 456
    assert H100_PCIE.cuda_core_count == 14592


def test_rtx4090_spec_matches_paper_description():
    # Section 4: 512 tensor cores, 16384 CUDA cores.
    assert RTX4090.tensor_core_count == 512
    assert RTX4090.cuda_core_count == 16384


def test_get_device_by_alias():
    assert get_device("h100") is H100_PCIE
    assert get_device("H100-PCIE") is H100_PCIE
    assert get_device("rtx4090") is RTX4090
    assert get_device("4090") is RTX4090


def test_get_device_unknown_raises():
    with pytest.raises(KeyError):
        get_device("a100")


def test_peak_flops_properties_positive():
    for spec in (H100_PCIE, RTX4090):
        assert spec.tcu_fp16_flops > spec.tcu_tf32_flops > 0
        assert spec.cuda_fp32_flops > 0
        assert spec.mem_bandwidth_bps > 0
        assert spec.l2_bandwidth_bps > spec.mem_bandwidth_bps


def test_tcu_flops_lookup_by_precision():
    assert RTX4090.tcu_flops("fp16") == RTX4090.tcu_fp16_flops
    assert RTX4090.tcu_flops("tf32") == RTX4090.tcu_tf32_flops
    with pytest.raises(ValueError):
        RTX4090.tcu_flops("fp64")


def test_tcu_vs_cuda_ratio_exceeds_one():
    # TCUs deliver much higher matrix throughput than CUDA cores on both GPUs.
    assert H100_PCIE.tcu_vs_cuda_ratio("fp16") > 5
    assert RTX4090.tcu_vs_cuda_ratio("fp16") > 2


def test_h100_has_more_bandwidth_but_fewer_cuda_flops_than_4090():
    # The relationship the paper leans on: the TCU/CUDA gap is device-specific.
    assert H100_PCIE.mem_bandwidth_gbps > RTX4090.mem_bandwidth_gbps
    assert RTX4090.cuda_fp32_tflops > H100_PCIE.cuda_fp32_tflops


def test_gpu_spec_is_frozen():
    with pytest.raises(Exception):
        RTX4090.sm_count = 1  # type: ignore[misc]

"""Device descriptions for the simulated GPUs.

The performance model (:mod:`repro.perfmodel`) converts counted kernel costs
(MMA invocations, CUDA-core FMAs, memory transactions) into estimated kernel
times using the peak rates recorded here.  The two devices mirror the paper's
experimental platforms (Section 4): an NVIDIA H100 PCIe and a GeForce
RTX 4090.

The numbers are public datasheet-level figures; they act as *model
constants*, not as claims of measured hardware behaviour.  The reproduction
target is the shape of the comparison (who wins and by roughly what factor),
which is driven by the counted redundancy, not by the absolute peak numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Number of threads per warp on every NVIDIA GPU generation simulated here.
WARP_SIZE: int = 32

#: Global-memory transaction sizes supported by the hardware, in bytes
#: (Section 3.3 of the paper: "NVIDIA GPUs support three memory transaction
#: sizes, including 32 bytes, 64 bytes, and 128 bytes").
TRANSACTION_SIZES: tuple[int, ...] = (32, 64, 128)

#: The minimum memory transaction granularity in bytes.
MIN_TRANSACTION_BYTES: int = 32


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a simulated GPU.

    Attributes
    ----------
    name:
        Human readable device name.
    sm_count:
        Number of streaming multiprocessors.
    tensor_core_count:
        Number of Tensor Core units (as reported in the paper's Section 4).
    cuda_core_count:
        Number of CUDA cores.
    tcu_fp16_tflops:
        Peak dense FP16 Tensor-Core throughput (TFLOP/s, without sparsity).
    tcu_tf32_tflops:
        Peak dense TF32 Tensor-Core throughput (TFLOP/s).
    cuda_fp32_tflops:
        Peak FP32 throughput on CUDA cores (TFLOP/s).
    mem_bandwidth_gbps:
        Peak global-memory bandwidth (GB/s).
    l2_bandwidth_gbps:
        Aggregate L2-cache bandwidth (GB/s); repeated accesses to data that
        stays resident in L2 are served at this rate rather than DRAM rate.
    l2_cache_bytes:
        L2 cache capacity in bytes (used for a simple reuse model).
    kernel_launch_overhead_us:
        Fixed per-kernel launch overhead in microseconds.
    max_resident_warps:
        Upper bound on concurrently resident warps, used to model occupancy
        limits for very small inputs.
    memory_bytes:
        Device global-memory capacity in bytes (the paper's Section 4 lists
        80 GB for the H100 PCIe and 24 GB for the RTX 4090).  The serving
        planner (:mod:`repro.serve.planner`) derives its workspace budget
        from this figure; 0 means "unknown capacity" and disables
        budget-derived planning.
    """

    name: str
    sm_count: int
    tensor_core_count: int
    cuda_core_count: int
    tcu_fp16_tflops: float
    tcu_tf32_tflops: float
    cuda_fp32_tflops: float
    mem_bandwidth_gbps: float
    l2_bandwidth_gbps: float
    l2_cache_bytes: int
    kernel_launch_overhead_us: float = 5.0
    max_resident_warps: int = 2048
    memory_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def tcu_fp16_flops(self) -> float:
        """Peak FP16 TCU throughput in FLOP/s."""
        return self.tcu_fp16_tflops * 1e12

    @property
    def tcu_tf32_flops(self) -> float:
        """Peak TF32 TCU throughput in FLOP/s."""
        return self.tcu_tf32_tflops * 1e12

    @property
    def cuda_fp32_flops(self) -> float:
        """Peak FP32 CUDA-core throughput in FLOP/s."""
        return self.cuda_fp32_tflops * 1e12

    @property
    def mem_bandwidth_bps(self) -> float:
        """Peak memory bandwidth in bytes/s."""
        return self.mem_bandwidth_gbps * 1e9

    @property
    def l2_bandwidth_bps(self) -> float:
        """Aggregate L2 bandwidth in bytes/s."""
        return self.l2_bandwidth_gbps * 1e9

    def tcu_flops(self, precision: str) -> float:
        """Peak TCU throughput (FLOP/s) for ``precision`` (``fp16``/``tf32``)."""
        if precision == "fp16":
            return self.tcu_fp16_flops
        if precision == "tf32":
            return self.tcu_tf32_flops
        raise ValueError(f"unsupported TCU precision: {precision!r}")

    def tcu_vs_cuda_ratio(self, precision: str = "fp16") -> float:
        """Ratio of TCU peak to CUDA-core FP32 peak (paper cites ~30x on H100)."""
        return self.tcu_flops(precision) / self.cuda_fp32_flops


#: NVIDIA H100 PCIe as described in the paper's Section 4 (456 TCUs, 14592
#: CUDA cores, 80 GB).  Dense (non-sparse) peak rates.
H100_PCIE = GPUSpec(
    name="NVIDIA H100 PCIe",
    sm_count=114,
    tensor_core_count=456,
    cuda_core_count=14592,
    tcu_fp16_tflops=756.0,
    tcu_tf32_tflops=378.0,
    cuda_fp32_tflops=51.2,
    mem_bandwidth_gbps=2000.0,
    l2_bandwidth_gbps=7000.0,
    l2_cache_bytes=50 * 1024 * 1024,
    kernel_launch_overhead_us=4.0,
    max_resident_warps=114 * 64,
    memory_bytes=80 * 1024**3,
)

#: NVIDIA GeForce RTX 4090 as described in the paper's Section 4 (512 TCUs,
#: 16384 CUDA cores, 24 GB).
RTX4090 = GPUSpec(
    name="NVIDIA GeForce RTX 4090",
    sm_count=128,
    tensor_core_count=512,
    cuda_core_count=16384,
    tcu_fp16_tflops=330.0,
    tcu_tf32_tflops=165.0,
    cuda_fp32_tflops=82.6,
    mem_bandwidth_gbps=1008.0,
    l2_bandwidth_gbps=5000.0,
    l2_cache_bytes=72 * 1024 * 1024,
    kernel_launch_overhead_us=3.0,
    max_resident_warps=128 * 48,
    memory_bytes=24 * 1024**3,
)

_DEVICES = {
    "h100": H100_PCIE,
    "h100_pcie": H100_PCIE,
    "rtx4090": RTX4090,
    "4090": RTX4090,
}


def get_device(name: str) -> GPUSpec:
    """Look up a device spec by a case-insensitive short name.

    Parameters
    ----------
    name:
        ``"h100"``, ``"h100_pcie"``, ``"rtx4090"`` or ``"4090"``.
    """
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    try:
        return _DEVICES[key]
    except KeyError as exc:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(set(_DEVICES))}"
        ) from exc

"""Kernel cost analysis: why the 8x1 granularity wins (Figures 1, 12, 14, 15).

Run with::

    python examples/kernel_cost_analysis.py

For a Reddit-like power-law graph, this example compares FlashSparse's 8x1
swap-and-transpose SpMM against the 16x1 granularity of TC-GNN / DTC-SpMM and
against the CUDA-core state of the art (RoDe), reporting MMA counts, data
access, memory transactions and the estimated runtime on both GPUs.
"""

from __future__ import annotations

from repro.baselines import get_baseline
from repro.datasets import make_graph
from repro.formats.stats import vector_stats
from repro.gpu.device import H100_PCIE, RTX4090
from repro.kernels import FLASH_SPMM_PROFILE, spmm_flash_cost, spmm_tcu16_cost
from repro.kernels.common import FlashSparseConfig
from repro.perfmodel import estimate_time, gflops, spmm_useful_flops
from repro.utils.tables import format_table

N_DENSE = 128


def main() -> None:
    graph = make_graph("reddit")
    print(f"graph: Reddit stand-in — {graph.n_rows} nodes, {graph.nnz} edges")

    # --- vector statistics (Table 2's view) ----------------------------------
    s8 = vector_stats(graph, 8)
    s16 = vector_stats(graph, 16)
    print("\nnonzero-vector statistics:")
    print(f"  16x1: {s16.num_nonzero_vectors} vectors, {s16.zero_fill} stored zeros")
    print(f"   8x1: {s8.num_nonzero_vectors} vectors, {s8.zero_fill} stored zeros "
          f"({100 * (1 - s8.zero_fill / s16.zero_fill):.1f}% fewer zeros)")

    # --- kernel cost comparison ----------------------------------------------
    flash = spmm_flash_cost(graph, N_DENSE, FlashSparseConfig(precision="fp16"))
    flash_direct = spmm_flash_cost(
        graph, N_DENSE, FlashSparseConfig(precision="fp16", coalesced=False)
    )
    v16 = spmm_tcu16_cost(
        graph, N_DENSE, FlashSparseConfig(precision="fp16")
    )
    rode = get_baseline("RoDe")
    dtc = get_baseline("DTC-SpMM")
    useful = spmm_useful_flops(graph.nnz, N_DENSE)

    rows = []
    for label, counter, profile in (
        ("FlashSparse 8x1 (coalesced)", flash, FLASH_SPMM_PROFILE),
        ("FlashSparse 8x1 (direct map)", flash_direct, FLASH_SPMM_PROFILE),
        ("16x1 granularity (ablation)", v16, FLASH_SPMM_PROFILE),
        ("DTC-SpMM (TF32, 16x1)", dtc.spmm_cost(graph, N_DENSE), dtc.profile),
        ("RoDe (FP32, CUDA cores)", rode.spmm_cost(graph, N_DENSE), rode.profile),
    ):
        t_h100 = estimate_time(counter, H100_PCIE, profile).total_time_s
        t_4090 = estimate_time(counter, RTX4090, profile).total_time_s
        rows.append(
            [
                label,
                counter.total_mma,
                counter.data_access_bytes / 1e6,
                counter.total_load_transactions,
                gflops(useful, t_h100),
                gflops(useful, t_4090),
            ]
        )
    print()
    print(
        format_table(
            ["kernel", "MMAs", "data access (MB)", "load transactions", "H100 GFLOPS", "RTX4090 GFLOPS"],
            rows,
            title=f"SpMM cost comparison (N={N_DENSE}, FP16 unless noted)",
        )
    )


if __name__ == "__main__":
    main()

"""The eight workloads: what each generates from the seed, what one request
is, and how its answer is checked.

Names and shapes are the contract later issues cite; see README.md for why
each exists and which layers it loads.  Everything here drives the program
through its public entry points only.
"""

from __future__ import annotations

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from repro import FlashSparseMatrix, sddmm, spmm
from repro.core.api import sddmm_cost, spmm_cost
from repro.datasets.generators import (
    banded_matrix,
    block_community_matrix,
    erdos_renyi_matrix,
    power_law_matrix,
)
from repro.formats.cache import clear_format_cache
from repro.formats.csr import CSRMatrix
from repro.gpu.device import get_device
from repro.kernels.engine import sddmm_bytes_per_block, spmm_bytes_per_block
from repro.kernels.sddmm_flash import FLASH_SDDMM_PROFILE, VECTORS_PER_OUTPUT_BLOCK
from repro.kernels.spmm_flash import FLASH_SPMM_PROFILE
from repro.ops import segment_softmax
from repro.perfmodel.model import estimate_time, sddmm_useful_flops, spmm_useful_flops
from repro.serve import Server, ServerOverloadedError
from repro.serve.planner import plan_spmm
from repro.serve.program import attention_csr, gather_edge_values

from harness import Check

DEVICE = "rtx4090"
SPEC = get_device(DEVICE)

#: Relative Frobenius error allowed against the fp64 oracle.  fp16 operands
#: carry 2^-11 relative rounding each; one kernel lands near 3e-4, the layer
#: (two quantised products around a softmax) near 6e-4.
TOLERANCE = {"kernel": 1e-3, "layer": 3e-3}


# ------------------------------------------------------------------ inputs
def tc_blocks(csr: CSRMatrix, group: int = 8) -> int:
    """TC blocks by the paper's definition: per window of 8 rows, the
    distinct columns form 8x1 nonzero vectors, ``group`` vectors per block.
    Computed from the sparsity pattern alone — the program is not asked."""
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), np.diff(csr.indptr))
    vectors = np.unique((rows // 8) * csr.shape[1] + csr.indices)
    per_window = np.bincount(vectors // csr.shape[1])
    return int((-(-per_window // group)).sum())


def power_law(n: int, rng: np.random.Generator, candidates: int = 5) -> CSRMatrix:
    """A power-law matrix of a *stated size*: exactly ``9.6 n`` nonzeros and
    a typical TC-block count.

    The library generator's nnz swings +-30 % between seeds (a Pareto tail of
    shape 1.1 has no variance), which would drown every timing bound.  So a
    draw is thinned uniformly to a fixed nnz — thinning keeps the degree
    law — and of ``candidates`` such draws the one with the median TC-block
    count is used.
    """
    target = int(0.6 * 16 * n)
    pool = []
    while len(pool) < candidates:
        csr = power_law_matrix(n, avg_row_length=16, seed=int(rng.integers(2**31)))
        if csr.nnz < target:
            continue
        keep = np.sort(rng.choice(csr.nnz, size=target, replace=False))
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))[keep]
        thinned = CSRMatrix.from_coo(
            rows, csr.indices[keep].astype(np.int64), csr.data[keep], csr.shape
        )
        pool.append((tc_blocks(thinned), len(pool), thinned))
    return sorted(pool)[len(pool) // 2][2]


def dense(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)).astype(np.float32)


def fresh(csr: CSRMatrix) -> FlashSparseMatrix:
    """A new identity for the same content: the translation cache keys by
    object, so each set-up translates for real."""
    return FlashSparseMatrix(csr=CSRMatrix(csr.indptr, csr.indices, csr.data, csr.shape))


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.linalg.norm(want))
    return float(np.linalg.norm(got - want)) / (scale or 1.0)


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def model_numbers(*kernels) -> dict:
    """Perf-model view of one request from its kernels, each a
    ``(CostCounter, profile, useful_flops, intermediate_bytes)``.  The last
    is *computed* — blocks x the engine's bytes per block — not measured."""
    seconds = sum(estimate_time(c, SPEC, profile).total_time_s for c, profile, _, _ in kernels)
    flops = sum(k[2] for k in kernels)
    return {
        "gflops": flops / seconds / 1e9,
        "flops": flops,
        "mma": sum(k[0].total_mma for k in kernels),
        "bytes": sum(k[0].transaction_bytes_moved for k in kernels),
        "intermediate_bytes": sum(k[3] for k in kernels),
    }


def spmm_kernel(fsm: FlashSparseMatrix, n: int) -> tuple:
    fmt = fsm.mebcrs("fp16")
    held = fmt.blocks_as_arrays().num_blocks * spmm_bytes_per_block(fmt.vector_size, fmt.k, n)
    return spmm_cost(fsm, n), FLASH_SPMM_PROFILE, spmm_useful_flops(fsm.nnz, n), held


def sddmm_kernel(fsm: FlashSparseMatrix, k: int) -> tuple:
    fmt, group = fsm.mebcrs("fp16"), VECTORS_PER_OUTPUT_BLOCK
    held = fmt.blocks_as_arrays(group).num_blocks * sddmm_bytes_per_block(fmt.vector_size, group, k)
    return sddmm_cost(fsm, k), FLASH_SDDMM_PROFILE, sddmm_useful_flops(fsm.nnz, k), held


def median_model(models) -> dict:
    return {key: float(np.median([m[key] for m in models])) for key in models[0]}


def tolerance_check(err: float, kind: str, direct_s=None) -> Check:
    ok = err <= TOLERANCE[kind]
    return Check(ok, err, direct_s, "" if ok else f"rel_err {err:.3g} over tolerance")


def floor_spmm(fsm, b) -> float:
    """SciPy CSR ``A @ B`` in the request's own dtype (float32), best of
    three: on the small matrices it is a fifth of a millisecond, timed
    beside a busy server, and a wait for the interpreter lock only ever
    adds."""
    s32 = fsm.to_scipy()
    return min(timed(lambda: s32 @ b)[1] for _ in range(3))


def check_spmm(fsm, b, result, served: bool) -> Check:
    err = rel_err(result.values, fsm.to_scipy().astype(np.float64) @ b.astype(np.float64))
    if not served:
        return tolerance_check(err, "kernel")
    direct, direct_s = timed(lambda: spmm(fsm, b))
    if not np.array_equal(direct.values, result.values):
        return Check(False, err, direct_s, "served values differ from one-shot repro.spmm")
    if direct.counter.as_dict() != result.counter.as_dict():
        return Check(False, err, direct_s, "served cost counter differs from one-shot repro.spmm")
    return tolerance_check(err, "kernel", direct_s)


# --------------------------------------------------------------- workloads
class Workload:
    name = ""
    #: Caller threads of the closed loop (or 1 generator thread, open loop).
    clients = 1
    #: Requests sent before timing starts.
    warmup = 5
    #: Every n-th timed request is checked / has its floor timed, outside the
    #: timed span: 8, unless that would cost more than about a fifth of the
    #: run (check) or the floor is so cheap that every request can afford it.
    check_every = 8
    floor_every = 8
    #: ``peak_rss_mb`` is read once this many timed requests are done — a
    #: count every run reaches, slow minute or not.  Memory climbs with the
    #: requests done (results kept for the checks, plan-cache entries, pool
    #: carriers), so read at the end a faster program would look like a
    #: fatter one.
    rss_after = 16
    #: Open loop only: rate steps in requests/s, the share of the run each
    #: step gets, the latency limit, and the index of the first step past
    #: today's capacity (there a refusal is the server's designed answer: it
    #: counts against the step's limit, not as a failed request).
    rates = None
    step_weights = None
    limit_p90_s = 0.150
    overload_from = None
    refusals = ()

    def make_inputs(self, seed: int) -> SimpleNamespace:
        raise NotImplementedError

    def set_up(self, inputs) -> SimpleNamespace:
        """Translate, start servers, warm up.  Timed as ``setup_s``."""
        state = self.build(inputs)
        for i in range(self.warmup):
            self.call(state, self.prepare(state, -1 - i))
        return state

    def build(self, inputs) -> SimpleNamespace:
        raise NotImplementedError

    def tear_down(self, state) -> None:
        server = getattr(state, "server", None)
        if server is not None:
            server.close()

    def prepare(self, state, i: int):
        return i

    def call(self, state, args):
        return self.submit(state, args).result()

    def check(self, state, args, result) -> Check:
        raise NotImplementedError

    def floor(self, state, args) -> float:
        """Seconds the external floor takes on the same request."""
        raise NotImplementedError

    def model(self, state) -> dict:
        """:func:`model_numbers` of one request."""
        raise NotImplementedError

    def probe_matrix(self, state):
        """The matrix the per-layer translation probe runs on."""
        return state.fsm.to_scipy()


class KernelSpmm(Workload):
    name = "kernel_spmm"
    warmup = 3
    floor_every = 2  # three 3 ms calls beside two 150 ms requests
    n, width = 8192, 128

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return SimpleNamespace(csr=power_law(self.n, rng), b=dense(rng, self.n, self.width))

    def build(self, inputs):
        fsm = fresh(inputs.csr)
        fsm.mebcrs("fp16").blocks_as_arrays()
        return SimpleNamespace(fsm=fsm, b=inputs.b)

    def call(self, state, args):
        return spmm(state.fsm, state.b, device=DEVICE)

    def check(self, state, args, result):
        return check_spmm(state.fsm, state.b, result, served=False)

    def floor(self, state, args):
        return floor_spmm(state.fsm, state.b)

    def model(self, state):
        return model_numbers(spmm_kernel(state.fsm, self.width))


class KernelSddmm(Workload):
    name = "kernel_sddmm"
    check_every = 16  # ~1000 requests a run, each check worth three of them
    floor_every = 4
    rss_after = 256
    n, k = 8192, 32

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])  # same matrix as kernel_spmm
        csr = power_law(self.n, rng)
        rng = np.random.default_rng([seed, 2])
        coo = csr.to_scipy().tocoo()
        return SimpleNamespace(
            csr=csr, a=dense(rng, self.n, self.k), b=dense(rng, self.n, self.k),
            rows=coo.row, cols=coo.col,
        )

    def build(self, inputs):
        fsm = fresh(inputs.csr)
        fsm.mebcrs("fp16").blocks_as_arrays()
        return SimpleNamespace(fsm=fsm, **vars(inputs))

    def call(self, state, args):
        return sddmm(state.fsm, state.a, state.b, device=DEVICE)

    def floor(self, state, args):
        """NumPy gather + row-dot at the nonzeros."""
        a, b, rows, cols = state.a, state.b, state.rows, state.cols
        return timed(lambda: np.einsum("ij,ij->i", a[rows], b[cols]))[1]

    def check(self, state, args, result):
        a, b, rows, cols = state.a, state.b, state.rows, state.cols
        want = np.einsum("ij,ij->i", a[rows].astype(np.float64), b[cols].astype(np.float64))
        got = gather_edge_values(
            result.output.partition, state.csr.indptr, result.output.vector_values
        )
        return tolerance_check(rel_err(got, want), "kernel")

    def model(self, state):
        return model_numbers(sddmm_kernel(state.fsm, self.k))


class CostSweepCold(Workload):
    """One request is one cold sweep of the collection, the way the paper's
    tables are regenerated: per matrix ``from_scipy`` + SpMM cost + SDDMM
    cost + two time estimates, with the translation cache emptied first.

    (Timing each matrix as its own request would make ``latency_p50_ms`` the
    boundary between two of twelve cost clusters, which flips between runs.)
    """

    name = "cost_sweep_cold"
    warmup = 2
    floor_every = 4
    sizes = (8192, 12288, 16384)
    width, k = 128, 32

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        sub = lambda: int(rng.integers(2**31))  # noqa: E731
        collection = []
        for n in self.sizes:
            collection += [
                power_law(n, rng, candidates=1),
                banded_matrix(n, bandwidth=24, avg_row_length=16, seed=sub()),
                block_community_matrix(n, avg_row_length=16, seed=sub()),
                erdos_renyi_matrix(n, avg_row_length=16, seed=sub()),
            ]
        return SimpleNamespace(
            scipy=[c.to_scipy() for c in collection],
            # Expected MMA counts from the paper's block definition.
            spmm_mma=[tc_blocks(c, 8) * -(-self.width // 16) for c in collection],
            sddmm_mma=[tc_blocks(c, 16) * (self.k // 8) for c in collection],
            probe=dense(rng, max(self.sizes), 8),
        )

    def build(self, inputs):
        return inputs

    def call(self, state, args):
        clear_format_cache()
        rows = []
        for matrix in state.scipy:
            fsm = FlashSparseMatrix.from_scipy(matrix)
            c_spmm = spmm_cost(fsm, self.width)
            c_sddmm = sddmm_cost(fsm, self.k)
            rows.append(
                (
                    fsm,
                    c_spmm,
                    c_sddmm,
                    estimate_time(c_spmm, SPEC, FLASH_SPMM_PROFILE),
                    estimate_time(c_sddmm, SPEC, FLASH_SDDMM_PROFILE),
                )
            )
        return rows

    def floor(self, state, args):
        """SciPy's own CSR -> 8x1 block conversion of the collection."""
        return timed(lambda: [m.tobsr(blocksize=(8, 1)) for m in state.scipy])[1]

    def check(self, state, args, result):
        for j, (_, c_spmm, c_sddmm, _, _) in enumerate(result):
            if c_spmm.total_mma != state.spmm_mma[j] or c_sddmm.total_mma != state.sddmm_mma[j]:
                return Check(False, 0.0, None, f"MMA count of matrix {j} is off")
        # The translation itself: multiply through one matrix of the sweep.
        j = args % len(result)
        fsm, matrix = result[j][0], state.scipy[j]
        b = state.probe[: matrix.shape[1]]
        want = matrix.astype(np.float64) @ b.astype(np.float64)
        return tolerance_check(rel_err(spmm(fsm, b).values, want), "kernel")

    def model(self, state):
        # The engine is idle here: only the cost side of each matrix counts.
        return median_model(
            [
                model_numbers((spmm_cost(m, self.width), FLASH_SPMM_PROFILE,
                               spmm_useful_flops(m.nnz, self.width), 0))
                for m in state.scipy
            ]
        )

    def probe_matrix(self, state):
        return state.scipy[0]


class ServeInlineSmall(Workload):
    name = "serve_inline_small"
    clients = 2
    warmup = 8
    floor_every = 2  # three quarters of a millisecond beside a 16 ms service
    rss_after = 128
    n, width, matrices = 2048, 64, 4
    server_options = {}

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 4])
        return SimpleNamespace(
            csrs=[power_law(self.n, rng) for _ in range(self.matrices)],
            b=dense(rng, self.n, self.width),
        )

    def build(self, inputs):
        return SimpleNamespace(
            server=Server(device=DEVICE, workers=1, **self.server_options),
            fsms=[fresh(c) for c in inputs.csrs],
            b=inputs.b,
        )

    def submit(self, state, i):
        return state.server.submit_spmm(state.fsms[i % self.matrices], state.b)

    def check(self, state, i, result):
        return check_spmm(state.fsms[i % self.matrices], state.b, result, served=True)

    def floor(self, state, i):
        """Mean over the four matrices, so that every sample has the same
        make-up.  With the request's own matrix alone the samples fall into
        four groups (162, 176, 190 and 217 us on one seed) and a percentile
        of the lot jumps from one group to the next between runs."""
        return sum(floor_spmm(fsm, state.b) for fsm in state.fsms) / self.matrices

    def model(self, state):
        return median_model([model_numbers(spmm_kernel(f, self.width)) for f in state.fsms])

    def probe_matrix(self, state):
        return state.fsms[0].to_scipy()


class ServeOpenloop(ServeInlineSmall):
    """A ladder of rates around today's capacity (~50 rps on this request,
    coalescing included).  The first three steps sit under it — the third
    loads the server to about 0.6, so short queues form and requests
    coalesce — and a refusal there is a failed request.  The last two sit
    past it by design: the backlog grows, the 64-deep queue fills on the top
    step and the server sheds.  Both neighbours of capacity keep their
    distance on a quiet box (p90 of 40 - 100 ms against the 150 ms limit at
    30 rps, of 0.5 - 1.2 s at 80 rps); a gain shows when an overload step
    starts to hold, a loss when a lower one stops."""

    name = "serve_openloop"
    clients = 1
    floor_every = 1  # timed in the gaps between arrivals, while the server idles
    rates = (12, 20, 30, 80, 110)
    overload_from = 3
    # ``latency_p50_ms`` is read on the lowest step, where nothing queues;
    # half the run goes there so that its median rests on ~60 requests.
    step_weights = (4, 1, 1, 1, 1)
    # Peak memory on the upper steps is that of the largest batch the queue
    # happened to coalesce (100 - 175 MiB between runs): read it before them.
    rss_after = 48
    refusals = (ServerOverloadedError,)
    server_options = {"max_queue_depth": 64, "admission": "reject"}


class PoolLayer(Workload):
    name = "pool_layer"
    check_every = 16  # a check recomputes the layer twice more
    floor_every = 4
    rss_after = 32
    n, k, width, scale = 4096, 32, 64, 0.5

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 6])
        csr = power_law(self.n, rng)
        coo = csr.to_scipy().tocoo()
        return SimpleNamespace(
            csr=csr, rows=coo.row, cols=coo.col,
            a=dense(rng, self.n, self.k), b=dense(rng, self.n, self.k),
            x=dense(rng, self.n, self.width),
        )

    def build(self, inputs):
        fsm = fresh(inputs.csr)
        # A device just big enough that two workers each hold a quarter of
        # the blocks: the planner must then cut at least four shards.
        one_shot = plan_spmm(fsm.mebcrs("fp16"), self.width)
        workspace = 2 * -(-one_shot.num_blocks // 4) * one_shot.bytes_per_block
        spec = replace(
            SPEC, name="rtx4090-pool-layer",
            memory_bytes=int(one_shot.meta["resident_bytes"] + workspace / 0.25),
        )
        return SimpleNamespace(server=Server(device=spec, workers=2), fsm=fsm, **vars(inputs))

    def submit(self, state, i):
        return state.server.submit_layer(state.fsm, state.a, state.b, state.x, scale=self.scale)

    def external(self, state, dtype):
        """The layer from NumPy and SciPy alone: row-dot logits x scale,
        ``reduceat`` softmax per row, CSR ``@ X``."""
        csr = state.csr
        a, b, x = (m.astype(dtype) for m in (state.a, state.b, state.x))
        logits = np.einsum("ij,ij->i", a[state.rows], b[state.cols]) * dtype(self.scale)
        starts = csr.indptr[:-1][np.diff(csr.indptr) > 0]
        row_of = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, csr.nnz)))
        exps = np.exp(logits - np.maximum.reduceat(logits, starts)[row_of])
        weights = exps / np.add.reduceat(exps, starts)[row_of]
        return sp.csr_matrix((weights, csr.indices, csr.indptr), shape=csr.shape) @ x

    def floor(self, state, i):
        return timed(lambda: self.external(state, np.float32))[1]

    def check(self, state, i, result):
        if result.meta["plan"].num_shards < 4:
            return Check(False, 0.0, None, "planner cut fewer than four shards")
        csr = state.csr

        def compose():
            scores = sddmm(state.fsm, state.a, state.b)
            logits = gather_edge_values(
                scores.output.partition, csr.indptr, scores.output.vector_values
            )
            logits = (logits * np.float32(self.scale)).astype(np.float32)
            attention = attention_csr(csr, segment_softmax(logits, csr.indptr))
            return spmm(FlashSparseMatrix(csr=attention), state.x).values

        err = rel_err(result.values, self.external(state, np.float64))
        direct, direct_s = timed(compose)
        if not np.array_equal(direct, result.values):
            return Check(False, err, direct_s, "fused layer differs from the three-call composition")
        return tolerance_check(err, "layer", direct_s)

    def model(self, state):
        return model_numbers(sddmm_kernel(state.fsm, self.k), spmm_kernel(state.fsm, self.width))


class ClusterRepeat(Workload):
    """One pinned matrix, a fresh B per request: store reads for the matrix,
    store writes for the operand."""

    name = "cluster_repeat"
    floor_every = 1  # under 1 ms beside a 40 ms request
    rss_after = 64
    n, width = 4096, 64

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 7])
        return SimpleNamespace(csr=power_law(self.n, rng), b=dense(rng, self.n, self.width), seed=seed)

    def build(self, inputs):
        return SimpleNamespace(
            server=Server(backend="cluster", hosts=2, device=DEVICE),
            fsm=fresh(inputs.csr), csr=inputs.csr, b=inputs.b,
            rng=np.random.default_rng([inputs.seed, 8]),
        )

    def prepare(self, state, i):
        return state.fsm, dense(state.rng, self.n, self.width)

    def submit(self, state, args):
        return state.server.submit_spmm(*args)

    def check(self, state, args, result):
        return check_spmm(*args, result, served=True)

    def floor(self, state, args):
        return floor_spmm(*args)

    def model(self, state):
        return model_numbers(spmm_kernel(state.fsm, self.width))


class ClusterFresh(ClusterRepeat):
    """The same cluster used the other way: every request's matrix has new
    values (so a new content key), B stays fixed."""

    name = "cluster_fresh"

    def prepare(self, state, i):
        csr = state.csr
        values = state.rng.uniform(0.1, 1.0, size=csr.nnz).astype(np.float32)
        return FlashSparseMatrix(csr=attention_csr(csr, values)), state.b


WORKLOADS = {
    w.name: w
    for w in (
        KernelSpmm(), KernelSddmm(), CostSweepCold(), ServeInlineSmall(),
        ServeOpenloop(), PoolLayer(), ClusterRepeat(), ClusterFresh(),
    )
}

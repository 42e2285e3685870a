"""Multi-process shard scheduler for one SpMM / SDDMM.

One request is cut into window-aligned shards
(:func:`repro.kernels.engine.window_aligned_ranges`) and the shards are
dispatched to a ``multiprocessing`` worker pool, so they run on separate
cores whatever the GIL does.

Execution model
---------------
* The **dense operands** (B for SpMM, A and B for SDDMM) and the **output**
  live in POSIX shared memory (:mod:`multiprocessing.shared_memory`): they
  are written once by the parent and mapped — not copied — into every
  worker.  Workers write their shard's output rows directly into the shared
  output; shards are window-aligned, so no two workers ever touch the same
  rows and no locking is needed.
* The **sparse shard slices** (the shard's lane entries: values, columns,
  row offsets) are small and travel with each task through the pool's
  pickle channel; this
  keeps workers stateless, so any worker can run any shard — the pool's
  internal queue is the work queue.
* Each shard is retried ``retries`` times on failure; a shard that exhausts
  its retries falls back to in-parent execution, so one bad worker degrades
  throughput, not correctness.

Bit-exactness
-------------
Every shard runs its op's entry in the engine's shard table
(:data:`repro.kernels.engine.SHARD_OPS`) —
:func:`~repro.kernels.engine.spmm_shard_rows` /
:func:`~repro.kernels.engine.sddmm_shard_values` over whole windows: whole
output rows accumulated from their own entries, sampled values computed
from their own two dense rows — which reproduces the single-process
``engine="batched"`` one-shot values bit-for-bit (see the engine module
docstring).  The parity tests assert exact equality, not allclose.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.kernels.engine import SHARD_OPS
from repro.precision.types import Precision

try:  # POSIX shared memory; present on every platform this repo targets.
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - ancient interpreters only
    shared_memory = None

#: Default number of times a failed shard is re-enqueued before the parent
#: runs it inline.
DEFAULT_SHARD_RETRIES = 2


@dataclass(frozen=True)
class ShmArray:
    """Descriptor of an ndarray living in a named shared-memory segment."""

    name: str
    shape: tuple
    dtype: str


def _create_shm(array: np.ndarray) -> tuple["shared_memory.SharedMemory", ShmArray]:
    """Copy ``array`` into a fresh shared-memory segment."""
    array = np.ascontiguousarray(array)
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[...] = array
    return shm, ShmArray(name=shm.name, shape=tuple(array.shape), dtype=array.dtype.str)


def _create_shm_zeros(shape: tuple, dtype) -> tuple["shared_memory.SharedMemory", ShmArray]:
    """A zero-initialised shared-memory array (the output buffer)."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
    view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
    view[...] = 0
    return shm, ShmArray(name=shm.name, shape=tuple(shape), dtype=dtype.str)


def _attach(desc: ShmArray) -> tuple["shared_memory.SharedMemory", np.ndarray]:
    """Map a descriptor's segment into this process (no tracker ownership).

    The parent owns the segment lifecycle (close + unlink); attaching
    workers must not register it with the resource tracker — under the
    ``fork`` start method parent and workers share one tracker process, so
    a worker-side registration makes the segment appear twice and the
    parent's unlink then trips the tracker's bookkeeping.  Python 3.13 has
    ``track=False`` for exactly this; earlier interpreters need the
    register call silenced around the attach.
    """
    try:
        shm = shared_memory.SharedMemory(name=desc.name, track=False)
    except TypeError:  # Python < 3.13: no track flag.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=desc.name)
        finally:
            resource_tracker.register = original_register
    return shm, np.ndarray(desc.shape, dtype=np.dtype(desc.dtype), buffer=shm.buf)


# ---------------------------------------------------------------------------
# Worker-side task body (module-level: picklable by every start method)
# ---------------------------------------------------------------------------
def _run_task(task: dict) -> dict:
    """Run one shard in a pool worker: attach the shared operands and
    output, execute the op's shard-table entry on the parent-sliced arrays,
    place the result.  Returns the shard's per-stage seconds."""
    if task["attempt"] <= task["fail_times"]:  # failure injection (retry tests)
        raise RuntimeError(
            f"injected shard failure (shard {task['shard']}, attempt {task['attempt']})"
        )
    op = SHARD_OPS[task["op"]]
    segments, views = [], []
    try:
        for desc in (*task["operands"], task["out"]):
            shm, view = _attach(desc)
            segments.append(shm)
            views.append(view)
        *operands, out = views
        outputs, timings = op.run(task["sliced"], operands, task["params"])
        op.place(out, task["sliced"], outputs)
    finally:
        for shm in segments:
            shm.close()
    return timings


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
class ShardScheduler:
    """Window-aligned shard executor over a persistent process pool.

    Parameters
    ----------
    workers:
        Worker process count.  ``workers <= 1`` executes every shard inline
        in the calling process (no pool, no shared memory) — the degenerate
        configuration the parity tests compare the pool against.
    retries:
        Times a failed shard is re-enqueued before the parent computes it
        inline.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap worker startup, copy-on-write import state) and
        the platform default elsewhere.
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = DEFAULT_SHARD_RETRIES,
        start_method: str | None = None,
    ):
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        if start_method is None:
            start_method = "fork" if "fork" in mp.get_all_start_methods() else None
        self._mp_context = mp.get_context(start_method) if start_method else mp.get_context()
        self._pool: ProcessPoolExecutor | None = None
        #: Lifetime counters: shards run, retries performed, inline fallbacks.
        #: Mutated by the dispatching thread under ``_stats_lock``; read via
        #: :meth:`stats_snapshot` (client threads snapshot while `_dispatch`
        #: runs, so unguarded reads could observe mid-update state).
        self.stats = {"shards": 0, "retries": 0, "fallbacks": 0, "requests": 0}
        self._stats_lock = threading.Lock()

    # --------------------------------------------------------------- plumbing
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=self._mp_context
            )
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def stats_snapshot(self) -> dict:
        """Consistent copy of the lifetime counters (safe from any thread)."""
        with self._stats_lock:
            return dict(self.stats)

    def _count(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += n

    def __enter__(self) -> "ShardScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _dispatch(self, tasks: list[dict], inline_body, on_result) -> None:
        """Run ``tasks`` on the pool with per-shard retry and inline fallback.

        ``inline_body(task)`` is the parent-side fallback executed against
        the parent's own arrays once a shard exhausts its retries (or when
        the pool itself breaks).  ``on_result`` receives each pool shard's
        per-stage timings (inline bodies record their own).
        """
        self._count("requests")
        self._count("shards", len(tasks))
        if self.workers <= 1 or len(tasks) == 0:
            for task in tasks:
                inline_body(task)
            return
        pending = {self._ensure_pool().submit(_run_task, task): task for task in tasks}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                task = pending.pop(future)
                if future.exception() is None:
                    on_result(future.result())
                    continue
                if task["attempt"] <= self.retries:
                    task = dict(task, attempt=task["attempt"] + 1)
                    self._count("retries")
                    try:
                        pending[self._ensure_pool().submit(_run_task, task)] = task
                    except Exception:
                        # Pool broken (dead workers): drop it so the next
                        # submit builds a fresh one, run this shard inline.
                        self._discard_pool()
                        self._count("fallbacks")
                        inline_body(task)
                else:
                    self._count("fallbacks")
                    inline_body(task)

    # ------------------------------------------------------------ kernel ops
    def _run(
        self,
        op_name: str,
        fmt: BlockedVectorFormat,
        operands: list[np.ndarray],
        params: dict,
        group: int | None = None,
        indptr: np.ndarray | None = None,
        target_blocks: int | None = None,
        inject_failures: dict | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Plan → dispatch → assemble for one table op (see
        :data:`repro.kernels.engine.SHARD_OPS`).

        The dense ``operands`` and the output go to shared memory once; each
        shard's sparse slices are cut here and travel in its pickled task,
        so pool workers stay stateless.  Returns the output plus the
        per-stage seconds summed across shards (all zero for single-stage
        ops).
        """
        op = SHARD_OPS[op_name]
        ranges, out_shape = op.plan(fmt, operands, group, self.workers, target_blocks)
        stage_seconds = {"sddmm_s": 0.0, "edge_softmax_s": 0.0, "spmm_s": 0.0}
        if not ranges:
            return np.zeros(out_shape, dtype=np.float32), stage_seconds

        segments = []
        try:
            if self.workers > 1 and shared_memory is not None:
                descs = []
                for operand in operands:
                    shm, desc = _create_shm(operand)
                    segments.append(shm)
                    descs.append(desc)
                out_shm, out_desc = _create_shm_zeros(out_shape, np.float32)
                segments.append(out_shm)
                out_view = np.ndarray(out_shape, np.float32, buffer=out_shm.buf)
            else:
                descs = out_desc = None
                out_view = np.zeros(out_shape, dtype=np.float32)

            tasks = [
                {
                    "op": op_name,
                    "shard": i,
                    "attempt": 1,
                    "fail_times": (inject_failures or {}).get(i, 0),
                    "sliced": op.slice(fmt, r, indptr),
                    "params": params,
                    "operands": descs,
                    "out": out_desc,
                }
                for i, r in enumerate(ranges)
            ]

            def add_timings(timings: dict) -> None:
                for key, seconds in timings.items():
                    stage_seconds[key] += seconds

            def inline(task: dict) -> None:
                outputs, timings = op.run(task["sliced"], operands, params)
                op.place(out_view, task["sliced"], outputs)
                add_timings(timings)

            self._dispatch(tasks, inline, on_result=add_timings)
            return np.array(out_view, copy=True), stage_seconds
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    def run_spmm(
        self,
        fmt: BlockedVectorFormat,
        b_q: np.ndarray,
        precision: Precision,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> np.ndarray:
        """``A @ B`` sharded across the pool; bit-identical to one-shot.

        ``b_q`` must already be quantised float32 (the kernel entry points'
        convention).  ``target_blocks`` is the shard size target from the
        planner (defaults to an even split across workers).
        ``_inject_failures`` maps shard index → number of times that shard
        fails (test hook for the retry path).
        """
        params = {"precision": precision.value}
        out, _ = self._run(
            "spmm",
            fmt,
            [b_q],
            params,
            target_blocks=target_blocks,
            inject_failures=_inject_failures,
        )
        return out

    def run_sddmm(
        self,
        fmt: BlockedVectorFormat,
        a_q: np.ndarray,
        b_q: np.ndarray,
        precision: Precision,
        group: int,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> np.ndarray:
        """Sampled dense×dense sharded across the pool (bit-identical).

        Returns the ``(num_nonzero_vectors, vector_size)`` value array in
        the layout of ``fmt.vector_values``.
        """
        params = {"precision": precision.value, "scale_by_mask": bool(scale_by_mask)}
        out, _ = self._run(
            "sddmm",
            fmt,
            [a_q, b_q],
            params,
            group=group,
            target_blocks=target_blocks,
            inject_failures=_inject_failures,
        )
        return out

    def run_layer(
        self,
        fmt: BlockedVectorFormat,
        indptr: np.ndarray,
        a_q: np.ndarray,
        b_q: np.ndarray,
        x_q: np.ndarray,
        precision: Precision,
        scale: float | None = None,
        scale_by_mask: bool = False,
        target_blocks: int | None = None,
        _inject_failures: dict | None = None,
    ) -> tuple[np.ndarray, dict]:
        """One fused layer (SDDMM → scale → softmax → SpMM) sharded across
        the pool — bit-identical to the three-call composition.

        ``indptr`` is the mask's CSR row layout (the softmax segments);
        ``a_q`` / ``b_q`` are the SDDMM operands and ``x_q`` the SpMM dense
        operand, all pre-quantised float32.  Shards are cut on the SpMM
        grouping's window offsets and all three stages run on the shard's
        CSR entries.

        Returns ``(rows, stage_seconds)`` where ``stage_seconds`` sums each
        stage's wall clock across shards
        (``{"sddmm_s", "edge_softmax_s", "spmm_s"}``).
        """
        params = {
            "precision": precision.value,
            "scale": None if scale is None else float(scale),
            "scale_by_mask": bool(scale_by_mask),
        }
        return self._run(
            "layer",
            fmt,
            [a_q, b_q, x_q],
            params,
            indptr=indptr,
            target_blocks=target_blocks,
            inject_failures=_inject_failures,
        )

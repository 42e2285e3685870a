"""Sharded serving subsystem.

This package turns the kernel library into a serving system for the paper's
end-to-end workloads (the GNN inference traffic of Figure 16): a
:class:`~repro.serve.server.Server` accepts concurrent requests for the
paper's operators — SpMM, SDDMM and the fused attention layer built from
them — plans every request from its matrix's cached sparsity pattern
(shared by every request with the pattern, whatever its values, so no
request translates), batches same-matrix SpMM and layer requests
into one engine pass, and executes large operations as window-aligned shards sized
by a device memory budget — in the server process, or across worker hosts
with ``backend="cluster"``.

The pieces:

* :mod:`repro.serve.planner` — derives a request's shard size
  (``ServePlan.block_chunk``, in TC blocks) and worker count from a
  :class:`~repro.gpu.device.GPUSpec` memory budget and the format's
  block index;
* :mod:`repro.serve.program` — the fused layer's result type and the
  helpers that build the same layer from three calls (the bit-identity
  reference and the byte baseline); a whole layer is one request
  (``Server.submit_layer``, settings checked by
  :func:`repro.kernels.engine.shard_params`) instead of three;
* :mod:`repro.serve.scheduler` — runs one operation's window-aligned
  shards one after another in the server process (bit-identical to the
  single-process one-shot engine);
* :mod:`repro.serve.server` — the request frontend (futures, dispatch in
  arrival order with same-matrix batching, per-request cost counters, and
  bounded admission and request deadlines for overload safety;
  ``backend="cluster"`` swaps the in-process scheduler for the multi-host
  head of :mod:`repro.cluster`);
* :mod:`repro.serve.metrics` — latency percentiles (end-to-end plus the
  queue-wait / execution split), queue depth, overload counters and the
  translation-cache counters (the served path's are its pattern lookups,
  ``structure_hits``);
* :mod:`repro.serve.errors` — the failure taxonomy clients dispatch on
  (overloaded / timed out / closed / dispatcher crashed).
"""

from repro.serve.errors import (
    DispatcherCrashedError,
    ServeError,
    ServeTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.serve.metrics import LatencyStats, MetricsSnapshot, ServeMetrics
from repro.serve.planner import ServePlan, plan_sddmm, plan_spmm
from repro.serve.program import LayerResult, attention_csr, gather_edge_values
from repro.serve.scheduler import ShardScheduler
from repro.serve.server import Server, ServeRequest

__all__ = [
    "DispatcherCrashedError",
    "LatencyStats",
    "LayerResult",
    "MetricsSnapshot",
    "ServeError",
    "ServeMetrics",
    "ServePlan",
    "ServeTimeoutError",
    "ServerClosedError",
    "ServerOverloadedError",
    "ShardScheduler",
    "Server",
    "ServeRequest",
    "attention_csr",
    "gather_edge_values",
    "plan_sddmm",
    "plan_spmm",
]

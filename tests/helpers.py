"""Shared non-fixture helpers for the test suite.

Kept separate from ``conftest.py`` so test modules can import them by name:
importing from ``conftest`` breaks as soon as another rootdir directory (the
benchmark harness) also ships a ``conftest.py``, because the flat module
namespace can only hold one module called ``conftest``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.kernels.engine import sddmm_batched, spmm_batched
from repro.ops import segment_ids, segment_softmax
from repro.precision.types import Precision, quantize
from repro.serve.program import attention_csr, gather_edge_values


def random_csr(
    n_rows: int,
    n_cols: int,
    density: float,
    seed: int = 0,
    ensure_nonempty: bool = True,
) -> CSRMatrix:
    """Random CSR matrix helper used across test modules."""
    matrix = sp.random(n_rows, n_cols, density=density, format="csr", random_state=seed)
    matrix.data = np.abs(matrix.data) + 0.1  # keep values away from zero
    csr = CSRMatrix.from_scipy(matrix)
    if ensure_nonempty and csr.nnz == 0:
        dense = np.zeros((n_rows, n_cols), dtype=np.float32)
        dense[0, 0] = 1.0
        csr = CSRMatrix.from_dense(dense)
    return csr


def csr_with_zero_valued_entries():
    """``(csr, zeroed)``: a canonical CSR whose row 1 is four entries, of
    which column 2 stores an explicit zero and column 5 a value that
    underflows to zero in fp16 — the CSR entries ``zeroed``, which have no
    nonzero lane in the translated format.  Row 7 and column 3 hold no
    entry at all."""
    rng = np.random.default_rng(33)
    dense = rng.standard_normal((40, 36)) * (rng.random((40, 36)) < 0.15)
    dense[[1, 7]], dense[:, 3] = 0.0, 0.0
    dense[1, [0, 2, 5, 9]] = (1.5, 7.0, 1e-9, -2.0)
    csr = CSRMatrix.from_dense(dense)
    data = csr.data.copy()
    lo = int(csr.indptr[1])
    zeroed = lo + np.flatnonzero(np.isin(csr.indices[lo : csr.indptr[2]], (2, 5)))
    data[zeroed[0]] = 0.0
    return CSRMatrix(csr.indptr, csr.indices, data, csr.shape), zeroed


def reference_edge_softmax_forward(logits, indptr) -> np.ndarray:
    """Per-row oracle for the edge softmax: a float64 softmax of every
    row's entries, cast to float32; empty rows stay empty."""
    logits = np.asarray(logits, dtype=np.float64)
    out = np.zeros_like(logits)
    for r in range(len(indptr) - 1):
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        if lo == hi:
            continue
        e = np.exp(logits[lo:hi] - logits[lo:hi].max())
        out[lo:hi] = e / e.sum()
    return out.astype(np.float32)


def reference_edge_softmax_backward(softmax, grad_out, indptr) -> np.ndarray:
    """Per-row oracle for the edge-softmax gradient ``s · (g - <g, s>)``,
    accumulated in float32."""
    grad = np.zeros_like(softmax, dtype=np.float32)
    for r in range(len(indptr) - 1):
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        s, g = softmax[lo:hi], grad_out[lo:hi]
        grad[lo:hi] = s * (g - float((g * s).sum()))
    return grad


def tf32_by_integer_rounding(bits: np.ndarray) -> np.ndarray:
    """Oracle for ``quantize(·, "tf32")`` on float32 bit patterns: split off
    the 13 dropped mantissa bits, compare them with half an ulp (``0x1000``)
    and round the kept part up on "more than half" or on "exactly half with
    an odd kept part", in int64.  A carry out of the mantissa lands in the
    exponent.  Patterns with an all-ones exponent (±inf, NaN) are returned
    unchanged."""
    wide = np.asarray(bits, dtype=np.uint32).astype(np.int64)
    kept, dropped = wide >> 13, wide & 0x1FFF
    up = (dropped > 0x1000) | ((dropped == 0x1000) & (kept % 2 == 1))
    rounded = (kept + up.astype(np.int64)) << 13
    special = (wide >> 23) & 0xFF == 0xFF
    return np.where(special, wide, rounded).astype(np.uint32)


def reference_partition(matrix: CSRMatrix, vector_size: int):
    """Oracle for ``partition_windows``: the nonzero vectors as
    ``np.unique`` of the (window, column) keys, ``entry_slot`` from its
    inverse and ``window_ptr`` from a ``bincount`` of the vectors' windows."""
    from repro.formats.windows import WindowPartition

    n_rows, n_cols = matrix.shape
    num_windows = (n_rows + vector_size - 1) // vector_size if n_rows else 0
    row_of_entry = segment_ids(matrix.indptr)
    key = row_of_entry // vector_size * np.int64(n_cols) + matrix.indices.astype(np.int64)
    unique_keys, inverse = np.unique(key, return_inverse=True)
    window_ptr = np.zeros(num_windows + 1, dtype=np.int64)
    counts = np.bincount((unique_keys // n_cols).astype(np.int64), minlength=num_windows)
    np.cumsum(counts, out=window_ptr[1:])
    return WindowPartition(
        vector_size=vector_size,
        n_rows=n_rows,
        n_cols=n_cols,
        num_windows=num_windows,
        window_ptr=window_ptr,
        vector_cols=(unique_keys % n_cols).astype(np.int32),
        entry_slot=inverse.astype(np.int64) * vector_size + row_of_entry % vector_size,
        nnz=matrix.nnz,
    )


def assert_same_partition(part, oracle) -> None:
    """``part`` and ``oracle`` agree bit for bit, dtypes included."""
    assert (part.num_windows, part.nnz) == (oracle.num_windows, oracle.nnz)
    for name, dtype in (("window_ptr", np.int64), ("vector_cols", np.int32), ("entry_slot", np.int64)):
        got, want = getattr(part, name), getattr(oracle, name)
        assert got.dtype == want.dtype == dtype, (name, got.dtype, want.dtype)
        np.testing.assert_array_equal(got, want, err_msg=name)


def lanes_by_sort(fmt):
    """Oracle for ``BlockedVectorFormat.lanes_as_csr``: every nonzero slot
    of ``vector_values`` (``flatnonzero``), put in row order by one stable
    sort of the row ids — no entry map, no source CSR."""
    from repro.formats.blocked import LaneCSR

    part, v = fmt.partition, fmt.vector_size
    flat_values = np.asarray(fmt.vector_values, dtype=np.float32).reshape(-1)
    slot = np.flatnonzero(flat_values)  # vector · v + lane, ascending
    vector = slot // v
    row = segment_ids(part.window_ptr)[vector] * v + slot % v
    order = np.argsort(row, kind="stable")
    row_offsets = np.zeros(fmt.num_windows * v + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=fmt.num_windows * v), out=row_offsets[1:])
    slot = slot[order]
    return LaneCSR(
        row_offsets=row_offsets,
        columns=part.vector_cols[vector[order]],
        values=flat_values[slot],
        slot=slot,
    )


def csr_by_slot_expansion(fmt) -> CSRMatrix:
    """Oracle for ``BlockedVectorFormat.to_csr``: a COO triplet for every
    slot of every nonzero vector, masked to the nonzero ones on real rows
    and re-sorted by ``CSRMatrix.from_coo``."""
    v = fmt.vector_size
    n_rows = fmt.shape[0]
    if fmt.num_nonzero_vectors == 0:
        return CSRMatrix(
            np.zeros(n_rows + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.float32),
            fmt.shape,
        )
    window_of_vector = segment_ids(fmt.partition.window_ptr)
    rows = (window_of_vector[:, None] * v + np.arange(v)[None, :]).reshape(-1)
    cols = np.repeat(fmt.partition.vector_cols.astype(np.int64), v)
    vals = np.asarray(fmt.vector_values, dtype=np.float64).reshape(-1)
    mask = (vals != 0.0) & (rows < n_rows)
    return CSRMatrix.from_coo(rows[mask], cols[mask], vals[mask], fmt.shape)


def edge_values_by_search(partition, csr: CSRMatrix, vector_values) -> np.ndarray:
    """Oracle for ``gather_edge_values``: each CSR entry's nonzero vector
    found by a binary search for its (window, column) key among the
    partition's vectors, its lane as ``row % v``."""
    v, n_cols = partition.vector_size, csr.shape[1]
    rows = segment_ids(csr.indptr)
    vector_keys = segment_ids(partition.window_ptr) * n_cols + partition.vector_cols
    vector = np.searchsorted(vector_keys, rows // v * n_cols + csr.indices)
    return np.asarray(vector_values, dtype=np.float32)[vector, rows % v]


def run_sharded(
    op_name: str,
    fmt,
    csr: CSRMatrix,
    operands,
    params: dict,
    group: int | None = None,
    shards: int = 1,
    target_blocks: int | None = None,
) -> np.ndarray:
    """One request through the engine's shard table, in process: plan →
    (slice → run → place) per window-aligned range — what every carrier
    (pool, cluster, in-parent fallback) does, minus the carrier.  ``csr``
    is the matrix ``fmt`` translates, whose lane arrays the shards slice.
    An SDDMM result, one value per CSR entry, is scattered into the
    ``vector_values`` layout as both schedulers scatter it."""
    from repro.kernels.engine import SHARD_OPS, lane_cache

    op = SHARD_OPS[op_name]
    ranges, out_shape = op.plan(fmt, operands, group, shards, target_blocks)
    out = np.zeros(out_shape, dtype=np.float32)
    arrays = (csr.indptr, csr.indices, csr.data)
    source = op.lanes(lane_cache(), csr.content_key(), arrays, params["precision"])
    for r in ranges:
        sliced = op.slice(source, r, fmt.vector_size)
        outputs, _ = op.run(sliced, operands, params)
        op.place(out, sliced, outputs)
    return fmt.partition.scatter(out[:, 0], np.float32) if op.sddmm else out


def composed_layer(
    csr: CSRMatrix,
    a,
    b,
    x,
    scale: float | None = None,
    scale_by_mask: bool = False,
    precision="fp16",
    fmt_cls=MEBCRSMatrix,
) -> np.ndarray:
    """Oracle of the fused attention layer: the three one-shot kernels it
    fuses, run one after another in process — SDDMM over ``fmt_cls``'s
    translation of ``csr``, its values gathered into CSR entry order, times
    the float32 ``scale``, a per-row softmax, and an SpMM over the attention
    matrix (``attention_csr``, translated afresh).  The dense operands are
    quantised to ``precision`` as the server quantises them.  Every fused
    executor — shard table, scheduler, server, cluster, GNN backend — must
    match it bit for bit."""
    precision = Precision(precision)
    a_q, b_q, x_q = (quantize(np.asarray(m), precision) for m in (a, b, x))
    fmt = fmt_cls.from_csr(csr, precision=precision)
    scores = sddmm_batched(fmt, a_q, b_q, scale_by_mask)
    logits = gather_edge_values(fmt.partition, csr.indptr, scores)
    if scale is not None:
        logits = (logits * np.float32(scale)).astype(np.float32)
    attention = attention_csr(csr, segment_softmax(logits, csr.indptr))
    return spmm_batched(fmt_cls.from_csr(attention, precision=precision), x_q, precision)


def raw_frame(
    version: int, header: dict, buffers=(), n_bufs: int | None = None, trailers: bool = True
) -> bytes:
    """A wire frame written by hand: any version byte, array descriptors
    exactly as given in ``header["arrays"]``, a buffer count that need not
    match the buffers that follow, and each buffer's CRC32 trailer unless
    ``trailers=False`` — what a foreign or hostile peer could send."""
    import json
    import zlib

    from repro.cluster.transport import _BUF_LEN, _CRC, _PREFIX, MAGIC

    raw = json.dumps(header, separators=(",", ":")).encode()
    count = len(buffers) if n_bufs is None else n_bufs
    out = _PREFIX.pack(MAGIC, version, count, len(raw)) + raw
    for buf in buffers:
        out += _BUF_LEN.pack(len(buf)) + bytes(buf)
        if trailers:
            out += _CRC.pack(zlib.crc32(bytes(buf)))
    return out


def scripted_worker(on_task=None, on_shutdown=None):
    """Start a fake worker host that speaks the real handshake, answers
    pings honestly, and hands ``task`` / ``shutdown`` frames to the given
    ``callback(conn, header)`` scripts (default: the honest ``bye``; tasks
    need a script — a task's pushed bundles are read and dropped).  Serves
    connections until a shutdown frame; returns ``(address, thread)``.
    """
    import socket
    import threading

    from repro.cluster.transport import (
        TransportError,
        recv_message,
        send_message,
        server_handshake,
    )

    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener:
            while True:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(30)
                    try:
                        server_handshake(conn)
                        while True:
                            header, _, _ = recv_message(conn)
                            kind = header["type"]
                            if kind == "ping":
                                send_message(conn, {"type": "pong", "store_keys": []})
                            elif kind == "shutdown":
                                if on_shutdown is None:
                                    send_message(conn, {"type": "bye"})
                                else:
                                    on_shutdown(conn, header)
                                return
                            else:
                                on_task(conn, header)
                    except (TransportError, OSError):
                        continue  # the head hung up: back to accept

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname(), thread

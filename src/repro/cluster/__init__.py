"""Multi-host sharded serving over a TCP shard transport.

This package scales the serving subsystem past one machine: a head process
(:class:`~repro.cluster.head.ClusterScheduler`) routes window-aligned
shards of each SpMM / SDDMM to worker hosts
(:mod:`repro.cluster.worker`) over a length-prefixed binary frame
protocol (:mod:`repro.cluster.transport` — raw ndarray buffers, no
pickle), reassembles the shard results without any shared output buffer
(:mod:`repro.cluster.assembly`), and treats failure as a normal operating
mode: hosts move through a HEALTHY → SUSPECT → DEAD → RECOVERING health
state machine (:mod:`repro.cluster.membership`), transient transport
failures are retried with bounded exponential backoff
(:class:`~repro.cluster.transport.RetryPolicy`), dead hosts' shards are
re-dispatched to survivors (in-parent as the last resort) and later
readmitted by a background probe, and the fleet itself is mutable at
runtime (``add_host`` / ``remove_host``).  The wire itself is trusted:
connections clear an authenticated HELLO/CHALLENGE handshake (optionally
under TLS) before any frame flows, and every payload buffer carries a
CRC32 trailer, computed and checked as the bytes stream — corruption
surfaces as
:class:`~repro.cluster.transport.FrameIntegrityError` and is recovered
through the same retry machinery, never silently computed on.  Routing is
by matrix content key under rendezvous
hashing, so every host's own lane cache serves repeat requests for "its"
matrices — the multi-host analogue of the serving frontend's
content-keyed translation dedup.  On top of that, the data plane
pushes matrix and operand bytes **once per (host, store key)**, inside the
first task frame that needs them (:mod:`repro.cluster.store`): workers
pin pushed bundles in a byte-budgeted
:class:`~repro.cluster.store.PinnedStore` and later task frames reference
them by key — a ``store_miss`` after eviction or a cold restart is
recovered by re-pushing, never by failing the request.

The serving frontend consumes it as a backend::

    with repro.start_server(backend="cluster", hosts=2) as server:
        result = server.submit_spmm(matrix, b).result()

keeping bounded admission, deadlines, the crash guard and
``ServeMetrics`` unchanged; :class:`~repro.cluster.metrics.ClusterMetrics`
adds the distributed signals (per-host tasks, failovers, remote cache hit
rates, transport bytes).

In tests and benchmarks the hosts are loopback subprocesses; on real
machines run ``python -m repro.cluster.worker`` per host and hand the
addresses to :class:`ClusterScheduler`.
"""

from repro.cluster.assembly import SpmmAssembly
from repro.cluster.errors import (
    AssemblyError,
    ClusterError,
    HostDeadError,
    MembershipError,
    WorkerTaskError,
)
from repro.cluster.head import ClusterScheduler, HostState, rendezvous_rank
from repro.cluster.membership import HostHealth, MembershipProbe
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.store import (
    PinnedStore,
    StoreMissError,
    make_store_key,
    operand_store_key,
)
from repro.cluster.transport import (
    AuthenticationError,
    ConnectionClosedError,
    FrameIntegrityError,
    FrameTooLargeError,
    HandshakeError,
    RetryPolicy,
    TransportError,
    VersionMismatchError,
    client_handshake,
    make_client_ssl_context,
    make_server_ssl_context,
    recv_message,
    send_message,
    server_handshake,
)
from repro.cluster.worker import WorkerHost, run_worker

__all__ = [
    "AssemblyError",
    "AuthenticationError",
    "ClusterError",
    "ClusterMetrics",
    "ClusterScheduler",
    "ConnectionClosedError",
    "FrameIntegrityError",
    "FrameTooLargeError",
    "HandshakeError",
    "HostDeadError",
    "HostHealth",
    "HostState",
    "MembershipError",
    "MembershipProbe",
    "PinnedStore",
    "RetryPolicy",
    "SpmmAssembly",
    "StoreMissError",
    "TransportError",
    "VersionMismatchError",
    "WorkerHost",
    "WorkerTaskError",
    "client_handshake",
    "make_client_ssl_context",
    "make_server_ssl_context",
    "make_store_key",
    "operand_store_key",
    "recv_message",
    "rendezvous_rank",
    "run_worker",
    "send_message",
    "server_handshake",
]

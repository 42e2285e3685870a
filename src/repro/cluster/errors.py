"""Cluster failure taxonomy.

The cluster layer distinguishes the failures the head must *recover from*
(a host died — re-dispatch its shards to survivors) from the failures it
must *propagate* (the shard computation itself raised — deterministic, so
retrying elsewhere reproduces it) and the failures that indicate a head
bug (shard results that do not reassemble into a complete output).

Everything derives from :class:`ClusterError`, which derives from the
serving layer's :class:`~repro.serve.errors.ServeError` (defined below
both packages, in :mod:`repro.utils.errors`) so cluster-backed servers
keep the one failure taxonomy clients already dispatch on.

The *wire-level* failures live in :mod:`repro.cluster.transport` and are
re-exported here for one-stop imports: :class:`TransportError` (and its
``ConnectionClosedError`` / ``FrameTooLargeError`` refinements), plus the
trusted-data-plane taxonomy — :class:`FrameIntegrityError` (a payload
failed its CRC32), :class:`HandshakeError` and its
:class:`AuthenticationError` / :class:`VersionMismatchError` refinements.
These deliberately do **not** derive from :class:`ClusterError`: they are
peer-to-peer stream conditions the head converts into recovery actions
(retry, SUSPECT, failover) rather than failures a serving client sees.

:class:`~repro.cluster.store.StoreMissError` (re-exported from
:mod:`repro.cluster.store`) sits in the same recovery-not-failure camp: a
worker raising it answers the head with a ``store_miss`` frame, and the
head re-pushes the pinned bytes under its retry budget — it never
propagates to a serving client either.
"""

from __future__ import annotations

from repro.cluster.store import StoreMissError  # noqa: F401 - re-exported
from repro.cluster.transport import (  # noqa: F401 - re-exported taxonomy
    AuthenticationError,
    ConnectionClosedError,
    FrameIntegrityError,
    FrameTooLargeError,
    HandshakeError,
    TransportError,
    VersionMismatchError,
)
from repro.utils.errors import ServeError


class ClusterError(ServeError):
    """Base class for every cluster-layer failure."""


class HostDeadError(ClusterError):
    """The worker host died (connection error or heartbeat timeout).

    Raised internally per in-flight shard; the head catches it and
    re-dispatches the shard to a surviving host, so it only escapes to a
    caller when *no* host (and no in-parent fallback) could run the work.
    """


class WorkerTaskError(ClusterError):
    """The shard computation raised on the worker host.

    The remote traceback travels in the message.  Unlike
    :class:`HostDeadError` this is not retried on another host: shard
    execution is deterministic, so a computation error reproduces anywhere.
    """


class MembershipError(ClusterError):
    """A runtime membership operation was invalid.

    Raised by ``add_host`` / ``remove_host`` for duplicate or unknown host
    ids and for operations against a closed cluster — programming errors at
    the call site, never a recoverable runtime condition.
    """


class AssemblyError(ClusterError):
    """Shard results do not reassemble into a complete, disjoint output.

    Overlapping row ranges, duplicate shard ids or missing shards all mean
    the head's bookkeeping is broken — never silently return a partially
    written output.
    """

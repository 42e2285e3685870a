"""Cluster observability: per-host health, task counters, failure forensics.

The head records what the single-host scheduler's ``stats`` dict recorded
(requests, shards) plus the distributed-only signals: which host ran which
shard, how many shards were re-dispatched after a host death, how often the
head fell back to in-parent execution, and the transport byte volume.  Each
worker host additionally reports its own lane-cache counters in
every result and pong frame; the head keeps the latest per host, so the
**remote cache hit rate** — the payoff of content-key affinity routing —
is observable without a side channel (the cache-affinity benchmark gate
reads it from here).

On top of the PR-5 counters, the fault-tolerance layer records the full
health state machine per host (current state, state-transition counters,
cumulative time in each state), the retry/backoff activity (reconnect
attempts and successes, probe re-dials, readmissions), membership changes
(hosts added/removed at runtime), oversized-frame rejections, and — so
post-mortems don't require log archaeology — a **failure record** per host
death: the exception that caused it, the wall-clock timestamp, and a
description of the task that was in flight.  A bounded ``death_log`` keeps
the most recent records cluster-wide.

Everything is lock-guarded: host client threads record sends/results while
request threads record failovers, the probe thread records re-dials and
observers snapshot.
"""

from __future__ import annotations

import threading
import time
from dataclasses import fields

from repro.formats.cache import CacheStats

#: Most recent host-death records kept in the cluster-wide post-mortem log.
DEATH_LOG_CAPACITY = 32


class ClusterMetrics:
    """Mutable cluster counters shared by the head's threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "shards": 0,
            "tasks_sent": 0,
            "tasks_completed": 0,
            "task_failures": 0,
            "host_deaths": 0,
            "failovers": 0,
            "shards_failed_over": 0,
            "inline_fallbacks": 0,
            "heartbeats": 0,
            "heartbeat_failures": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
            # Fault-tolerance layer (PR 6).
            "state_transitions": 0,
            "reconnect_attempts": 0,
            "reconnects": 0,
            "probe_dials": 0,
            "hosts_readmitted": 0,
            "hosts_added": 0,
            "hosts_removed": 0,
            "frames_oversized": 0,
            # Trusted data plane (PR 7).  The three security counters here
            # hold what the *head* detected; ``snapshot()`` adds the
            # worker-reported tallies (which travel in result/pong frames)
            # on top, so the snapshot totals cover both ends of the wire.
            "integrity_failures": 0,
            "auth_rejects": 0,
            "handshake_failures": 0,
            # Matrix push/pin: ``store_puts`` / ``store_put_bytes`` count the
            # bundles task frames pushed.  ``bytes_saved`` is the payload
            # volume tasks referenced by store key instead of shipping
            # again — the push/pin payoff, directly.
            "store_puts": 0,
            "store_put_bytes": 0,
            "store_hits": 0,
            "store_misses": 0,
            "bytes_saved": 0,
        }
        self._per_host: dict[str, dict] = {}
        self._death_log: list[dict] = []
        #: Byte totals split by frame type (``task``, ``result``,
        #: ``store_miss``, ``control`` …), each frame counted once under its
        #: own type; ``store_put_bytes`` is the share of ``task`` that
        #: pushed bundles.
        self._bytes_by_frame_type: dict[str, dict] = {}

    # -------------------------------------------------------------- recorders
    def _host(self, host_id: str) -> dict:
        entry = self._per_host.get(host_id)
        if entry is None:
            entry = {
                "tasks_sent": 0,
                "tasks_completed": 0,
                "alive": True,
                "cache": None,
                "state": "healthy",
                "state_since": time.monotonic(),
                "time_in_state": {},
                "transitions": {},
                "reconnect_attempts": 0,
                "reconnects": 0,
                "last_failure": None,
                "integrity_failures": 0,
                "auth_rejects": 0,
                "handshake_failures": 0,
                #: Latest worker-side security counters (from status frames).
                "remote_security": None,
                #: Latest worker-side pin-store gauges (from status frames):
                #: pinned_bytes/budget_bytes/entries plus put/hit/miss/
                #: eviction counters.
                "store": None,
                #: Head-side push/pin activity against this host.
                "store_puts": 0,
                "store_hits": 0,
                "store_misses": 0,
                "bytes_saved": 0,
            }
            self._per_host[host_id] = entry
        return entry

    def record_request(self, shards: int) -> None:
        """One ``run_spmm``/``run_sddmm`` call dispatching ``shards`` shards."""
        with self._lock:
            self._counters["requests"] += 1
            self._counters["shards"] += int(shards)

    def _frame_bytes(self, frame_type: str, sent: int = 0, received: int = 0) -> None:
        """Tally bytes under a frame-type bucket; called under the lock."""
        bucket = self._bytes_by_frame_type.setdefault(
            frame_type, {"sent": 0, "received": 0}
        )
        bucket["sent"] += int(sent)
        bucket["received"] += int(received)

    def record_task_sent(self, host_id: str, nbytes: int) -> None:
        """One shard task written to ``host_id``'s stream."""
        with self._lock:
            self._counters["tasks_sent"] += 1
            self._counters["bytes_sent"] += int(nbytes)
            self._frame_bytes("task", sent=nbytes)
            self._host(host_id)["tasks_sent"] += 1

    def record_task_completed(
        self,
        host_id: str,
        nbytes: int,
        cache: dict | None,
        security: dict | None = None,
        store: dict | None = None,
    ) -> None:
        """One shard result read back from ``host_id`` (with its latest
        lane-cache, security and pin-store counters, when the worker
        attached them)."""
        with self._lock:
            self._counters["tasks_completed"] += 1
            self._counters["bytes_received"] += int(nbytes)
            self._frame_bytes("result", received=nbytes)
            entry = self._host(host_id)
            entry["tasks_completed"] += 1
            if cache is not None:
                entry["cache"] = dict(cache)
            if security is not None:
                entry["remote_security"] = dict(security)
            if store is not None:
                entry["store"] = dict(store)

    def record_task_failure(self, host_id: str) -> None:
        """One shard task that failed on ``host_id`` (host death or remote
        error) before delivering a result."""
        with self._lock:
            self._counters["task_failures"] += 1
            self._host(host_id)

    def record_state_transition(self, host_id: str, old: str, new: str) -> None:
        """``host_id`` moved ``old → new`` in the health state machine."""
        now = time.monotonic()
        with self._lock:
            entry = self._host(host_id)
            in_state = entry["time_in_state"]
            in_state[old] = in_state.get(old, 0.0) + max(0.0, now - entry["state_since"])
            entry["state"] = new
            entry["state_since"] = now
            edge = f"{old}->{new}"
            entry["transitions"][edge] = entry["transitions"].get(edge, 0) + 1
            entry["alive"] = new != "dead"
            self._counters["state_transitions"] += 1

    def record_reconnect_attempt(self, host_id: str, ok: bool) -> None:
        """One backoff re-dial of a SUSPECT host (and whether it connected)."""
        with self._lock:
            self._counters["reconnect_attempts"] += 1
            entry = self._host(host_id)
            entry["reconnect_attempts"] += 1
            if ok:
                self._counters["reconnects"] += 1
                entry["reconnects"] += 1

    def record_probe_dial(self, host_id: str, ok: bool) -> None:
        """One membership-probe re-dial of a DEAD host."""
        with self._lock:
            self._counters["probe_dials"] += 1
            self._host(host_id)

    def record_readmission(self, host_id: str) -> None:
        """A DEAD host came back: probe re-dial + warm-up ping succeeded."""
        with self._lock:
            self._counters["hosts_readmitted"] += 1
            self._host(host_id)

    def record_host_added(self, host_id: str) -> None:
        """A host joined the running cluster via ``add_host``."""
        with self._lock:
            self._counters["hosts_added"] += 1
            self._host(host_id)

    def record_host_removed(self, host_id: str) -> None:
        """A host left the running cluster via ``remove_host``."""
        with self._lock:
            self._counters["hosts_removed"] += 1
            entry = self._per_host.get(host_id)
            if entry is not None:
                entry["alive"] = False
                entry["state"] = "removed"

    def record_oversized_frame(self, host_id: str | None = None) -> None:
        """A peer declared a frame over the per-connection byte limit."""
        with self._lock:
            self._counters["frames_oversized"] += 1
            if host_id is not None:
                self._host(host_id)

    def record_transport_bytes(
        self,
        host_id: str | None = None,
        sent: int = 0,
        received: int = 0,
        frame_type: str = "control",
    ) -> None:
        """Raw bytes that crossed a host's socket outside a counted frame.

        Handshake/auth exchanges, heartbeat pings/pongs, and the partial
        bytes of a frame that was subsequently *rejected* (integrity or
        size failure) all go through here, so the snapshot's byte totals
        reconcile with what actually crossed the wire — not just with the
        frames that parsed.  ``frame_type`` buckets the volume in
        ``bytes_by_frame_type`` (default ``"control"``).
        """
        if not sent and not received:
            return
        with self._lock:
            self._counters["bytes_sent"] += int(sent)
            self._counters["bytes_received"] += int(received)
            self._frame_bytes(frame_type, sent=sent, received=received)
            if host_id is not None:
                self._host(host_id)

    def record_store_put(self, host_id: str, nbytes: int) -> None:
        """One bundle of ``nbytes`` payload bytes pushed to ``host_id``.

        The bundle rode a task frame, whose bytes :meth:`record_task_sent`
        already counted under ``task``; this counts the push itself.
        """
        with self._lock:
            self._counters["store_puts"] += 1
            self._counters["store_put_bytes"] += int(nbytes)
            self._host(host_id)["store_puts"] += 1

    def record_store_hit(self, host_id: str, bytes_saved: int) -> None:
        """One task referenced ``host_id``'s pinned bytes instead of
        embedding them; ``bytes_saved`` is the payload volume not shipped."""
        with self._lock:
            self._counters["store_hits"] += 1
            self._counters["bytes_saved"] += int(bytes_saved)
            entry = self._host(host_id)
            entry["store_hits"] += 1
            entry["bytes_saved"] += int(bytes_saved)

    def record_store_miss(self, host_id: str) -> None:
        """``host_id`` answered ``store_miss`` — the head re-pushes."""
        with self._lock:
            self._counters["store_misses"] += 1
            self._host(host_id)["store_misses"] += 1

    def record_integrity_failure(self, host_id: str) -> None:
        """A frame from ``host_id`` failed its payload CRC32 check."""
        with self._lock:
            self._counters["integrity_failures"] += 1
            self._host(host_id)["integrity_failures"] += 1

    def record_handshake_failure(self, host_id: str, auth: bool = False) -> None:
        """A connection handshake with ``host_id`` failed.

        ``auth=True`` marks a rejected credential (wrong/missing token);
        everything else — version mismatch, protocol garbage, TLS or
        stream loss mid-handshake — counts as a plain handshake failure.
        The two are disjoint.
        """
        with self._lock:
            entry = self._host(host_id)
            if auth:
                self._counters["auth_rejects"] += 1
                entry["auth_rejects"] += 1
            else:
                self._counters["handshake_failures"] += 1
                entry["handshake_failures"] += 1

    def record_host_death(
        self,
        host_id: str,
        cause: BaseException | str | None = None,
        in_flight: str | None = None,
    ) -> None:
        """``host_id`` was declared DEAD.

        ``cause`` is the exception (or description) behind the final failed
        attempt and ``in_flight`` describes the task that was on the wire,
        so a post-mortem reads the *why* straight out of
        ``stats_snapshot()`` instead of log archaeology.
        """
        record = {
            "host": host_id,
            "cause": None if cause is None else str(cause) or repr(cause),
            "cause_type": type(cause).__name__ if isinstance(cause, BaseException) else None,
            "at_unix": time.time(),
            "in_flight": in_flight,
        }
        with self._lock:
            self._counters["host_deaths"] += 1
            entry = self._host(host_id)
            entry["alive"] = False
            entry["last_failure"] = dict(record)
            self._death_log.append(record)
            del self._death_log[:-DEATH_LOG_CAPACITY]

    def record_failover(self, shards: int) -> None:
        """``shards`` in-flight shards re-dispatched after a host death."""
        with self._lock:
            self._counters["failovers"] += 1
            self._counters["shards_failed_over"] += int(shards)

    def record_inline_fallback(self, shards: int) -> None:
        """``shards`` shards the head executed in-parent (no live host)."""
        with self._lock:
            self._counters["inline_fallbacks"] += int(shards)

    def record_heartbeat(
        self,
        host_id: str,
        ok: bool,
        cache: dict | None = None,
        security: dict | None = None,
        store: dict | None = None,
    ) -> None:
        """One ping/pong exchange with ``host_id`` (or its failure)."""
        with self._lock:
            self._counters["heartbeats"] += 1
            if not ok:
                self._counters["heartbeat_failures"] += 1
                return
            entry = self._host(host_id)
            if cache is not None:
                entry["cache"] = dict(cache)
            if security is not None:
                entry["remote_security"] = dict(security)
            if store is not None:
                entry["store"] = dict(store)

    # -------------------------------------------------------------- snapshots
    def snapshot(self) -> dict:
        """Consistent copy of every counter plus the per-host breakdown.

        Each host entry's ``time_in_state`` includes the still-running
        tally for its *current* state, so dashboards read real durations
        without waiting for the next transition.
        """
        now = time.monotonic()
        with self._lock:
            snap = dict(self._counters)
            hosts: dict[str, dict] = {}
            for host_id, entry in self._per_host.items():
                view = dict(entry)
                view["cache"] = dict(entry["cache"]) if entry["cache"] else None
                view["transitions"] = dict(entry["transitions"])
                view["last_failure"] = (
                    dict(entry["last_failure"]) if entry["last_failure"] else None
                )
                remote = entry["remote_security"]
                view["remote_security"] = dict(remote) if remote else None
                view["store"] = dict(entry["store"]) if entry["store"] else None
                in_state = dict(entry["time_in_state"])
                state = entry["state"]
                in_state[state] = in_state.get(state, 0.0) + max(
                    0.0, now - entry["state_since"]
                )
                view["time_in_state"] = in_state
                view.pop("state_since", None)
                hosts[host_id] = view
                # Fold the worker-reported security tallies into the
                # top-level totals: the head can only *see* corruption on
                # frames it receives — what each worker detected on its
                # inbound side travels back as a gauge and is summed here.
                if remote:
                    for key in ("integrity_failures", "auth_rejects", "handshake_failures"):
                        snap[key] += int(remote.get(key, 0))
            snap["hosts"] = hosts
            snap["death_log"] = [dict(r) for r in self._death_log]
            snap["bytes_by_frame_type"] = {
                frame_type: dict(bucket)
                for frame_type, bucket in self._bytes_by_frame_type.items()
            }
            return snap

    def remote_cache_stats(self) -> CacheStats:
        """Aggregate of the latest per-host lane-cache counters.

        A worker keeps each pinned matrix's lane arrays
        (:func:`repro.kernels.engine.csr_lanes`) per values and precision
        in a small LRU, so this is the cache-affinity signal: under
        content-key routing a repeat-matrix workload should show a high
        remote hit rate because every request for a matrix lands on the
        host that already built its lanes.  Only ``hits``, ``misses``,
        ``evictions`` and ``size`` are counted there; the other fields
        stay zero.
        """
        totals = {counter.name: 0 for counter in fields(CacheStats)}
        with self._lock:
            for entry in self._per_host.values():
                cache = entry["cache"]
                if not cache:
                    continue
                for key in totals:
                    totals[key] += int(cache.get(key, 0))
        return CacheStats(**totals)

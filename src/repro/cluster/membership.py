"""Live cluster membership: host health states and the readmission probe.

Host failure is a *normal operating mode* of the cluster, not a terminal
event.  Every worker host moves through a small state machine::

                 transient transport failure
        HEALTHY ────────────────────────────► SUSPECT
           ▲                                     │
           │ reconnected (backoff attempt)       │ RetryPolicy exhausted
           │                                     ▼
        RECOVERING ◄──────────────────────────  DEAD
                     probe re-dial succeeded
        (RECOVERING ──► HEALTHY after the cache warm-up ping)

* **HEALTHY** — the long-lived connection is up; the host takes shards.
* **SUSPECT** — the connection just failed with a transient error
  (connect refused, timeout, reset).  The host client is re-dialling
  under its :class:`~repro.cluster.transport.RetryPolicy`; queued shards
  wait and the in-flight shard is resent on the fresh connection, while
  new work goes to a HEALTHY host when one exists.  A blip no longer
  costs the host forever.
* **DEAD** — every backoff attempt failed.  Pending shards have been
  failed over down the rendezvous order; the host takes no traffic.
* **RECOVERING** — the membership probe re-dialled a DEAD host
  successfully.  The fresh client sends a cache warm-up ping (which also
  pulls the host's lane-cache counters **and re-warms the pinned
  store ledger from the pong's key inventory** — a worker that survived
  the outage keeps its pushed matrices; a restarted cold process reports
  an empty inventory and is re-pushed on first use) before the host is
  readmitted as HEALTHY; rendezvous routing then naturally restores its
  affinity keys.

Probe re-dials go through the same dial path as every other connection,
so they clear TLS and the authenticated HELLO/CHALLENGE handshake too: a
host that stops presenting the shared token (or a rogue process squatting
on a dead host's port) cannot be readmitted — the failed handshake is
recorded and the host stays DEAD.

The :class:`MembershipProbe` is the background thread behind the DEAD →
RECOVERING edge: it periodically re-dials DEAD hosts through
:meth:`ClusterScheduler.try_readmit`.  Runtime membership changes —
``add_host`` / ``remove_host`` — live on the scheduler itself; this module
only owns the state vocabulary and the probe loop, so it stays importable
from both the head and the metrics layer without cycles.
"""

from __future__ import annotations

import enum
import threading

#: Default gap between probe sweeps over the DEAD host set.
DEFAULT_PROBE_INTERVAL_S = 1.0


class HostHealth(enum.Enum):
    """Health of one worker host as the head sees it (see module doc)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"
    RECOVERING = "recovering"

    def __str__(self) -> str:  # "healthy", not "HostHealth.HEALTHY", in logs
        return self.value


#: States in which a host may be handed new shard submissions.  SUSPECT is
#: included: the client is re-dialling and will run (or fail over) whatever
#: is queued, so routing does not flap on a sub-second blip.
ACCEPTING_STATES = frozenset(
    {HostHealth.HEALTHY, HostHealth.RECOVERING, HostHealth.SUSPECT}
)

#: States preferred by affinity routing — a SUSPECT host only receives new
#: work when no non-suspect host is available for the key.
PREFERRED_STATES = frozenset({HostHealth.HEALTHY, HostHealth.RECOVERING})


class MembershipProbe(threading.Thread):
    """Background thread that re-dials DEAD hosts and readmits them.

    Every ``interval_s`` it sweeps the scheduler's host table and calls
    :meth:`ClusterScheduler.try_readmit` for each DEAD, non-removed host.
    Readmission is the scheduler's job (fresh client, warm-up ping, state
    swap); the probe only provides the periodic impulse.  The thread is a
    daemon and stops promptly via :meth:`stop` (the scheduler's ``close``
    calls it before tearing hosts down).
    """

    def __init__(self, scheduler, interval_s: float = DEFAULT_PROBE_INTERVAL_S):
        super().__init__(name="repro-cluster-probe", daemon=True)
        if interval_s <= 0:
            raise ValueError("probe interval_s must be > 0")
        self.scheduler = scheduler
        self.interval_s = float(interval_s)
        # Not named ``_stop``: Thread.join() calls a private ``_stop()``
        # method internally, which an Event attribute would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            for state in self.scheduler.dead_hosts():
                if self._halt.is_set():
                    return
                try:
                    self.scheduler.try_readmit(state)
                except Exception:  # pragma: no cover - probe must never die
                    # A failed probe attempt is already recorded in metrics;
                    # anything unexpected must not kill the probe loop (a
                    # dead probe would silently disable readmission).
                    pass

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Ask the probe loop to exit and join it (bounded)."""
        self._halt.set()
        if self.is_alive():
            self.join(timeout=join_timeout_s)

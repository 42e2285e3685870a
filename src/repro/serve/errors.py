"""Serving failure taxonomy.

Every error the serving frontend raises (or resolves a future with)
derives from :class:`ServeError`, which itself derives from
``RuntimeError`` so pre-existing callers that caught ``RuntimeError``
around ``submit_*`` keep working.  ``ServeError`` is defined in
:mod:`repro.utils.errors`, below both this package and
:mod:`repro.cluster`, whose :class:`~repro.cluster.errors.ClusterError`
derives from it too.  The subclasses separate the overload/lifecycle
outcomes a client must tell apart:

* :class:`ServerOverloadedError` — admission control turned the request
  away at submit time (``max_queue_depth`` reached under the ``"reject"``
  policy).  The request never entered the queue; retry against another
  replica or with backoff.
* :class:`ServeTimeoutError` — the request's deadline expired while it was
  still queued, so the server shed it *before* execution (computing a
  result nobody is waiting for only deepens an overload), or a
  ``close(timeout=...)`` drain did not finish in time.  Also a
  ``TimeoutError`` so generic timeout handlers see it.
* :class:`ServerClosedError` — submitted after :meth:`Server.close`.
* :class:`DispatcherCrashedError` — the dispatch thread died; the original
  failure is attached as ``__cause__``.  Every queued/pending future is
  failed with this instead of being stranded, and the server's
  ``healthy`` flag flips so subsequent submits fail fast.
"""

from __future__ import annotations

from repro.utils.errors import ServeError


class ServerOverloadedError(ServeError):
    """Admission control rejected the request: the queue is full."""


class ServeTimeoutError(ServeError, TimeoutError):
    """A request deadline (or a ``close`` drain deadline) expired."""


class ServerClosedError(ServeError):
    """The server no longer accepts requests."""


class DispatcherCrashedError(ServeError):
    """The dispatch thread died; see ``__cause__`` for the original error."""

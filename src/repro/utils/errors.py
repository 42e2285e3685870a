"""The base of the serving and cluster failure taxonomies.

It sits below both packages, so :mod:`repro.cluster.errors` derives its
:class:`~repro.cluster.errors.ClusterError` from it without importing
:mod:`repro.serve`; clients reach it as :class:`repro.serve.ServeError`.
"""

from __future__ import annotations


class ServeError(RuntimeError):
    """Base class for every serving-layer failure."""

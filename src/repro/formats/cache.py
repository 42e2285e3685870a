"""LRU cache for CSR → blocked-format translations.

The kernel entry points accept plain CSR matrices and translate them on the
fly (the paper's preprocessing kernel).  Call sites that sweep the same
matrix repeatedly — GNN training loops estimating per-epoch kernel times,
benchmark sweeps over dense widths/devices, serving frontends replaying the
same graph for every request — would otherwise re-run the translation on
every call.  This module memoises the translations keyed by the *identity*
of the CSR object: each cache entry keeps a strong reference to its source
matrix, so a key can never alias a different matrix whose id was recycled.

The key also fingerprints the three CSR array buffers (their base addresses
and nnz), so rebinding ``matrix.data``/``indices``/``indptr`` to new arrays
invalidates the entry.  What the cache cannot see is an *in-place* write to
an existing buffer (``matrix.data[k] = v``): that mutation returns stale
translations until :func:`clear_format_cache` is called or a fresh CSRMatrix
is built.  Every producer in this codebase treats CSR matrices as immutable
after construction.

Content-hash keying
-------------------
Passing ``by_content=True`` additionally keys the translation by
:meth:`~repro.formats.csr.CSRMatrix.content_key` — a digest over the CSR
arrays and shape — so two *equal* matrices loaded independently (the same
graph deserialised twice, replicas in a serving fleet) share one
translation.  Identity lookup stays the fast path: the O(nnz) hash runs
only on the first identity miss of a given object, after which the object's
identity key aliases the shared entry.  The serving subsystem
(:mod:`repro.serve`) plans from the pattern instead: the plan, the cost
pass and the SDDMM scatter read the window partition only, so the server
takes a values-free record of it (:func:`pattern_format`) and translates
no values.  No shard reads a translation either (every carrier slices
lane arrays of the request's CSR, :func:`repro.kernels.engine.csr_lanes`),
and a cluster worker host keeps no translation cache at all.

Structure entries
-----------------
A content miss does not start from scratch.  The window partition
(:class:`~repro.formats.windows.WindowPartition`, with its entry map) reads
only ``indptr`` / ``indices``, so it is cached in the same LRU under
``("structure", structure_key, vector_size)`` —
:meth:`~repro.formats.csr.CSRMatrix.structure_key` digests the pattern
alone.  A matrix that keeps a cached pattern and brings new values (an
attention layer's weights, evaluation after evaluation) translates as one
value scatter through the cached entry map: no sort, and the
partition object — with its memo of what the pattern implies (block
indexes, cost counters, serving plans;
:meth:`~repro.formats.windows.WindowPartition.memo`) — is shared by every
translation of the pattern.  Structure entries pin no source matrix.
Identity-only callers never touch them.

The cache is the package's one LRU (:class:`repro.utils.lru.LRU`), every
entry one unit of :data:`FORMAT_CACHE_MAXSIZE`.

Observability
-------------
The cache counts hits, misses and evictions (:meth:`TranslationCache.stats`,
also reachable via the module-level :func:`format_cache_stats`); the serving
metrics (:mod:`repro.serve.metrics`) snapshot these counters per interval to
report translation-dedup effectiveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.formats.blocked import BlockedVectorFormat
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import FLASH_VECTOR_SIZE, MEBCRSMatrix
from repro.formats.sgt16 import SGT16Matrix
from repro.formats.windows import WindowPartition, partition_windows
from repro.gpu.mma import FLASH_SHAPES, block_k
from repro.precision.types import Precision, dtype_for
from repro.utils.lru import LRU

#: Maximum number of cache entries — translations, identity aliases and
#: partitions (each entry pins its source CSR and the translated format in
#: memory, so the cap bounds the working set).
FORMAT_CACHE_MAXSIZE = 32


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot of a :class:`TranslationCache`.

    ``hits`` counts lookups served without running a translation (identity
    hits plus content hits); ``content_hits`` is the subset that was
    deduplicated across distinct-but-equal matrices via the content digest.
    ``misses`` counts translations actually built, ``evictions`` the entries
    dropped by the LRU cap.  ``structure_hits`` counts the misses whose
    window partition came from a structure entry (a values-only refresh);
    ``size`` counts every entry, structure entries included.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    content_hits: int = 0
    size: int = 0
    structure_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (1.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 1.0


class TranslationCache:
    """LRU of CSR → blocked-format translations with hit/miss accounting:
    the package's one LRU (:class:`repro.utils.lru.LRU`), one unit per
    entry, ``maxsize`` units.

    A module-level default instance backs the ``cached_*`` functions; the
    class is separate so tests (and a future per-server cache) can hold an
    isolated instance.  All operations take the LRU's lock — the serving
    frontend looks up translations from its dispatch thread while clients
    submit from theirs.
    """

    def __init__(self, maxsize: int = FORMAT_CACHE_MAXSIZE):
        self.maxsize = int(maxsize)
        #: ``key → (source CSR or None, translation or partition)``.
        self._entries = LRU(self.maxsize)
        self._content_hits = 0
        self._structure_hits = 0

    def lookup(
        self,
        key: tuple,
        source: CSRMatrix,
        build: Callable[[], object],
        content_key: tuple | None = None,
    ):
        """Return the cached translation for ``key``, building it on a miss."""
        entries = self._entries
        with entries.lock:
            entry = entries.get(key)
            if entry is not None and entry[0] is source:
                entries.hits += 1
                return entry[1]
            if content_key is not None:
                # Content entries pin no source: equality is established by
                # the digest, not by object identity, so any equal matrix may
                # hit.
                entry = entries.get(content_key)
                if entry is not None:
                    # Alias this object's identity key to the shared
                    # translation so its next lookup skips the hash entirely.
                    entries.put(key, (source, entry[1]))
                    entries.hits += 1
                    self._content_hits += 1
                    return entry[1]
            fmt = build()
            entries.misses += 1
            entries.put(key, (source, fmt))
            if content_key is not None:
                entries.put(content_key, (None, fmt))
            return fmt

    def partition(self, matrix: CSRMatrix, vector_size: int) -> WindowPartition:
        """``matrix``'s window partition at ``vector_size``, cached under its
        :meth:`~repro.formats.csr.CSRMatrix.structure_key` (see the module
        docstring): built on the pattern's first use, shared after."""
        key = ("structure", matrix.structure_key(), int(vector_size))
        with self._entries.lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._structure_hits += 1
                return entry[1]
            partition = partition_windows(matrix, vector_size)
            self._entries.put(key, (None, partition))
            return partition

    # ------------------------------------------------------------ public API
    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._entries.lock:
            return CacheStats(
                **self._entries.stats(),
                content_hits=self._content_hits,
                structure_hits=self._structure_hits,
            )

    def clear(self) -> None:
        """Drop every cached translation (and the pinned source matrices)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide default cache every kernel entry point goes through.
DEFAULT_CACHE = TranslationCache()


@dataclass(frozen=True)
class FormatKind:
    """One blocked-format kind: its vector size, its ``name`` in cache keys
    and in the ``fmt`` field of a cluster task frame, and the format class
    whose ``from_csr`` translates to it."""

    vector_size: int
    name: str
    format_cls: type


#: The one table of format kinds.  The cached names below, the cluster head
#: (``vector_size`` → wire name) and the worker (wire name → translation)
#: all read it, so a format is never classified by ``isinstance``.
FORMAT_KINDS = (
    FormatKind(8, "mebcrs", MEBCRSMatrix),
    FormatKind(16, "sgt16", SGT16Matrix),
)


def format_kind(key: int | str) -> FormatKind:
    """The format kind with this ``vector_size`` or wire ``name``."""
    for kind in FORMAT_KINDS:
        if key in (kind.vector_size, kind.name):
            return kind
    raise ValueError(f"unknown blocked-format kind {key!r}")


def cached_format(
    matrix: CSRMatrix,
    kind: int | str,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> BlockedVectorFormat:
    """The translation of ``matrix`` into format ``kind`` (a ``vector_size``
    or wire name, see :func:`format_kind`) at ``precision``, memoised.

    ``by_content=True`` lets equal matrices share one translation, and a
    miss reuses the pattern's cached window partition (see the module
    docstring); the default keys by object identity only.  ``cache``
    selects the cache instance (tests and benchmarks pass an isolated one);
    the default is the process-global cache.
    """
    kind = format_kind(kind)
    precision = Precision(precision)
    cache = cache if cache is not None else DEFAULT_CACHE
    identity_key = (
        id(matrix),
        matrix.indptr.ctypes.data,
        matrix.indices.ctypes.data,
        matrix.data.ctypes.data,
        matrix.nnz,
        kind.name,
        precision,
    )

    def build() -> BlockedVectorFormat:
        partition = cache.partition(matrix, kind.vector_size) if by_content else None
        return kind.format_cls.from_csr(matrix, precision=precision, partition=partition)

    return cache.lookup(
        identity_key,
        matrix,
        build,
        ("content", matrix.content_key(), kind.name, precision) if by_content else None,
    )


def cached_mebcrs(
    matrix: CSRMatrix,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> MEBCRSMatrix:
    """The ME-BCRS (8×1) translation of ``matrix``: :func:`cached_format` at 8."""
    return cached_format(matrix, 8, precision, by_content, cache)


def cached_sgt16(
    matrix: CSRMatrix,
    precision: Precision | str,
    by_content: bool = False,
    cache: TranslationCache | None = None,
) -> SGT16Matrix:
    """The SGT (16×1) translation of ``matrix``: :func:`cached_format` at 16."""
    return cached_format(matrix, 16, precision, by_content, cache)


def pattern_format(matrix: CSRMatrix, precision: Precision | str) -> MEBCRSMatrix:
    """``matrix``'s ME-BCRS structure at ``precision`` without its values
    (a read-only zero-stride view of one zero, so its lane view is empty):
    what a plan, a cost pass and an SDDMM scatter read.  Memoised on the
    cached partition, so every matrix of the pattern shares it."""
    precision = Precision(precision)
    partition = DEFAULT_CACHE.partition(matrix, FLASH_VECTOR_SIZE)

    def build() -> MEBCRSMatrix:
        shape = (partition.num_nonzero_vectors, partition.vector_size)
        return MEBCRSMatrix(
            partition=partition,
            vector_values=np.broadcast_to(np.zeros((), dtype_for(precision)), shape),
            k=block_k(FLASH_SHAPES, precision),
            precision=precision,
        )

    return partition.memo(("pattern_format", precision), build)


def clear_format_cache() -> None:
    """Drop every cached translation (and the pinned source matrices)."""
    DEFAULT_CACHE.clear()


def format_cache_stats() -> CacheStats:
    """Hit/miss/eviction snapshot of the default cache."""
    return DEFAULT_CACHE.stats()

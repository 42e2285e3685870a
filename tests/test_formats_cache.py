"""Content-hash keying of the CSR → blocked-format translation cache."""

from __future__ import annotations

import numpy as np

from helpers import random_csr

from repro.formats.cache import (
    TranslationCache,
    cached_mebcrs,
    cached_sgt16,
    clear_format_cache,
    format_cache_stats,
)
from repro.formats.csr import CSRMatrix
from repro.formats.mebcrs import MEBCRSMatrix


def _twin(csr: CSRMatrix) -> CSRMatrix:
    """A structurally equal but distinct CSR object (a second load)."""
    return CSRMatrix(csr.indptr.copy(), csr.indices.copy(), csr.data.copy(), csr.shape)


def setup_function(_):
    clear_format_cache()


def test_content_key_is_stable_and_distinguishes():
    csr = random_csr(64, 60, 0.08, seed=1)
    twin = _twin(csr)
    assert csr.content_key() == twin.content_key()
    assert csr.content_key() == csr.content_key()  # memoised, stable
    other_values = csr.with_values(csr.data + 1.0)
    assert other_values.content_key() != csr.content_key()
    other_shape = CSRMatrix(
        np.append(csr.indptr, csr.nnz), csr.indices, csr.data, (csr.n_rows + 1, csr.n_cols)
    )
    assert other_shape.content_key() != csr.content_key()


def test_by_content_shares_translation_across_equal_matrices():
    csr = random_csr(64, 60, 0.08, seed=2)
    twin = _twin(csr)
    first = cached_mebcrs(csr, "fp16", by_content=True)
    assert cached_mebcrs(twin, "fp16", by_content=True) is first
    # The twin's identity key is aliased to the shared entry afterwards, so
    # even identity-mode lookups now hit.
    assert cached_mebcrs(twin, "fp16") is first


def test_identity_fast_path_unaffected():
    csr = random_csr(48, 48, 0.1, seed=3)
    twin = _twin(csr)
    first = cached_mebcrs(csr, "fp16")
    assert cached_mebcrs(csr, "fp16") is first
    # Pure identity mode still treats the twin as a different matrix.
    assert cached_mebcrs(twin, "fp16") is not first


def test_content_entries_respect_kind_and_precision():
    csr = random_csr(64, 64, 0.08, seed=4)
    twin = _twin(csr)
    me16 = cached_mebcrs(csr, "fp16", by_content=True)
    assert cached_mebcrs(twin, "tf32", by_content=True) is not me16
    sg = cached_sgt16(csr, "tf32", by_content=True)
    assert cached_sgt16(twin, "tf32", by_content=True) is sg
    assert sg is not me16


def test_content_miss_for_different_matrices():
    a = random_csr(64, 64, 0.08, seed=5)
    b = random_csr(64, 64, 0.08, seed=6)
    fa = cached_mebcrs(a, "fp16", by_content=True)
    assert cached_mebcrs(b, "fp16", by_content=True) is not fa


def test_cache_size_counts_alias_entries():
    clear_format_cache()
    csr = random_csr(40, 40, 0.1, seed=7)
    cached_mebcrs(csr, "fp16", by_content=True)
    # One identity entry + one content entry + one structure entry.
    assert format_cache_stats().size == 3
    cached_mebcrs(_twin(csr), "fp16", by_content=True)
    # The twin adds only its identity alias.
    assert format_cache_stats().size == 4
    clear_format_cache()
    assert format_cache_stats().size == 0


def test_stats_count_hits_misses_and_content_hits():
    cache = TranslationCache()
    csr = random_csr(48, 48, 0.1, seed=10)
    base = cache.stats()
    assert base.hits == 0 and base.misses == 0 and base.hit_rate == 1.0

    cached_mebcrs(csr, "fp16", by_content=True, cache=cache)  # miss: builds
    cached_mebcrs(csr, "fp16", cache=cache)  # identity hit
    twin = _twin(csr)
    cached_mebcrs(twin, "fp16", by_content=True, cache=cache)  # content hit (dedup)
    cached_mebcrs(twin, "fp16", cache=cache)  # identity hit via the alias

    stats = cache.stats()
    assert stats.misses == 1
    assert stats.hits == 3
    assert stats.content_hits == 1
    assert stats.lookups == 4
    assert stats.hit_rate == 3 / 4


def test_evictions_are_counted_by_isolated_instance():
    cache = TranslationCache(maxsize=2)
    matrices = [random_csr(16, 16, 0.2, seed=s) for s in range(3)]
    for m in matrices:
        cache.lookup(
            (id(m),), m, lambda m=m: MEBCRSMatrix.from_csr(m, precision="fp16")
        )
    stats = cache.stats()
    assert stats.misses == 3
    assert stats.evictions == 1  # the cap squeezed the first entry out
    assert stats.size == 2
    cache.clear()
    assert len(cache) == 0

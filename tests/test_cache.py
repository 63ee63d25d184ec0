"""Tests for the set-associative LRU cache."""

import pytest

from repro.config import CacheGeometry
from repro.errors import ConfigurationError
from repro.memsys import Cache


def small_cache(assoc=2, sets=4, line=64):
    return Cache("t", CacheGeometry(size=assoc * sets * line, assoc=assoc, line_size=line))


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(0)
    cache.fill(0)
    assert cache.lookup(0)
    assert cache.stats.count("requests") == 2
    assert cache.stats.count("misses") == 1
    assert cache.stats.count("hits") == 1


def test_line_alignment_enforced():
    cache = small_cache()
    with pytest.raises(ConfigurationError):
        cache.lookup(10)
    assert cache.line_base(70) == 64


def test_lru_evicts_least_recent():
    cache = small_cache(assoc=2, sets=1)
    cache.fill(0)
    cache.fill(64)
    cache.lookup(0)           # 0 becomes most-recent
    victim = cache.fill(128)  # evicts 64
    assert victim == 64
    assert cache.contains(0)
    assert not cache.contains(64)


def test_fill_existing_refreshes_without_eviction():
    cache = small_cache(assoc=2, sets=1)
    cache.fill(0)
    cache.fill(64)
    assert cache.fill(0) is None  # refresh, no eviction
    victim = cache.fill(128)
    assert victim == 64


def test_set_isolation():
    """Lines in different sets never evict each other."""
    cache = small_cache(assoc=1, sets=4)
    lines = [i * 64 for i in range(4)]  # each maps to its own set
    for line in lines:
        cache.fill(line)
    assert all(cache.contains(line) for line in lines)
    assert cache.stats.count("evictions") == 0


def test_conflict_misses_within_one_set():
    cache = small_cache(assoc=2, sets=4)
    stride = 4 * 64  # same set index
    cache.fill(0)
    cache.fill(stride)
    cache.fill(2 * stride)
    assert not cache.contains(0)
    assert cache.stats.count("evictions") == 1


def test_dirty_writeback_accounting():
    cache = small_cache(assoc=1, sets=1)
    cache.fill(0, dirty=True)
    cache.fill(64)
    assert cache.stats.count("writebacks") == 1


def test_touch_write_marks_dirty():
    cache = small_cache(assoc=1, sets=1)
    assert not cache.touch_write(0)  # absent
    cache.fill(0)
    assert cache.touch_write(0)
    cache.fill(64)
    assert cache.stats.count("writebacks") == 1


def test_invalidate_and_flush():
    cache = small_cache()
    cache.fill(0)
    cache.invalidate(0)
    assert not cache.contains(0)
    cache.fill(64)
    cache.fill(128)
    cache.flush()
    assert not cache.contains(64) and not cache.contains(128)


def test_demand_vs_prefetch_accounting():
    cache = small_cache()
    cache.lookup(0, demand=True)
    cache.lookup(64, demand=False)
    assert cache.stats.count("requests_demand") == 1
    assert cache.stats.count("requests_prefetch") == 1
    assert cache.stats.count("misses_demand") == 1
    assert cache.stats.count("misses_prefetch") == 1


def test_note_repeat_hits_counts_batched_loads():
    cache = small_cache()
    cache.fill(0)
    cache.lookup(0)
    cache.note_repeat_hits(15)
    assert cache.stats.count("requests") == 16
    assert cache.stats.count("hits") == 16
    cache.note_repeat_hits(0)  # no-op
    assert cache.stats.count("requests") == 16


def test_miss_rate():
    cache = small_cache()
    cache.lookup(0)
    cache.fill(0)
    cache.lookup(0)
    assert cache.stats.count("misses") == 1
    assert cache.stats.count("requests") == 2

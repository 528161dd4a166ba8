"""Unit tests for the bounded LRU mapping."""

import pytest

from repro.util.lru import LRUCache


class TestLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_put_get(self):
        c = LRUCache(2)
        c.put("a", 1)
        assert c.get("a") == 1
        assert c.get("missing") is None
        assert c.get("missing", 42) == 42

    def test_eviction_is_lru(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")            # refresh a
        evicted = c.put("c", 3)
        assert evicted == ("b", 2)
        assert "a" in c and "c" in c and "b" not in c

    def test_put_refresh_does_not_evict(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.put("a", 10) is None
        assert c.get("a") == 10
        assert len(c) == 2

    def test_stats(self):
        c = LRUCache(1)
        c.put("a", 1)
        c.get("a")
        c.get("b")
        c.put("c", 1)
        assert c.hits == 1 and c.misses == 1 and c.evictions == 1
        assert c.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert LRUCache(1).hit_rate == 0.0

    def test_clear_and_iter(self):
        c = LRUCache(3)
        c.put("a", 1)
        c.put("b", 2)
        assert sorted(c) == ["a", "b"]
        c.clear()
        assert len(c) == 0

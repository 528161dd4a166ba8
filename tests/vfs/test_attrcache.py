"""Unit tests for the shared attribute cache and the block device."""

import pytest

from repro.errors import NoSpace
from repro.util.stats import Counters
from repro.vfs.attrcache import ENTRY_BYTES, AttributeCache
from repro.vfs.blockdev import BlockDevice


class TestAttributeCache:
    """A bounded LRU of node keys: the attributes themselves are always
    read from the node (``tests/core/test_node_identity.py``)."""

    def test_miss_is_false(self):
        assert AttributeCache().hit(("fs", 1)) is False

    def test_eviction_beyond_capacity(self):
        cache = AttributeCache(capacity=2)
        for ino in range(3):
            cache.put(("fs", ino))
        assert len(cache) == 2
        assert not cache.hit(("fs", 0))
        assert cache.hit(("fs", 2))

    def test_a_hit_refreshes_recency(self):
        cache = AttributeCache(capacity=2)
        cache.put(("fs", 0))
        cache.put(("fs", 1))
        assert cache.hit(("fs", 0))
        cache.put(("fs", 2))
        assert cache.hit(("fs", 0))
        assert not cache.hit(("fs", 1))

    def test_stats_counters(self):
        counters = Counters()
        cache = AttributeCache(counters=counters)
        cache.put(("fs", 1))
        cache.hit(("fs", 1))
        cache.hit(("fs", 2))
        assert counters.get("attrcache.put") == 1
        assert counters.get("attrcache.hit") == 1
        assert counters.get("attrcache.miss") == 1

    def test_footprint(self):
        cache = AttributeCache()
        assert cache.approximate_bytes() == 0
        cache.put(("fs", 1))
        assert cache.approximate_bytes() == ENTRY_BYTES

    def test_hit_rate(self):
        cache = AttributeCache()
        cache.put(("fs", 1))
        cache.hit(("fs", 1))
        cache.hit(("fs", 1))
        cache.hit(("fs", 2))
        assert cache.hit_rate == pytest.approx(2 / 3)


class TestBlockDevice:
    def test_block_size_positive(self):
        with pytest.raises(ValueError):
            BlockDevice(block_size=0)

    def test_data_allocation_accounting(self):
        dev = BlockDevice(block_size=100)
        dev.allocate(0, 250)
        assert dev.used_blocks == 3
        dev.allocate(250, 50)
        assert dev.used_blocks == 1

    def test_capacity_enforced(self):
        dev = BlockDevice(block_size=100, capacity_blocks=2)
        dev.allocate(0, 200)
        with pytest.raises(NoSpace):
            dev.allocate(0, 1)

    def test_records(self):
        dev = BlockDevice()
        dev.write_record("k", b"abc")
        assert dev.read_record("k") == b"abc"
        assert dev.record_bytes == 3
        dev.write_record("k", b"ab")
        assert dev.record_bytes == 2
        assert dev.delete_record("k") is True
        assert dev.delete_record("k") is False
        assert dev.read_record("k") is None
        assert dev.record_bytes == 0

    def test_record_capacity(self):
        dev = BlockDevice(block_size=10, capacity_blocks=1)
        dev.write_record("a", b"x" * 10)
        with pytest.raises(NoSpace):
            dev.write_record("b", b"y" * 10)

    def test_io_counters(self):
        counters = Counters()
        dev = BlockDevice(block_size=100, counters=counters)
        dev.charge_read(250)
        dev.charge_write(1)
        assert counters.get("blockdev.read_blocks") == 3
        assert counters.get("blockdev.write_blocks") == 1
        assert counters.get("blockdev.read_ops") == 1

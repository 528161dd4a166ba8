"""Shared attribute cache.

The paper (Table 1 discussion): when HAC creates a file it also initialises
an attribute cache entry in shared memory "so that different processes can
access it", speeding up the Scan and Read phases.  This module reproduces
that cache as a bounded LRU of node identities, ``(fsid, ino)``: a node
whose key is cached has its attributes "in shared memory", so a ``stat``
of it skips the simulated metadata read on the block device.

The cache holds keys, not attribute snapshots: the attributes a ``stat``
returns are always copied from the node itself, so no write, rename,
alias or unmount can leave an entry stale, and nothing invalidates one.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.util.lru import LRUCache
from repro.util.stats import Counters

#: approximate bytes per cached entry (the paper reports ~16 KB of shared
#: memory per process overall)
ENTRY_BYTES = 56


class AttributeCache:
    """Bounded LRU set of node keys whose attributes are cached."""

    def __init__(self, capacity: int = 256, counters: Optional[Counters] = None):
        self._lru: LRUCache[Hashable, bool] = LRUCache(capacity)
        self._stats = (counters or Counters()).scoped("attrcache")

    def put(self, key: Hashable) -> None:
        self._lru.put(key, True)
        self._stats.add("put")

    def hit(self, key: Hashable) -> bool:
        """Whether *key* is cached (refreshing its recency if so)."""
        found = self._lru.get(key, False)
        self._stats.add("hit" if found else "miss")
        return found

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def approximate_bytes(self) -> int:
        """Rough shared-memory footprint of the cache."""
        return ENTRY_BYTES * len(self._lru)

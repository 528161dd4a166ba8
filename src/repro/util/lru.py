"""A bounded least-recently-used mapping.

Backs the per-process attribute cache (:mod:`repro.vfs.attrcache`), which
remembers the nodes whose attributes the paper keeps in shared memory so
the Scan and Read phases avoid re-fetching inode metadata, and the Jade
baseline's name cache.  Hit, miss and eviction counts are kept for
callers that report them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()


class LRUCache(Generic[K, V]):
    """Mapping with a capacity; inserting beyond it evicts the oldest entry."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> Optional[Tuple[K, V]]:
        """Insert/refresh; returns the evicted ``(key, value)`` if any."""
        if key in self._data:
            self._data.move_to_end(key)
            self._data[key] = value
            return None
        self._data[key] = value
        if len(self._data) > self.capacity:
            self.evictions += 1
            return self._data.popitem(last=False)
        return None

    def clear(self) -> None:
        self._data.clear()

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(list(self._data))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

"""A Jade-style user-level file system (Table 2 baseline).

Jade (Rao & Peterson, 1993) gives each user a *logical* name space stitched
together from underlying physical file systems; every operation first
translates the logical path through a per-user mapping table, component by
component, with a name cache in front.  Its published Andrew slowdown is
~36 %.

This reimplementation reproduces the mechanism — longest-prefix translation
through a user-defined table plus per-component logical name resolution and
a bounded name cache — over our VFS, so Table 2 measures the same
*kind* of work Jade did rather than quoting its number.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.util import pathutil
from repro.util.lru import LRUCache
from repro.util.stats import Counters
from repro.vfs.fd import FDTable
from repro.vfs.filesystem import FileSystem, StatResult


class JadeFileSystem:
    """Logical name space over a physical :class:`FileSystem`."""

    def __init__(self, physical: FileSystem,
                 counters: Optional[Counters] = None,
                 name_cache_size: int = 512):
        self.physical = physical
        self.counters = counters if counters is not None else physical.counters
        self._stats = self.counters.scoped("jade")
        #: logical prefix → physical prefix, longest match wins
        self._table: List[Tuple[str, str]] = [("/", "/")]
        self._cache: LRUCache[str, str] = LRUCache(name_cache_size)
        self.fdtable = FDTable()

    # -- the logical name space ---------------------------------------------

    def attach(self, logical_prefix: str, physical_prefix: str) -> None:
        """Map a logical subtree onto a physical one."""
        entry = (pathutil.normalize(logical_prefix),
                 pathutil.normalize(physical_prefix))
        self._table.append(entry)
        # longest prefixes first so translation picks the most specific map
        self._table.sort(key=lambda e: pathutil.depth(e[0]), reverse=True)
        self._cache.clear()

    def translate(self, logical: str) -> str:
        """Logical → physical path (the per-operation Jade work)."""
        norm = pathutil.normalize(logical)
        self._stats.add("translations")
        cached = self._cache.get(norm)
        if cached is not None:
            return cached
        for logical_prefix, physical_prefix in self._table:
            if pathutil.is_ancestor(logical_prefix, norm, strict=False):
                rel = pathutil.relative_to(norm, logical_prefix)
                # per-component resolution cost, as in Jade's name server
                for _comp in pathutil.split_components(rel):
                    self._stats.add("components")
                physical = (pathutil.join(physical_prefix, rel)
                            if rel else physical_prefix)
                self._cache.put(norm, physical)
                return physical
        self._cache.put(norm, norm)
        return norm

    # -- forwarded operations ---------------------------------------------------

    def mkdir(self, path: str, mode: int = 0o755) -> StatResult:
        return self.physical.mkdir(self.translate(path), mode=mode)

    def rmdir(self, path: str) -> None:
        self.physical.rmdir(self.translate(path))

    def create(self, path: str, mode: int = 0o644) -> StatResult:
        return self.physical.create(self.translate(path), mode=mode)

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        return self.physical.write_file(self.translate(path), data, append=append)

    def read_file(self, path: str) -> bytes:
        return self.physical.read_file(self.translate(path))

    def unlink(self, path: str) -> None:
        self.physical.unlink(self.translate(path))

    def symlink(self, target: str, linkpath: str) -> StatResult:
        return self.physical.symlink(target, self.translate(linkpath))

    def readlink(self, path: str) -> str:
        return self.physical.readlink(self.translate(path))

    def rename(self, old: str, new: str) -> None:
        self.physical.rename(self.translate(old), self.translate(new))
        self._cache.clear()

    def stat(self, path: str) -> StatResult:
        return self.physical.stat(self.translate(path))

    def listdir(self, path: str) -> List[str]:
        return self.physical.listdir(self.translate(path))

    def exists(self, path: str) -> bool:
        return self.physical.exists(self.translate(path))

    def open(self, path: str, mode: str = "r") -> int:
        return self.physical.open(self.fdtable, self.translate(path), mode)

    def read(self, fd: int, size: int = -1) -> bytes:
        return self.physical.read(self.fdtable, fd, size)

    def write(self, fd: int, data: bytes) -> int:
        return self.physical.write(self.fdtable, fd, data)

    def close(self, fd: int) -> None:
        self.physical.close(self.fdtable, fd)

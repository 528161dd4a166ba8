"""The global UID ↔ directory-path map (paper §2.5).

Queries may reference other directories by path (``"fingerprint AND
/projects/fbi"``).  If queries stored raw path names, every rename would
invalidate every query referring to the renamed directory or anything under
it.  The paper's fix, reproduced here: HAC keeps one global mapping from
stable unique identifiers to current path names and stores only UIDs inside
query ASTs.  A rename then updates this map once instead of rewriting
queries.

:class:`GlobalDirectoryMap` owns that mapping.  It holds only the
directories something names — a query, a semantic directory placed in
them, a semantic mount (docs/SEMANTICS.md §1); any other directory is just
the tree's.  A rename of ``/a`` to ``/b`` must also re-root every
registered path under ``/a`` — the map handles the whole subtree in
:meth:`rename_subtree`.  It is never persisted: a directory's record holds
its place (:meth:`place_of`), a name of one or more components below its
nearest registered ancestor, and a load folds the places back
(:meth:`load_places`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util import pathutil


class GlobalDirectoryMap:
    """Bidirectional map between named directories' UIDs and their
    current paths.

    The root directory is always registered with UID 0 at path ``/``.
    """

    ROOT_UID = 0

    def __init__(self):
        #: the next fresh UID — monotonic, none is ever handed out twice
        self._fresh = itertools.count(1)
        self._uid_to_path: Dict[int, str] = {self.ROOT_UID: "/"}
        self._path_to_uid: Dict[str, int] = {"/": self.ROOT_UID}

    # -- registration --------------------------------------------------------

    def register(self, path: str) -> int:
        """Register a directory something names now; returns its fresh
        UID."""
        norm = pathutil.normalize(path)
        if norm in self._path_to_uid:
            raise ValueError(f"path already registered: {norm}")
        uid = next(self._fresh)
        self._uid_to_path[uid] = norm
        self._path_to_uid[norm] = uid
        return uid

    def unregister(self, path: str) -> int:
        """Remove a named directory from the map (on rmdir or unmount);
        returns its UID."""
        norm = pathutil.normalize(path)
        uid = self._path_to_uid.pop(norm)
        del self._uid_to_path[uid]
        return uid

    # -- lookup ---------------------------------------------------------------

    def uid_of(self, path: str) -> Optional[int]:
        return self._path_to_uid.get(pathutil.normalize(path))

    def path_of(self, uid: int) -> Optional[str]:
        return self._uid_to_path.get(uid)

    def __contains__(self, path: str) -> bool:
        return pathutil.normalize(path) in self._path_to_uid

    def __len__(self) -> int:
        return len(self._uid_to_path)

    def items(self) -> Iterator[Tuple[int, str]]:
        return iter(list(self._uid_to_path.items()))

    # -- rename ---------------------------------------------------------------

    def rename_subtree(self, old_path: str, new_path: str) -> List[Tuple[int, str, str]]:
        """Re-root every registered path at or below *old_path*.

        Returns ``[(uid, old, new), ...]`` for the affected directories so the
        caller can update any per-path side tables (e.g. semantic-dir state
        keyed by path).
        """
        old = pathutil.normalize(old_path)
        new = pathutil.normalize(new_path)
        if old == "/":
            raise ValueError("cannot rename the root")
        moved: List[Tuple[int, str, str]] = []
        for path, uid in list(self._path_to_uid.items()):
            if pathutil.is_ancestor(old, path, strict=False):
                rebased = pathutil.rebase(path, old, new)
                moved.append((uid, path, rebased))
        for uid, src, dst in moved:
            del self._path_to_uid[src]
        for uid, src, dst in moved:
            if dst in self._path_to_uid:
                raise ValueError(f"rename collides with registered path: {dst}")
            self._path_to_uid[dst] = uid
            self._uid_to_path[uid] = dst
        return moved

    def subtree_uids(self, path: str, strict: bool = False) -> List[int]:
        """UIDs of every registered directory at/below *path*."""
        norm = pathutil.normalize(path)
        return [
            uid
            for p, uid in self._path_to_uid.items()
            if pathutil.is_ancestor(norm, p, strict=strict)
        ]

    # -- persistence ----------------------------------------------------------

    def place_of(self, path: str) -> Tuple[int, str]:
        """The UID of *path*'s nearest registered proper ancestor and the
        path below it — the name, unless an unnamed directory is between."""
        above = pathutil.dirname(path)
        while above not in self._path_to_uid:
            above = pathutil.dirname(above)
        return self._path_to_uid[above], pathutil.relative_to(path, above)

    def load_places(self, places: Dict[int, Tuple[Optional[int], str]],
                    named: Iterable[int]) -> None:
        """Replace the whole table *in place* — other components hold its
        bound methods — with the one the records' ``uid → (parent, name)``
        places imply: one breadth-first pass from the root, siblings in UID
        order, the first claim on a path winning.  A record whose parent
        chain misses the root is never reached, so the pass ends on every
        input and leaves it out.  The allocator restarts above every UID a
        record carries or a query *names*, and never moves back: a removed
        directory's UID lives on in those queries, and in the watches held
        in memory across an in-process reload, and must keep meaning
        "gone"."""
        children: Dict[object, List[Tuple[int, str]]] = {}
        for uid, (parent, name) in sorted(places.items()):
            children.setdefault(parent, []).append((uid, name))
        self._uid_to_path = {self.ROOT_UID: "/"}
        self._path_to_uid = {"/": self.ROOT_UID}
        placed = [self.ROOT_UID]
        for above in placed:  # grows as the pass goes: breadth first
            for uid, name in children.get(above, ()):
                path = pathutil.join(self._uid_to_path[above], name)
                if uid not in self._uid_to_path \
                        and path not in self._path_to_uid:
                    self._uid_to_path[uid] = path
                    self._path_to_uid[path] = uid
                    placed.append(uid)
        self._fresh = itertools.count(max(
            next(self._fresh), max(places, default=0) + 1,
            max(named, default=0) + 1))

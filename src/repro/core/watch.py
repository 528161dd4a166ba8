"""Eager data consistency: watched subtrees (extension of §2.4).

The paper's data-consistency policy is deliberately lazy, but it names the
exception: "users can decide to update certain semantic directories as soon
as new mail comes in".  And its future-work list includes "more
sophisticated mechanisms to enforce data consistency".  This module is that
mechanism: a *watch* covers a subtree; any content mutation under a watched
subtree (write, create, delete, move) immediately reindexes the touched
file and runs the scope-consistency cascade, so query results update
synchronously instead of at the next ``ssync``.

The cost model is the interesting part — watches trade write latency for
freshness, quantified by ``benchmarks/bench_ablation_watch.py``.
"""

from __future__ import annotations

from typing import List, Set, TYPE_CHECKING

from repro.errors import VfsError
from repro.util import pathutil
from repro.vfs.inode import FileNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class WatchManager:
    """Registered subtrees whose files stay index-fresh on every mutation."""

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs
        self._roots: Set[str] = set()
        self._stats = hacfs.counters.scoped("watch")

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(self, path: str) -> str:
        """Cover the subtree at *path* from now on; returns the canonical
        root.  The caller owes a sync covering the files already there
        (:meth:`add` runs one; ``restore`` ends in a whole-tree one)."""
        root = self.hacfs._canonical_dir(path)
        self._roots.add(root)
        self._stats.add("added")
        return root

    def add(self, path: str) -> str:
        """Watch the subtree at *path*, syncing it first so the eager
        guarantee ("results reflect every write") holds from now on;
        returns the canonical root."""
        root = self.register(path)
        self.hacfs.ssync(root)
        return root

    def root_named(self, path: str) -> str:
        """The root a watch on *path* is registered under: its canonical
        directory, whatever name (a symlink, say) asks for it — a
        directory that is gone has only its name."""
        try:
            return self.hacfs._canonical_dir(path)
        except VfsError:
            return pathutil.normalize(path)

    def remove(self, path: str) -> bool:
        root = self.root_named(path)
        if root in self._roots:
            self._roots.discard(root)
            self._stats.add("removed")
            return True
        return False

    def roots(self) -> List[str]:
        return sorted(self._roots)

    def covers(self, path: str) -> bool:
        if not self._roots:
            return False
        norm = pathutil.normalize(path)
        return any(pathutil.is_ancestor(root, norm, strict=False)
                   for root in self._roots)

    # ------------------------------------------------------------------
    # event handling (called by HacFileSystem after mutations)
    # ------------------------------------------------------------------

    def on_content_changed(self, path: str) -> bool:
        """A file under *path* was written or created; mark it dirty.

        The maintenance scheduler owns the actual index work: in eager
        mode (the default) the enqueue drains immediately — index update
        plus cascade, the original watch semantics — while batched mode
        coalesces it for the next drain.
        """
        if not self.covers(path):
            return False
        try:
            res = self.hacfs.fs.resolve(path, follow=False)
        except Exception:
            return False
        node = res.node
        if not isinstance(node, FileNode):
            return False
        key = (res.fs.fsid, node.ino)
        self.hacfs.maintenance.note_upsert(key, path, node.attrs.mtime)
        self._stats.add("reindexed")
        return True

    def on_file_removed(self, key, parent_dir: str) -> bool:
        """A file under a watched subtree was unlinked; withdraw it."""
        if not self.covers(parent_dir):
            return False
        if self.hacfs.maintenance.note_remove(key, parent_dir):
            self._stats.add("removed_docs")
        return True

    def on_file_moved(self, key, new_path: str) -> bool:
        """A file moved; refresh its indexed path (and name-derived terms)."""
        if not self.covers(new_path):
            return False
        mtime = 0.0
        if self.hacfs.engine.doc_by_key(key) is None \
                and key not in self.hacfs.maintenance._pending:
            try:
                res = self.hacfs.fs.resolve(new_path, follow=False)
                mtime = res.node.attrs.mtime
            except Exception:
                return False
        self.hacfs.maintenance.note_move(key, new_path, mtime)
        self._stats.add("moved_docs")
        return True

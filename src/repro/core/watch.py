"""Eager data consistency: watched subtrees (extension of §2.4).

The paper's data-consistency policy is deliberately lazy, but it names the
exception: "users can decide to update certain semantic directories as soon
as new mail comes in".  And its future-work list includes "more
sophisticated mechanisms to enforce data consistency".  This module is that
mechanism: a *watch* covers a subtree; any content mutation under a watched
subtree (write, create, delete, move) immediately reindexes the touched
file and runs the scope-consistency cascade, so query results update
synchronously instead of at the next ``ssync``.

A watch holds its directory's node ``(fsid, ino)``, not its name, and
names nothing: it follows the directory through renames, as inotify
follows the inode, and removing the directory (or unmounting its file
system) ends it — an inode number is never handed out again, so a new
directory at the old name is not watched.

The cost model is the interesting part: watches trade write latency for
freshness.
"""

from __future__ import annotations

from typing import List, Set, Tuple, TYPE_CHECKING

from repro.errors import VfsError
from repro.util import pathutil

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem
    from repro.vfs.filesystem import StatResult


class WatchManager:
    """Registered subtrees whose files stay index-fresh on every mutation."""

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs
        #: nodes ``(fsid, ino)`` of the watched directories
        self._dirs: Set[Tuple[str, int]] = set()
        self._stats = hacfs.counters.scoped("watch")

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(self, path: str) -> str:
        """Cover the subtree at *path* from now on; returns the canonical
        root.  The caller owes a sync covering the files already there
        (:meth:`add` runs one; ``restore`` ends in a whole-tree one)."""
        node = self.hacfs.dir_node(path)
        self._dirs.add(node)
        self._stats.add("added")
        return self.hacfs._live_path(*node)

    def add(self, path: str) -> str:
        """Watch the subtree at *path*, syncing it first so the eager
        guarantee ("results reflect every write") holds from now on;
        returns the canonical root."""
        root = self.register(path)
        self.hacfs.ssync(root)
        return root

    def remove(self, path: str) -> bool:
        """Lift the watch on the directory *path* names (a symlink to it,
        say); False when there is none — also once the directory is gone,
        which ended its watch."""
        try:
            node = self.hacfs.dir_node(path)
        except VfsError:
            return False
        if node not in self._dirs:
            return False
        self._dirs.discard(node)
        self._stats.add("removed")
        return True

    def forget_fs(self, fsid: str) -> None:
        """The file system *fsid* was unmounted: its watches end, and a
        later mount of it starts with none."""
        self._dirs = {node for node in self._dirs if node[0] != fsid}

    def _live_roots(self):
        return (self.hacfs._live_path(*node) for node in self._dirs)

    def roots(self) -> List[str]:
        """Current paths of the watched directories that still exist."""
        return sorted(filter(None, self._live_roots()))

    def covers(self, path: str) -> bool:
        if not self._dirs:
            return False
        norm = pathutil.normalize(path)
        for root in self._live_roots():
            if root is not None \
                    and pathutil.is_ancestor(root, norm, strict=False):
                return True
        return False

    # ------------------------------------------------------------------
    # event handling (called by HacFileSystem after mutations)
    # ------------------------------------------------------------------

    def on_content_changed(self, path: str, stat: "StatResult") -> bool:
        """The file *stat* describes, whose live path is *path*, was
        written or created; mark it dirty.

        The maintenance scheduler owns the actual index work: in eager
        mode (the default) the enqueue drains immediately — index update
        plus cascade, the original watch semantics — while batched mode
        coalesces it for the next drain.
        """
        if not self.covers(path):
            return False
        self.hacfs.maintenance.note_upsert((stat.fsid, stat.ino), path,
                                           stat.attrs.mtime)
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

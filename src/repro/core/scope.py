"""Scope computation — what each directory *provides* (paper §2.3).

The scope of a query is the set of files it is evaluated over, and it is
defined by the parent of the query's semantic directory:

* the **root** provides all the files in the file system (every indexed
  document), plus every semantically mounted name space;
* a **semantic directory** provides its curated query-result: the targets
  of its transient and permanent links, plus any regular files placed
  directly inside it, plus name spaces semantically mounted directly on it.
  Contents of its *sub*-directories do not feed upward — the paper
  explicitly rejects child→parent flow;
* a **plain (syntactic) directory** has no curated result, so it provides
  its subtree: every regular file below it, the targets of symbolic links
  in plain directories below it, and name spaces mounted anywhere below.
  Links materialised inside semantic descendants are excluded — they are
  those directories' *results*, and letting them feed a syntactic ancestor
  would create scope dependencies the dependency graph does not track.

A scope has three parts: local documents (engine doc-ids), explicit remote
members (links imported earlier), and name spaces to forward new queries to.
"""

from __future__ import annotations

from typing import Optional, Set, TYPE_CHECKING

from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.cba.results import RemoteId
from repro.vfs.inode import FileNode, SymlinkNode
from repro.vfs.walker import walk

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class Scope:
    """The scope a directory provides to queries beneath it."""

    __slots__ = ("local", "remote", "namespaces")

    def __init__(self, local: Optional[Bitmap] = None,
                 remote: Optional[Set[RemoteId]] = None,
                 namespaces: Optional[Set[str]] = None):
        self.local = local if local is not None else Bitmap()
        self.remote = remote if remote is not None else set()
        self.namespaces = namespaces if namespaces is not None else set()

    def describe(self) -> dict:
        """Structured composition, the shape ``hac.health()`` nests and the
        shell prints — one source of truth, so the surfaces cannot drift."""
        return {"local": len(self.local),
                "remote": sorted(rid.uri() for rid in self.remote),
                "namespaces": sorted(self.namespaces)}

    def __repr__(self):
        d = self.describe()
        return (f"Scope(local={d['local']}, remote={d['remote']}, "
                f"namespaces={d['namespaces']})")


class ScopeResolver:
    """Computes provided scopes against the live file system state."""

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs

    # ------------------------------------------------------------------

    def provided_by_uid(self, uid: int) -> Scope:
        path = self.hacfs.dirmap.path_of(uid)
        if path is None:
            return Scope()  # dangling reference resolves to nothing
        return self.provided(path)

    def provided(self, path: str) -> Scope:
        norm = pathutil.normalize(path)
        if norm == "/":
            return self._root_scope()
        state = self.semantic_state(norm)
        if state is not None:
            return self._semantic_scope(norm, state)
        return self._syntactic_scope(norm)

    def semantic_state(self, norm: str):
        """State of the semantic directory at normalised *norm*, if any."""
        uid = self.hacfs.dirmap.uid_of(norm)
        state = self.hacfs.meta.get(uid) if uid is not None else None
        return state if state is not None and state.is_semantic else None

    # ------------------------------------------------------------------

    def _root_scope(self) -> Scope:
        return Scope(local=self.hacfs.engine.all_docs(),
                     namespaces=set(self.hacfs.semmounts.all_namespace_ids()))

    def _semantic_scope(self, path: str, state) -> Scope:
        # the local half is the result bitmap the last evaluation left;
        # links loaded or hand-edited since are unbound, and their result is
        # derived here.  A document withdrawn since is in no scope.
        links = state.links
        if links.bound is not self.hacfs.engine:
            state.result_cache = self.hacfs.consistency.ids_of(
                links.all_targets())
        local = state.result_cache & self.hacfs.engine.all_docs()
        remote = {t.remote_id() for t in links.remote}
        remote.update(t.remote_id() for t in links.permanent.values()
                      if t.is_remote)
        # regular files placed directly in the directory are part of the
        # curated result ("adding regular files to that directory", §2.3)
        self._add_tree_members(path, local, remote, recurse=False)
        namespaces = set(self.hacfs.semmounts.namespaces_at(path))
        return Scope(local=local, remote=remote, namespaces=namespaces)

    def _syntactic_scope(self, path: str) -> Scope:
        local = Bitmap()
        remote: Set[RemoteId] = set()
        self._add_tree_members(path, local, remote, recurse=True)
        namespaces = set(self.hacfs.semmounts.namespaces_under(path))
        return Scope(local=local, remote=remote, namespaces=namespaces)

    def _add_tree_members(self, top: str, local: Bitmap,
                          remote: Set[RemoteId], recurse: bool) -> None:
        """One read of the live tree at *top*: every indexed regular file,
        plus the targets of symlinks in plain directories (a semantic
        directory's links are its result, taken from its link table)."""
        for dirpath, dirnames, filenames, (owner, dirnode) in walk(
                self.hacfs.fs, top):
            if not recurse:
                del dirnames[:]
            dir_uid = self.hacfs.dirmap.uid_of(dirpath)
            dir_state = self.hacfs.meta.get(dir_uid) if dir_uid is not None else None
            dir_is_semantic = dir_state is not None and dir_state.is_semantic
            for name in filenames:
                node = dirnode.entries[name]
                if isinstance(node, FileNode):
                    self._add_doc((owner.fsid, node.ino), local)
                elif not dir_is_semantic:
                    self._add_symlink_target(node, local, remote)

    def _add_doc(self, key, local: Bitmap) -> None:
        """Add the document indexed under *key*; an unindexed file is in
        no scope yet (data consistency is lazy, §2.4)."""
        doc_id = self.hacfs.engine.doc_id_of(key)
        if doc_id is not None:
            local.add(doc_id)

    def _add_symlink_target(self, node: SymlinkNode,
                            local: Bitmap, remote: Set[RemoteId]) -> None:
        target = node.target
        if "://" in target:
            try:
                remote.add(RemoteId.from_uri(target))
            except ValueError:
                pass
            return
        try:
            res = self.hacfs.fs.resolve(target, follow=True)
        except Exception:
            return  # dangling link: contributes nothing (data inconsistency)
        if isinstance(res.node, FileNode):
            self._add_doc((res.fs.fsid, res.node.ino), local)

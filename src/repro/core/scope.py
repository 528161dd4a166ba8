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

from repro.errors import VfsError
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.cba.results import RemoteId
from repro.core.links import Target
from repro.vfs.inode import FileNode, SymlinkNode
from repro.vfs.walker import walk

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class Scope:
    """The scope a directory provides to queries beneath it."""

    __slots__ = ("local", "remote", "namespaces", "fed")

    def __init__(self, local: Optional[Bitmap] = None,
                 remote: Optional[Set[RemoteId]] = None,
                 namespaces: Optional[Set[str]] = None):
        self.local = local if local is not None else Bitmap()
        self.remote = remote if remote is not None else set()
        self.namespaces = namespaces if namespaces is not None else set()
        #: the directories of the local symlink targets followed (``/`` for
        #: a text not its target's canonical path, which any change may re-aim)
        self.fed: Set[str] = set()

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
        scope = Scope(local=state.result_cache & self.hacfs.engine.all_docs(),
                      remote={t.remote_id() for t in links.remote},
                      namespaces=set(self.hacfs.semmounts.namespaces_at(path)))
        scope.remote.update(t.remote_id() for t in links.permanent.values()
                            if t.is_remote)
        # regular files placed directly in the directory are part of the
        # curated result ("adding regular files to that directory", §2.3)
        self._add_tree_members(path, scope, recurse=False)
        return scope

    def _syntactic_scope(self, path: str) -> Scope:
        scope = Scope(namespaces=set(self.hacfs.semmounts.namespaces_under(path)))
        self._add_tree_members(path, scope, recurse=True)
        return scope

    def _add_tree_members(self, top: str, scope: Scope,
                          recurse: bool) -> None:
        """One read of the live tree at *top*: every indexed regular file,
        plus the targets of symlinks in plain directories (a semantic
        directory's links are its result, taken from its link table)."""
        for dirpath, dirnames, filenames, (owner, dirnode) in walk(
                self.hacfs.fs, top):
            if not recurse:
                del dirnames[:]
            dir_is_semantic = self.semantic_state(dirpath) is not None
            for name in filenames:
                node = dirnode.entries[name]
                if isinstance(node, FileNode):
                    self._add_doc((owner.fsid, node.ino), scope.local)
                elif not dir_is_semantic:
                    self._add_symlink_target(dirpath, node, scope)

    def _add_doc(self, key, local: Bitmap) -> None:
        """Add the document indexed under *key*; an unindexed file is in
        no scope yet (data consistency is lazy, §2.4)."""
        doc_id = self.hacfs.engine.doc_id_of(key)
        if doc_id is not None:
            local.add(doc_id)

    def link_target(self, link_dir: str, text: str) -> Optional[Target]:
        """The document a link with *text* in the directory *link_dir*
        names: a remote one for a ``ns://doc`` text, else the file the
        text leads to (:meth:`follow_link`) — None for no file."""
        if "://" in text:
            return Target.from_remote_id(RemoteId.from_uri(text))
        res = self.follow_link(link_dir, text)
        if res is not None and isinstance(res.node, FileNode):
            return Target.local(res.fs.fsid, res.node.ino)
        return None

    def follow_link(self, link_dir: str, text: str):
        """Where a local link's *text* leads, read from the link's own
        directory *link_dir* and through any chain, as a read through the
        link would: the resolved node, or None."""
        try:
            return self.hacfs.fs.resolve(pathutil.join(link_dir, text))
        except VfsError:
            return None

    def _add_symlink_target(self, link_dir: str, node: SymlinkNode,
                            scope: Scope) -> None:
        """What the symlink *node* in *link_dir* leads to."""
        target = node.target
        if "://" in target:
            scope.remote.add(RemoteId.from_uri(target))
            return
        res = self.follow_link(link_dir, target)
        if res is None:
            scope.fed.add("/")   # dangling: nothing, until a change aims it
            return
        if isinstance(res.node, FileNode):
            self._add_doc((res.fs.fsid, res.node.ino), scope.local)
        canonical = self.hacfs._live_path(res.fs.fsid, res.node.ino)
        scope.fed.add(pathutil.dirname(target) if canonical == target else "/")

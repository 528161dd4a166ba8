"""HacFileSystem — the user-level interposition layer (paper §4).

The paper implemented HAC as a dynamically linked library intercepting all
file-system calls for a user's personal name space, with no kernel changes.
This class is that library: every user-visible operation goes through it,
and each one carries the extra HAC work the paper describes:

* ``mkdir`` also registers the directory in the global map, creates and
  persists its (empty) query/link-set record, and adds a node to the
  dependency graph — the Makedir overhead of Table 1;
* ``create`` also initialises the attribute-cache entry — the Copy
  overhead;
* ``stat`` consults the attribute cache — the Scan speed-up;
* ``unlink`` of a link in a semantic directory records a *prohibition*;
* ``symlink`` into a semantic directory records a *permanent* link;
* ``rename`` updates the global UID map (queries referencing the moved
  directory stay valid) and triggers the scope-consistency cascade;
* the semantic command set — ``smkdir``, ``set_query``/``get_query``,
  ``ssync``, ``sact``, ``smount`` — extends the usual commands.

File *content* changes (create/write/delete) deliberately do **not**
re-evaluate queries: data consistency is settled at reindex time (§2.4).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CorruptRecord,
    DeviceCrashed,
    FileNotFound,
    InvalidArgument,
    NotASemanticDirectory,
)
from repro.obs import Observability
from repro.obs.trace import NOOP_SPAN
from repro.util import pathutil
from repro.util.clock import VirtualClock
from repro.util.idmap import GlobalDirectoryMap
from repro.util.stats import Counters
from repro.vfs.attrcache import AttributeCache
from repro.vfs.fd import FDTable
from repro.vfs.filesystem import FileSystem, StatResult
from repro.vfs.inode import FileNode, SymlinkNode
from repro.vfs.walker import walk
from repro.cba import agrep, evaluator
from repro.cba.backend import open_backend
from repro.cba.glimpse import DEFAULT_NUM_BLOCKS
from repro.cba.incremental import ReindexPlan
from repro.cba.queryast import content_projection
from repro.cba.queryparser import parse_query
from repro.cba.segments import SegmentStore
from repro.cba.transducers import default_transducer
from repro.core.admission import AdmissionController
from repro.core.consistency import ConsistencyManager
from repro.core.datacon import ReindexScheduler
from repro.core.depgraph import DependencyGraph
from repro.core.journal import Journal
from repro.core.links import Target
from repro.core.scheduler import MaintenanceScheduler
from repro.core.scope import ScopeResolver
from repro.core.semdir import MetaStore
from repro.core.watch import WatchManager
from repro.core.tenant import TenantManager
from repro.remote.namespace import NameSpace
from repro.remote.semmount import SemanticMountTable


#: aux record holding what a reopen must hand the engine it builds
ENGINE_RECORD = "engineconf"


class HacFileSystem:
    """A personal name space with both path-name and content-based access."""

    def __init__(self, fs: Optional[FileSystem] = None,
                 clock: Optional[VirtualClock] = None,
                 counters: Optional[Counters] = None,
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 obs: Optional[Observability] = None,
                 backend=None):
        self._init_base(fs, clock, counters, obs)
        self._init_components()
        # the engine seam: anything honouring the SearchBackend protocol
        # works here — ``backend="cluster:3"`` builds a sharded cluster,
        # for instance (the paper's CBA generality argument, §2.2)
        self.engine = open_backend(backend)(
            num_blocks=num_blocks, **self._engine_site())
        # the root's (empty) HAC state — uid 0 is pre-registered in the map
        self.meta.create(GlobalDirectoryMap.ROOT_UID)
        # block placement is doc_id % num_blocks, so a reopen must rebuild
        # with the same count whichever path it takes
        self.meta.flush_aux(ENGINE_RECORD, {"num_blocks": num_blocks})
        self.tenants = TenantManager(self)
        self._persist_maps()
        self._wire_obs()

    def _init_base(self, fs: Optional[FileSystem],
                   clock: Optional[VirtualClock],
                   counters: Optional[Counters],
                   obs: Optional[Observability]) -> None:
        """First half of construction, shared with :meth:`restore`: the
        planes that exist before any persisted structure is consulted."""
        self.counters = counters if counters is not None else Counters()
        self.clock = clock if clock is not None else VirtualClock()
        #: the observability plane — disabled by default; enable with
        #: ``hac.obs.enable()`` (or pass one in already enabled)
        self.obs = obs if obs is not None else Observability(
            clock=self.clock, counters=self.counters)
        self.fs = fs if fs is not None else FileSystem(
            name="hac", clock=self.clock, counters=self.counters)
        self._hac = self.counters.scoped("hac")
        self.meta = MetaStore(self.fs.device)
        self.journal = Journal(self.fs.device, self.counters,
                               tracer=self.obs.trace)
        self.last_recovery = None

    def _init_components(self) -> None:
        """Second half, shared with :meth:`restore`: an empty directory
        map and dependency graph (a reopen fills them through
        :meth:`reload_persisted`) and every component that hangs off
        them.  The engine is built afterwards by the caller, through the
        backend factory — nothing here touches it at construction."""
        self.dirmap = GlobalDirectoryMap()
        self.depgraph = DependencyGraph()
        self.engine = None
        self.semmounts = SemanticMountTable(uid_of=self.dirmap.uid_of,
                                            path_of=self.dirmap.path_of)
        self.scopes = ScopeResolver(self)
        self.consistency = ConsistencyManager(self)
        #: the write-side maintenance pipeline (eager by default; flip to
        #: batched with ``maintenance.set_mode("batched")``)
        self.maintenance = MaintenanceScheduler(self)
        #: admission gate (disabled by default) consulted before queries
        #: and mutations when back-ends degrade
        self.admission = AdmissionController(self)
        self.scheduler = ReindexScheduler(self)
        self.watches = WatchManager(self)
        self.attrcache = AttributeCache(counters=self.counters)
        #: path → (fsid, ino, type) companion to the attribute cache
        self._stat_identity: Dict[str, Tuple[str, int, object]] = {}
        self.fdtable = FDTable()
        #: descriptor table the engine loader reads documents through
        self._loader_fds = FDTable()
        #: fsid → (FileSystem, mount prefix in the host name space)
        self._fs_registry: Dict[str, Tuple[FileSystem, str]] = {
            self.fs.fsid: (self.fs, "")
        }

    def _engine_site(self) -> Dict[str, object]:
        """What this file system supplies to whichever engine it builds."""
        return dict(loader=self._load_doc, counters=self.counters,
                    clock=self.clock, transducer=default_transducer)

    # ==================================================================
    # plumbing
    # ==================================================================

    def _wire_obs(self) -> None:
        """Thread the observability plane through every component.

        Components hold the tracer as a plain attribute (disabled-mode cost:
        one attribute check), so re-wiring after a structure is rebuilt —
        ``reload_persisted`` replaces the dependency graph, ``restore``
        replaces everything — is just re-assignment."""
        tracer = self.obs.trace
        self.fs.tracer = tracer
        self.fs.device.tracer = tracer
        self.engine.tracer = tracer
        self.engine.metrics = self.obs.metrics
        self.depgraph.tracer = tracer

    def _load_doc(self, key) -> str:
        """Engine loader: fetch a document's current text by (fsid, ino).

        The fetch goes through the user-level library like any other access
        (§4): the file's name is resolved in the personal name space before
        the data is read — this is precisely why indexing and searching
        through HAC cost more than running Glimpse directly (Tables 3/4).
        """
        fsid, ino = key
        entry = self._fs_registry.get(fsid)
        if entry is None:
            return ""
        owner, _prefix = entry
        node = owner.node_by_ino(ino)
        if not isinstance(node, FileNode):
            return ""
        path = owner.path_of_ino(ino)
        if path is not None:
            # library-level resolution, then a native open/read/close cycle
            try:
                owner.resolve(path)
                fd = owner.open(self._loader_fds, path, "r")
                try:
                    data = owner.read(self._loader_fds, fd)
                finally:
                    owner.close(self._loader_fds, fd)
                return data.decode("utf-8", errors="replace")
            except Exception:
                pass
        owner.device.charge_read(len(node.data))
        return bytes(node.data).decode("utf-8", errors="replace")

    def path_for_target(self, target: Target) -> Optional[str]:
        """Current host-name-space path of a local target, if it is alive."""
        if not target.is_local:
            return None
        entry = self._fs_registry.get(target.realm)
        if entry is None:
            return None
        owner, prefix = entry
        inner = owner.path_of_ino(target.ino)
        if inner is None:
            return None
        return pathutil.join(prefix, inner.lstrip("/")) if prefix else inner

    def _canonical_dir(self, path: str) -> str:
        """The registered (symlink-free) path of an existing directory."""
        res = self.fs.resolve(path)
        prefix = self._fs_registry.get(res.fs.fsid, (None, None))[1]
        inner = res.fs.path_of_ino(res.node.ino)
        if inner is None:
            return pathutil.normalize(path)
        if prefix:
            return pathutil.join(prefix, inner.lstrip("/")) if inner != "/" else prefix
        return inner

    def _uid_of_dir(self, path: str) -> int:
        uid = self.dirmap.uid_of(self._canonical_dir(path))
        if uid is None:
            raise FileNotFound(path, "directory unknown to HAC")
        return uid

    def _chain_uids(self, dirpath: str) -> List[int]:
        """UIDs of every directory from the root down to *dirpath*."""
        uids: List[int] = []
        canon = self._canonical_dir(dirpath)
        for p in list(pathutil.ancestors(canon)) + [canon]:
            uid = self.dirmap.uid_of(p)
            if uid is not None:
                uids.append(uid)
        return uids

    def _persist_maps(self) -> None:
        self.meta.flush_aux("globalmap",
                            {str(u): p for u, p in self.dirmap.items()})

    def _planned_path(self, path: str) -> str:
        """Canonical path a not-yet-created entry will get (for intents)."""
        parent, name = pathutil.split(path)
        try:
            parent = self._canonical_dir(parent)
        except Exception:
            pass
        return pathutil.join(parent, name)

    @contextmanager
    def _journaled(self, op: str, payload: Dict[str, object]):
        """Run a multi-structure mutation under a write-ahead intent.

        Commit on success; on a device crash, abandon (the wal stays on the
        device for :meth:`restore` to roll back); on any soft failure (e.g.
        a transient ENOSPC), roll back in process so the operation is fully
        absent.  Nested uses (``smkdir`` → ``mkdir``) join the outer intent.

        The whole operation runs under a ``hac.<op>`` trace span, opened
        *before* ``journal.begin`` so the journal can stamp the intent's
        sequence onto it as the span's op id — the journal↔trace
        correlation the crash sweep asserts on.  Nested uses produce nested
        spans with no op id of their own (the outer intent owns the op).
        """
        with self.obs.trace.span(f"hac.{op}", **payload):
            intent = self.journal.begin(op, payload)
            if intent is None:
                yield None
                return
            try:
                yield intent
            except DeviceCrashed:
                # the device is frozen: nothing more can be written, so leave
                # the wal in place — restore() rolls this intent back
                self.journal.abandon(intent)
                raise
            except BaseException:
                from repro.core.recovery import rollback_in_process

                try:
                    rollback_in_process(self, intent)
                except Exception:
                    # rollback itself failed (device died mid-rollback): the
                    # wal is still on the device, restore() finishes the job
                    if self.journal.active is intent:
                        self.journal.abandon(intent)
                raise
            self.journal.commit(intent)

    def reload_persisted(self) -> None:
        """Load the name space from the device records — the one loader
        behind a reopen (:meth:`restore`) and an in-process rollback (which
        just rewrote them): the global map and the per-directory states
        are read, the dependency graph is derived from the two."""
        self.meta.reload_all()
        queries = (self.meta.require(uid).query for uid in self.meta.uids())
        raw_map = self.meta.load_aux("globalmap") or {"0": "/"}
        self.dirmap.load_snapshot(
            {int(u): p for u, p in raw_map.items()},
            {ref for q in queries if q is not None for ref in q.dir_refs()})
        self.depgraph = DependencyGraph.derive(self.dirmap, self.meta)
        self.depgraph.tracer = self.obs.trace
        self._clear_attrs()

    def _library_resolve(self, path: str) -> str:
        """The §4 interposition cost: HAC is a user-level library that
        resolves every path in the personal name space before the native
        file system resolves it again.  Returns the normalised path."""
        norm = pathutil.normalize(path)
        try:
            self.fs.resolve(pathutil.dirname(norm))
        except Exception:
            pass  # the real operation will raise the precise error
        return norm

    def _invalidate_attrs(self, norm: str) -> None:
        self.attrcache.invalidate(norm)
        self._stat_identity.pop(norm, None)

    def _clear_attrs(self) -> None:
        self.attrcache.clear()
        self._stat_identity.clear()

    def _state_of(self, path: str):
        uid = self._uid_of_dir(path)
        return uid, self.meta.require(uid)

    # ==================================================================
    # intercepted hierarchical operations
    # ==================================================================

    def mkdir(self, path: str, mode: int = 0o755) -> StatResult:
        """Create a directory plus its HAC bookkeeping (map, state, node)."""
        self._hac.add("mkdir")
        with self._journaled("mkdir", {"path": self._planned_path(path)}):
            stat = self.fs.mkdir(path, mode=mode)
            canon = self._canonical_dir(path)
            uid = self.dirmap.register(canon)
            self.depgraph.add_node(uid)
            parent_uid = self.dirmap.uid_of(pathutil.dirname(canon))
            if parent_uid is not None:
                self.depgraph.set_hierarchy_edge(uid, parent_uid)
            self.meta.create(uid)
            self._persist_maps()
        return stat

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        norm = pathutil.normalize(path)
        built = "/"
        for comp in pathutil.split_components(norm):
            built = pathutil.join(built, comp)
            if not self.fs.exists(built):
                self.mkdir(built, mode=mode)

    def rmdir(self, path: str) -> None:
        self._hac.add("rmdir")
        canon = self._canonical_dir(path)
        with self._journaled("rmdir", {"path": canon}):
            self.fs.rmdir(canon)
            uid = self.dirmap.uid_of(canon)
            if uid is not None:
                self.dirmap.unregister(canon)
                self.depgraph.remove_node(uid)
                self.meta.drop(uid)
                self.semmounts.drop_uid(uid)
            self._invalidate_attrs(canon)
            self._persist_maps()

    def create(self, path: str, mode: int = 0o644) -> StatResult:
        """Create a file; HAC also primes the attribute cache (§4)."""
        self.admission.admit_write(path)
        self._hac.add("create")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.create", path=path)
        norm = self._library_resolve(path)
        stat = self.fs.create(path, mode=mode)
        self.attrcache.put(norm, stat.attrs)
        self._stat_identity[norm] = (stat.fsid, stat.ino, stat.type)
        self.watches.on_content_changed(norm)
        return stat

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        self.admission.admit_write(path)
        self._hac.add("write_file")
        norm = self._library_resolve(path)
        n = self.fs.write_file(path, data, append=append)
        # maintain (rather than drop) the attribute-cache entry: HAC owns
        # the write path, so the fresh attributes are known here (§4)
        stat = self.fs.lstat(path)
        self.attrcache.put(norm, stat.attrs)
        self._stat_identity[norm] = (stat.fsid, stat.ino, stat.type)
        self.watches.on_content_changed(norm)
        return n

    def read_file(self, path: str) -> bytes:
        """Read a file; remote links fetch through their name space."""
        self._hac.add("read_file")
        self._library_resolve(path)
        res = self.fs.resolve(path, follow=False)
        if isinstance(res.node, SymlinkNode) and "://" in res.node.target:
            namespace, _, doc = res.node.target.partition("://")
            ns = self.semmounts.require(namespace)
            return ns.fetch(doc).encode("utf-8")
        return self.fs.read_file(path)

    def truncate(self, path: str, size: int = 0) -> None:
        self.admission.admit_write(path)
        self.fs.truncate(path, size)
        self._invalidate_attrs(pathutil.normalize(path))
        self.watches.on_content_changed(pathutil.normalize(path))

    def unlink(self, path: str) -> None:
        """Remove a file or link; deleting a tracked link in a semantic
        directory records a prohibition (§2.3)."""
        self._hac.add("unlink")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.unlink", path=path)
        res = self.fs.resolve(path, follow=False)
        norm = pathutil.normalize(path)
        parent_dir, name = pathutil.split(norm)
        if isinstance(res.node, SymlinkNode):
            uid = self.dirmap.uid_of(self._canonical_dir(parent_dir))
            state = self.meta.get(uid) if uid is not None else None
            if state is not None and state.is_semantic \
                    and state.links.target_of(name) is not None:
                state.links.prohibit(name)
                self.fs.unlink(path)
                self._flush_links(uid, state)
                self._hac.add("prohibitions")
                # the directory's own result changed too: refresh it (the
                # prohibition keeps the link out) and cascade to dependents
                self.consistency.on_scope_changed([uid], include_origins=True)
                return
            self.fs.unlink(path)
            self._invalidate_attrs(norm)
            self.consistency.on_scope_changed(self._chain_uids(parent_dir))
            return
        key = (res.fs.fsid, res.node.ino) if isinstance(res.node, FileNode) \
            else None
        self.fs.unlink(path)
        self._invalidate_attrs(norm)
        # the index entry lingers until reindex (data inconsistency, §2.4) —
        # unless a watch covers the file, which withdraws it immediately
        if key is not None:
            self.watches.on_file_removed(key, parent_dir)
        self.consistency.on_scope_changed(self._chain_uids(parent_dir))

    def symlink(self, target: str, linkpath: str) -> StatResult:
        """Create a link; inside a semantic directory it becomes permanent
        (and lifts any prohibition on its target, §2.3)."""
        self._hac.add("symlink")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.symlink", target=target, link=linkpath)
        stat = self.fs.symlink(target, linkpath)
        parent_dir, name = pathutil.split(linkpath)
        uid = self.dirmap.uid_of(self._canonical_dir(parent_dir))
        state = self.meta.get(uid) if uid is not None else None
        if state is not None and state.is_semantic:
            resolved = self._target_of_link_text(target)
            if resolved is not None:
                state.links.add_permanent(name, resolved)
                self._flush_links(uid, state)
                self._hac.add("permanent_links")
            # its own result grew too (a transient link to the file gives way)
            self.consistency.on_scope_changed([uid], include_origins=True)
        else:
            self.consistency.on_scope_changed(self._chain_uids(parent_dir))
        return stat

    def _flush_links(self, uid: int, state) -> None:
        """A hand edit of the link tables and the result it implies change
        together — in memory, and in the one record write."""
        state.result_cache = self.consistency.ids_of(state.links.all_targets())
        self.meta.flush(uid)

    def _target_of_link_text(self, text: str) -> Optional[Target]:
        if "://" in text:
            namespace, _, doc = text.partition("://")
            return Target.remote(namespace, doc)
        try:
            res = self.fs.resolve(text, follow=True)
        except Exception:
            return None
        if isinstance(res.node, FileNode):
            return Target.local(res.fs.fsid, res.node.ino)
        return None

    def rename(self, old: str, new: str) -> None:
        """Move anything; directory moves update the global map so queries
        referencing the moved directories stay valid (§2.5)."""
        self._hac.add("rename")
        res = self.fs.resolve(old, follow=False)
        moving_dir = res.node.is_dir
        old_canon = self._canonical_dir(old) if moving_dir else None
        old_norm, new_norm = pathutil.normalize(old), pathutil.normalize(new)
        origins = self._chain_uids(pathutil.dirname(old_norm))
        payload = {"old": old_canon if moving_dir else old_norm,
                   "new": self._planned_path(new_norm), "dir": moving_dir}
        with self._journaled("rename", payload):
            self.fs.rename(old, new)
            if moving_dir:
                new_canon = self._canonical_dir(new)
                self.dirmap.rename_subtree(old_canon, new_canon)
                # the edge first: a move the graph refuses as a cycle must
                # not have touched the engine, which no rollback rewinds
                moved_uid = self.dirmap.uid_of(new_canon)
                new_parent_uid = self.dirmap.uid_of(pathutil.dirname(new_canon))
                if moved_uid is not None and new_parent_uid is not None:
                    self.depgraph.set_hierarchy_edge(moved_uid, new_parent_uid)
                # one-pass path rebase alongside the path map: registry
                # paths and CAS prefix keys follow the moved subtree
                # immediately, so scope: queries stay correct without
                # waiting for an ssync to notice the drift
                self.engine.rebase_paths(old_canon, new_canon)
                self._clear_attrs()
                self._persist_maps()
                if moved_uid is not None:
                    origins.append(moved_uid)
            else:
                self._invalidate_attrs(old_norm)
                self._invalidate_attrs(new_norm)
                if isinstance(res.node, FileNode):
                    key = (res.fs.fsid, res.node.ino)
                    live = self.path_for_target(Target.local(*key))
                    if live is not None and not self.watches.on_file_moved(key, live):
                        self.maintenance.note_rename(key, live)
            origins.extend(self._chain_uids(pathutil.dirname(new_norm)))
            self.consistency.on_scope_changed(origins)

    # -- pass-throughs with caching ------------------------------------------

    def stat(self, path: str) -> StatResult:
        """Stat with the shared attribute cache in front (§4, Scan phase)."""
        self._hac.add("stat")
        norm = pathutil.normalize(path)
        cached = self.attrcache.get(norm)
        identity = self._stat_identity.get(norm)
        if cached is not None and identity is not None:
            if self.obs.trace.enabled:
                self.obs.trace.event("hac.stat", path=norm, cache="hit")
            fsid, ino, node_type = identity
            return StatResult(fsid, ino, node_type, cached)
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.stat", path=norm, cache="miss")
        stat = self.fs.stat(path)
        self.attrcache.put(norm, stat.attrs)
        self._stat_identity[norm] = (stat.fsid, stat.ino, stat.type)
        return stat

    def lstat(self, path: str) -> StatResult:
        return self.fs.lstat(path)

    def listdir(self, path: str) -> List[str]:
        return self.fs.listdir(path)

    def readlink(self, path: str) -> str:
        return self.fs.readlink(path)

    def exists(self, path: str, follow: bool = True) -> bool:
        return self.fs.exists(path, follow=follow)

    def isdir(self, path: str) -> bool:
        return self.fs.isdir(path)

    def isfile(self, path: str) -> bool:
        return self.fs.isfile(path)

    def islink(self, path: str) -> bool:
        return self.fs.islink(path)

    def chmod(self, path: str, mode: int) -> None:
        self.fs.chmod(path, mode)
        self._invalidate_attrs(pathutil.normalize(path))

    # -- descriptor I/O through the per-process table ---------------------------

    def open(self, path: str, mode: str = "r") -> int:
        # write modes create a missing file and "w" truncates a present one
        if mode != "r":
            self.admission.admit_write(path)
        self._hac.add("open")
        self._library_resolve(path)
        fd = self.fs.open(self.fdtable, path, mode)
        if mode != "r":
            self._invalidate_attrs(pathutil.normalize(path))
        return fd

    def read(self, fd: int, size: int = -1) -> bytes:
        return self.fs.read(self.fdtable, fd, size)

    def write(self, fd: int, data: bytes) -> int:
        of = self.fdtable.get(fd)
        live = of.fs.path_of_ino(of.node.ino)
        self.admission.admit_write(live or "")
        n = self.fs.write(self.fdtable, fd, data)
        if live is not None:
            self._invalidate_attrs(live)
            self.watches.on_content_changed(live)
        return n

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self.fs.lseek(self.fdtable, fd, offset, whence)

    def close(self, fd: int) -> None:
        self.fs.close(self.fdtable, fd)

    # ==================================================================
    # semantic operations
    # ==================================================================

    def smkdir(self, path: str, query: str, resolve_dir=None) -> str:
        """Create a semantic directory: a real directory with a query.

        *resolve_dir* overrides how the query's directory references map
        to UIDs (the tenant facade resolves them inside its namespace).
        """
        self._hac.add("smkdir")
        # one intent for the whole operation — the nested mkdir/set_query
        # intents join it, so a crash anywhere undoes the directory entirely
        with self._journaled("smkdir",
                             {"path": self._planned_path(path),
                              "query": query}):
            self.mkdir(path)
            canon = self._canonical_dir(path)
            self.set_query(canon, query, resolve_dir=resolve_dir)
        return canon

    def set_query(self, path: str, query: Optional[str],
                  resolve_dir=None) -> None:
        """Attach, change, or (with None) detach a directory's query."""
        self._hac.add("set_query")
        uid, state = self._state_of(path)
        canon = self.dirmap.path_of(uid)
        # parse before opening the intent: a syntax error is not a mutation
        ast = None if query is None \
            else parse_query(query, resolve_dir=resolve_dir
                             if resolve_dir is not None
                             else self.dirmap.uid_of)
        with self._journaled("set_query", {"path": canon, "query": query}):
            # validate/settle reference edges first: a cycle must leave the
            # old query fully intact
            self.depgraph.set_reference_edges(
                uid, () if ast is None else ast.dir_refs())
            if ast is None:
                # detach: drop transient links, keep permanent/prohibited
                for name in list(state.links.transient):
                    entry = pathutil.join(canon, name)
                    if self.fs.islink(entry):
                        self.fs.unlink(entry)
                state.links.clear_transient()
                state.result_cache = state.result_cache.__class__()
            state.query, state.query_text = ast, query
            self.meta.flush(uid)
            self.consistency.on_scope_changed([uid],
                                              include_origins=ast is not None)

    def get_query(self, path: str) -> Optional[str]:
        """The directory's query, rendered with *current* directory paths —
        references are stored as UIDs, so renames update what this shows."""
        _uid, state = self._state_of(path)
        if state.query is None:
            return None
        return state.query.to_text(self.dirmap.path_of)

    def is_semantic(self, path: str) -> bool:
        try:
            _uid, state = self._state_of(path)
        except (FileNotFound, KeyError):
            return False
        return state.is_semantic

    def links(self, path: str) -> Dict[str, Tuple[str, str]]:
        """Classified listing: name → (classification, target display)."""
        _uid, state = self._state_of(path)
        out: Dict[str, Tuple[str, str]] = {}
        for name, target in state.links.permanent.items():
            out[name] = ("permanent", str(target))
        for name, target in state.links.transient.items():
            out[name] = ("transient", str(target))
        return out

    def prohibited(self, path: str) -> List[str]:
        _uid, state = self._state_of(path)
        return sorted(str(t) for t in state.links.prohibited)

    def query_paths(self, ast, scope: Optional[str] = None,
                    consistency: str = "strong",
                    tenant: Optional[str] = None) -> List[str]:
        """Host paths of the documents matching a parsed query, unsorted
        — the one answer path behind every ad-hoc ``glimpse``.  The
        answer stays a bitmap until the last line, where the answering
        surface's registry gathers its paths in bulk.

        ``strong`` drains pending maintenance first (only *tenant*'s
        bucket when one is named) and answers from the live engine;
        ``snapshot`` answers from the last published version with no
        barrier at all.  *scope* is the directory whose provided scope
        bounds the answer — resolved after the barrier, because provided
        scopes read engine state — or ``None`` for everything the
        answering surface holds.
        """
        if consistency not in ("strong", "snapshot"):
            raise ValueError(f"unknown consistency level: {consistency!r}")
        if consistency == "snapshot":
            surface = self.engine.snapshot_view()
            span = self.obs.trace.span("hac.glimpse_snapshot",
                                       version=surface.version,
                                       skew=getattr(surface, "skew", 0))
        else:
            self.maintenance.barrier(tenant=tenant)
            surface, span = self.engine, NOOP_SPAN
        bitmap = None
        if scope is not None:
            # the live scope may name documents newer than a cut
            bitmap = self.scopes.provided(scope).local & surface.all_docs()
        with span:
            hits = evaluator.evaluate(
                ast, surface, scope=bitmap,
                resolve_dirref=lambda uid: self.scopes.provided_by_uid(uid).local)
            span.set(hits=len(hits))
        return surface.paths_of(hits)

    def health(self, path: Optional[str] = None) -> Dict[str, object]:
        """One structured degradation report for the whole name space —
        the *only* status surface (the pre-PR 5 per-probe accessors are
        gone)::

            {"backends":    {ns_id: breaker state},          # semantic mounts
             "shards":      {shard_id: health},              # search back-end
             "tenants":     {name: {usage, quota, pending}}, # namespaces
             "cascades":    {cascades, reevaluations,        # consistency
                             scope_reads, unchanged},        # counters
             "directories": {dir_path: {
                 "degraded_remote": {ns_id: since},
                 "degraded_shards": {shard_id: since},
                 "degraded_links":  [link names]}}}

        Only degrading directories appear.  *path* restricts the
        ``directories`` section to one directory (still listed only when
        degrading).
        """
        self._hac.add("health")
        directories: Dict[str, Dict[str, object]] = {}
        if path is not None:
            wanted = [self._uid_of_dir(path)]
        else:
            wanted = list(self.meta.uids())
        for uid in wanted:
            state = self.meta.get(uid)
            if state is None or not (state.degraded_remote
                                     or state.degraded_shards):
                continue
            dir_path = self.dirmap.path_of(uid)
            if dir_path is None:
                continue
            directories[dir_path] = {
                "degraded_remote": dict(state.degraded_remote),
                "degraded_shards": dict(state.degraded_shards),
                "degraded_links": self._degraded_link_names(state),
            }
        breakers: Dict[str, object] = {
            ns_id: b.describe() for ns_id, b in self.semmounts.breakers().items()
        }
        engine_breakers = getattr(self.engine, "breakers", None)
        if callable(engine_breakers):
            for b in engine_breakers().values():
                breakers[b.name] = b.describe()
        return {"backends": self.semmounts.health(),
                "shards": self.engine.health(),
                "snapshots": self.engine.snapshot_info(),
                "breakers": breakers,
                "admission": self.admission.status(),
                "tenants": self.tenants.describe(),
                "cascades": {name: self.counters.get(f"consistency.{name}")
                             for name in ("cascades", "reevaluations",
                                          "scope_reads", "unchanged")},
                "directories": directories}

    def describe_scope(self, path: str) -> Dict[str, object]:
        """Scope composition for one directory, with its degradation state.

        Merges :meth:`Scope.describe` (local/remote/namespaces — what the
        directory provides) with the same per-directory degradation entry
        :meth:`health` reports, so the shell's scope display and
        ``hac.health()`` can never disagree about what a scope contains
        or which parts of it are degraded.
        """
        norm = self._canonical_dir(path)
        out: Dict[str, object] = dict(self.scopes.provided(norm).describe())
        entry = self.health(norm)["directories"].get(norm)
        out["degraded_remote"] = dict(entry["degraded_remote"]) if entry else {}
        out["degraded_shards"] = dict(entry["degraded_shards"]) if entry else {}
        return out

    def _degraded_link_names(self, state) -> List[str]:
        degraded_ns = set(state.degraded_remote)
        out = [name for name, t in state.links.transient.items()
               if t.is_remote and t.realm in degraded_ns]
        degraded_shards = set(state.degraded_shards)
        if degraded_shards:
            out.extend(name for name, t in state.links.transient.items()
                       if t.is_local
                       and self.engine.shard_of(t.key) in degraded_shards)
        return sorted(out)

    def classify(self, link_path: str) -> Optional[str]:
        """'permanent' | 'transient' | None for one directory entry."""
        parent, name = pathutil.split(link_path)
        _uid, state = self._state_of(parent)
        if name in state.links.permanent:
            return "permanent"
        if name in state.links.transient:
            return "transient"
        return None

    def make_permanent(self, link_path: str) -> None:
        """Promote a transient link so re-evaluation can never drop it
        (part of the paper's sophisticated-user API).

        Journaled like every other multi-structure mutation: the promote
        is only real once the state record lands, so a failed or torn
        flush rolls the in-memory classification back too — the chaos
        soak caught the un-journaled version persisting "permanent" in
        memory only, which a later crash silently demoted.
        """
        parent, name = pathutil.split(link_path)
        uid, state = self._state_of(parent)
        if name not in state.links.transient:
            raise InvalidArgument(link_path, "not a transient link")
        with self._journaled("make_permanent",
                             {"path": self.dirmap.path_of(uid),
                              "link": name}):
            state.links.add_permanent(name, state.links.forget(name))
            self.meta.flush(uid)

    def unprohibit(self, dir_path: str, target_text: str) -> bool:
        """Lift a tombstone: *target_text* is a path or ``ns://doc`` URI."""
        uid, state = self._state_of(dir_path)
        target = self._target_of_link_text(target_text)
        if target is None:
            return False
        lifted = state.links.unprohibit(target)
        if lifted:
            self._flush_links(uid, state)
            self.consistency.on_scope_changed([uid], include_origins=True)
        return lifted

    def sact(self, link_path: str) -> List[str]:
        """Extract the query-matching lines of a link's file (§4's ``sact``)."""
        self._hac.add("sact")
        parent, name = pathutil.split(link_path)
        _uid, state = self._state_of(parent)
        if not state.is_semantic:
            raise NotASemanticDirectory(parent)
        target = state.links.target_of(name)
        if target is None:
            raise FileNotFound(link_path, "not a tracked link")
        if target.is_remote:
            ns = self.semmounts.require(target.realm)
            text = ns.fetch(target.ident)
        else:
            text = self._load_doc(target.key)
        return agrep.matching_lines(text, content_projection(state.query))

    # ==================================================================
    # mounts
    # ==================================================================

    def mount(self, path: str, other: FileSystem) -> None:
        """Syntactic mount: graft *other* at *path* and adopt its
        directories into the HAC name space."""
        self._hac.add("mount")
        canon = self._canonical_dir(path)
        self.fs.mount(canon, other)
        self._fs_registry[other.fsid] = (other, canon)
        # adopt every directory of the mounted tree into map/graph/state
        for dirpath, _dirs, _files, _listed in walk(self.fs, canon):
            if self.dirmap.uid_of(dirpath) is None:
                uid = self.dirmap.register(dirpath)
                self.depgraph.add_node(uid)
                parent_uid = self.dirmap.uid_of(pathutil.dirname(dirpath))
                if parent_uid is not None:
                    self.depgraph.set_hierarchy_edge(uid, parent_uid)
                self.meta.create(uid)
        self._persist_maps()
        self.consistency.on_scope_changed(self._chain_uids(canon))

    def unmount(self, path: str) -> FileSystem:
        self._hac.add("unmount")
        canon = self._canonical_dir(path)
        detached = self.fs.unmount(canon)
        self._fs_registry.pop(detached.fsid, None)
        for uid in self.dirmap.subtree_uids(canon, strict=True):
            sub_path = self.dirmap.path_of(uid)
            self.dirmap.unregister(sub_path)
            self.depgraph.remove_node(uid)
            self.meta.drop(uid)
            self.semmounts.drop_uid(uid)
        self._persist_maps()
        self.consistency.on_scope_changed(self._chain_uids(canon))
        return detached

    def smount(self, path: str, namespace: NameSpace) -> None:
        """Semantic mount: bind a remote query system at *path* (§3.1)."""
        self._hac.add("smount")
        canon = self._canonical_dir(path)
        self.semmounts.mount(canon, namespace)
        self.consistency.on_scope_changed(self._chain_uids(canon),
                                          include_origins=True)

    def sunmount(self, path: str, namespace_id: Optional[str] = None) -> None:
        self._hac.add("sunmount")
        canon = self._canonical_dir(path)
        self.semmounts.unmount(canon, namespace_id)
        self.consistency.on_scope_changed(self._chain_uids(canon),
                                          include_origins=True)

    # ==================================================================
    # data consistency
    # ==================================================================

    def _publish_engine(self) -> None:
        """Publish a snapshot after an engine-mutating operation — but
        never while an intent is still open: a publish inside an intent
        could ship ops to replicas that an in-process rollback then cannot
        take back.  When this runs nested (``ssync`` → ``reindex``), the
        inner call is a no-op and the outer one publishes at commit."""
        if self.journal.active is not None:
            return
        version = self.engine.publish()
        self.journal.note_publish(version)

    def _persist_segments(self, force_seal: bool = False,
                          force_compact: bool = False) -> None:
        """Seal/compact the engine's segment store and sync it to disk
        (:meth:`~repro.cba.segments.SegmentStore.sync`).  MUST run inside
        an open journal intent: the store's record writes and deletes are
        then pre-imaged, so a crash at any of them rolls the whole segment
        list back.  The scheduler calls this from every ``sched_batch``
        drain (threshold-policed); ``reindex`` forces a full seal + merge
        — reindex *is* compaction in the segmented design.  Engines
        without a store (clusters, segments-off) make this a no-op."""
        store = getattr(self.engine, "segments", None)
        if store is not None:
            store.sync(self.fs.device,
                       getattr(self.engine, "_next_doc_id", 0),
                       self.obs.trace,
                       force_seal=force_seal, force_compact=force_compact)

    def reindex(self, path: str = "/") -> ReindexPlan:
        """Reindex the files under *path* (crossing syntactic mounts)."""
        self._hac.add("reindex")
        # drain pending maintenance first: the tree walk below must see the
        # engine state those events (and their reserved doc ids) produce
        self.maintenance.barrier()
        canon = self._canonical_dir(path)
        current: List[Tuple[Tuple[str, int], str, float]] = []
        for dirpath, _dirs, filenames, (owner, dirnode) in walk(self.fs, canon):
            for name in filenames:
                node = dirnode.entries[name]
                if isinstance(node, FileNode):
                    current.append(((owner.fsid, node.ino),
                                    pathutil.join(dirpath, name),
                                    node.attrs.mtime))
        current_keys = {key for key, _p, _m in current}
        previous = {}
        for key, mtime in self.engine.mtime_snapshot().items():
            doc = self.engine.doc_by_key(key)
            in_subtree = doc is not None and pathutil.is_ancestor(
                canon, doc.path, strict=False)
            if in_subtree or key in current_keys:
                previous[key] = mtime
        with self._journaled("reindex", {"path": canon}):
            plan = self.engine.reindex(current, previous=previous)
            # reindex-as-merge: everything the reindex noted is sealed and
            # the frozen list folded to one segment, inside this intent
            self._persist_segments(force_seal=True, force_compact=True)
        self._publish_engine()
        return plan

    def ssync(self, path: str = "/") -> ReindexPlan:
        """Reindex *path* and re-evaluate every dependent directory —
        the paper's ``ssync`` command plus the §2.4 settle-everything pass."""
        self._hac.add("ssync")
        self.maintenance.barrier()
        canon = self._canonical_dir(path)
        with self._journaled("ssync", {"path": canon}):
            plan = self.reindex(path)
            if canon == "/":
                self.consistency.reevaluate_all()
            else:
                self.consistency.on_scope_changed(self._chain_uids(canon),
                                                  include_origins=True)
        self._publish_engine()
        return plan

    def fsck(self, repair: bool = False):
        """Audit the agreement of the VFS tree, global map, MetaStore,
        dependency graph, and index; optionally repair the safe cases.
        Returns a list of :class:`repro.core.fsck.Finding`."""
        from repro.core.fsck import hacfsck

        self._hac.add("fsck")
        self.maintenance.barrier()
        return hacfsck(self, repair=repair)

    def watch(self, path: str) -> str:
        """Keep the subtree at *path* index-fresh on every mutation
        (eager data consistency — the §2.4 'as soon as new mail comes in'
        policy).  Returns the watch root."""
        self._hac.add("watch")
        return self.watches.add(path)

    def unwatch(self, path: str) -> bool:
        self._hac.add("unwatch")
        return self.watches.remove(path)

    def adopt_engine(self, engine) -> None:
        """Swap in a different CBA engine — e.g. a freshly built
        :class:`~repro.cluster.ShardedSearchCluster` (the shell's
        ``smkcluster``) — and bring it in line with the tree: the new
        engine is wired into the observability plane, the corpus is
        (re)indexed into it, and every semantic directory is re-evaluated.
        """
        self._hac.add("adopt_engine")
        # drain into the *old* engine first: pending entries carry doc ids
        # reserved against it, and the new engine re-derives everything
        # from the tree during the ssync below anyway
        self.maintenance.barrier()
        self.engine = engine
        self._wire_obs()
        self.ssync("/")

    # ==================================================================
    # reporting / durability
    # ==================================================================

    def save_index(self) -> int:
        """Persist the content index to the device (Glimpse's index files).

        :meth:`restore` will then rebuild the engine without re-reading the
        corpus — recovery cost drops from Θ(corpus) to Θ(changes since the
        save).  Returns the persisted record size in bytes.
        """
        self._hac.add("save_index")
        from repro.util import serialization

        self.maintenance.barrier()
        record = serialization.dumps(self.engine.to_obj())
        with self._journaled("save_index", {}):
            self.fs.device.write_record("cbaindex", record)
        return len(record)

    def metadata_bytes(self) -> int:
        return self.meta.metadata_bytes()

    def shared_memory_bytes(self) -> int:
        """Attribute cache + fd table footprint (the paper's ~16 KB/process)."""
        return self.attrcache.approximate_bytes() + self.fdtable.approximate_bytes()

    def semantic_dirs(self) -> List[str]:
        out = []
        for uid in self.meta.uids():
            state = self.meta.get(uid)
            if state is not None and state.is_semantic:
                path = self.dirmap.path_of(uid)
                if path is not None:
                    out.append(path)
        return sorted(out)

    @classmethod
    def restore(cls, fs: FileSystem,
                clock: Optional[VirtualClock] = None,
                counters: Optional[Counters] = None,
                reuse_index: bool = True,
                obs: Optional[Observability] = None,
                backend=None) -> "HacFileSystem":
        """Rebuild a HAC file system from the records persisted on *fs*'s
        device (crash recovery / reopen).

        The reopen doubles as the crash-recovery path: any fault plan on the
        device is lifted (the reboot), incomplete journal intents are rolled
        back at the record level, and the VFS tree is reconciled against the
        healed records before anything is rebuilt — see
        :mod:`repro.core.recovery`; the report lands in ``last_recovery``.

        Link classifications and queries come back verbatim; the content
        index is restored from the persisted copy when one exists (see
        :meth:`save_index`), else — for a segmented monolith — merged back
        from the persisted segment list with zero tokenisation
        (reindex-as-merge), and brought current by an incremental sync;
        it is rebuilt from scratch only when neither record exists.  All
        three go through the one *backend* factory, with the block count
        the original instance persisted.  An *unreadable* ``cbaindex``
        record is neither: it raises :class:`~repro.errors.CorruptRecord`
        (and counts ``restore.index_corrupt``) instead of silently
        rebuilding — a checksum failure means data loss the caller must
        acknowledge (``reuse_index=False`` opts into the rebuild)."""
        from repro.core.recovery import (RecoveryReport, recover_records,
                                         undo_tree)

        hacfs = cls.__new__(cls)
        hacfs._init_base(fs, clock, counters, obs)
        fs.device.clear_faults()  # the reboot: the device comes back up
        # the reopened instance resolves paths itself from here on; cached
        # generations from the pre-crash instance must not survive the reboot
        # (a pinned fsid would otherwise revalidate them as live)
        fs.reset_path_map()
        fs.tracer = hacfs.obs.trace
        fs.device.tracer = hacfs.obs.trace
        report = RecoveryReport()
        with hacfs.obs.trace.span("hac.recover") as span:
            pending = recover_records(hacfs.journal, report)
            span.set(rolled_back=len(pending))
        hacfs.last_recovery = report
        hacfs._init_components()
        hacfs.reload_persisted()
        # tree-level undo needs map + states loaded, but not the engine
        undo_tree(hacfs, pending, report)
        restore_stats = hacfs.counters.scoped("restore")
        saved = None
        if reuse_index:
            try:
                saved = hacfs.meta.load_aux("cbaindex")
            except CorruptRecord:
                restore_stats.add("index_corrupt")
                raise
        if backend is None and isinstance(saved, dict) and saved.get("cluster"):
            # a persisted sharded index restores as a cluster even when
            # the caller did not name the backend it was built with
            backend = "cluster"
        factory = open_backend(backend)
        conf = hacfs.meta.load_aux(ENGINE_RECORD) or {}
        num_blocks = int(conf.get("num_blocks", DEFAULT_NUM_BLOCKS))
        site = hacfs._engine_site()
        if saved is not None:
            hacfs.engine = factory.from_obj(saved, **site)
            restore_stats.add("index_restored")
        elif (reuse_index and factory.folds_segments
              and (folded := SegmentStore.load(fs.device, hacfs.counters))
              is not None):
            store, next_doc = folded
            hacfs.engine = factory.from_segments(
                store, next_doc_id=next_doc, num_blocks=num_blocks, **site)
            restore_stats.add("index_from_segments")
        else:
            hacfs.engine = factory(num_blocks=num_blocks, **site)
            restore_stats.add("index_rebuilds")
        hacfs._wire_obs()
        hacfs.tenants = TenantManager(hacfs)
        hacfs.tenants.reload()
        # a saved index makes this incremental (Θ(changes), not Θ(corpus))
        hacfs.ssync("/")
        return hacfs

"""HacFileSystem — the user-level interposition layer (paper §4).

The paper implemented HAC as a dynamically linked library intercepting all
file-system calls for a user's personal name space, with no kernel changes.
This class is that library: every user-visible operation goes through it,
and each one carries the extra HAC work the paper describes:

* ``mkdir`` and ``rmdir`` resolve the path in the personal name space and
  make the VFS call — the Makedir overhead of Table 1.  A directory gets a
  uid and a record only once something names it: a query, a semantic
  directory placed in it, or a semantic mount (docs/SEMANTICS.md §1);
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

from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptRecord,
    DeviceCrashed,
    FileExists,
    FileNotFound,
    InvalidArgument,
    NotADirectory,
    NotASemanticDirectory,
    VfsError,
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
from repro.cba.queryast import content_projection, rewrite_dir_refs
from repro.cba.queryparser import parse_query
from repro.cba.segments import MANIFEST_RECORD, SegmentStore
from repro.cba.transducers import default_transducer
from repro.core.admission import AdmissionController
from repro.core.consistency import ConsistencyManager
from repro.core.datacon import ReindexScheduler
from repro.core.depgraph import DependencyGraph
from repro.core.journal import Journal
from repro.core.links import Target
from repro.core.scheduler import MaintenanceScheduler
from repro.core.scope import ScopeResolver
from repro.core.semdir import MetaStore, SemanticDirState
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
        # the root's (empty) HAC state, the one record with no parent
        self.meta.create(GlobalDirectoryMap.ROOT_UID, None, "")
        # block placement is doc_id % num_blocks, so a reopen must rebuild
        # with the same count whichever path it takes
        self.meta.flush_aux(ENGINE_RECORD, {"num_blocks": num_blocks})
        self.tenants = TenantManager(self)
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
        return self._live_path(target.realm, target.ino) \
            if target.is_local else None

    def _live_path(self, fsid: str, ino: int) -> Optional[str]:
        """Host-name-space path of a live, attached node: symlink-free,
        with a mounted file system's prefix in front."""
        entry = self._fs_registry.get(fsid)
        if entry is None:
            return None
        owner, prefix = entry
        inner = owner.path_of_ino(ino)
        if inner is None:
            return None
        return pathutil.join(prefix, inner.lstrip("/")) if prefix else inner

    def canonical_dir(self, path: str) -> str:
        """The registered (symlink-free) path of an existing directory."""
        res = self.fs.resolve(path)
        return self._live_path(res.fs.fsid, res.node.ino) \
            or pathutil.normalize(path)

    def is_dir_path(self, path: str) -> bool:
        """*path* is a live directory's own (symlink-free) path."""
        return self.fs.isdir(path) and self.canonical_dir(path) == path

    def dir_node(self, path: str) -> Tuple[str, int]:
        """The node ``(fsid, ino)`` of the directory *path* names — what a
        watch holds, and what a change inside the directory is reported
        under: a rename keeps it, and the cascade reads its live path
        (docs/SEMANTICS.md §5)."""
        res = self.fs.resolve(path)
        if not res.node.is_dir:
            raise NotADirectory(path)
        return res.fs.fsid, res.node.ino

    def _changed(self, dirpath: str) -> None:
        """Re-evaluate what a change inside *dirpath* can reach."""
        self.consistency.on_scope_changed([self.dir_node(dirpath)])

    def _name(self, path: str, flush: bool = True) -> int:
        """The uid of the directory at the canonical *path*, minted with
        its record when nothing named it yet — inside the intent of the
        op that names it (docs/SEMANTICS.md §1).  A caller that writes the
        record itself before its intent commits passes ``flush=False``."""
        uid = self.dirmap.uid_of(path)
        if uid is None:
            uid = self.dirmap.register(path)
            self.meta.create(uid, *self.dirmap.place_of(path), flush=flush)
        return uid

    def _parse(self, query: str, host_path=None):
        """Parse *query* naming nothing, as a read must: its *n*-th
        directory reference becomes ``DirRef(n)``, and the returned list's
        *n*-th entry is that directory's path.  *host_path* maps a
        reference to a host path first (a tenant's resolve in its own name
        space)."""
        paths: List[str] = []

        def resolve(ref: str) -> Optional[int]:
            path = pathutil.normalize(host_path(ref) if host_path else ref)
            if not self.is_dir_path(path):
                return None
            paths.append(path)
            return len(paths) - 1

        return parse_query(query, resolve_dir=resolve), paths

    def _planned_path(self, path: str) -> str:
        """Canonical path a not-yet-created entry will get (for intents)."""
        parent, name = pathutil.split(path)
        try:
            parent = self.canonical_dir(parent)
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

    def reload_persisted(self, pending, report) -> None:
        """Load the name space from the device records and the tree — the
        one loader behind a reopen (:meth:`restore`) and an in-process
        rollback: the per-directory states are read, the global map and
        the dependency graph derived from them, the *pending* intents' tree
        effects undone (:func:`~repro.core.recovery.undo_tree`), and the
        transient links read from the symlinks."""
        from repro.core.recovery import undo_tree

        self.meta.reload_all()
        queries = (self.meta.require(uid).query for uid in self.meta.uids())
        self.dirmap.load_places(
            self.meta.places(),
            {ref for q in queries if q is not None for ref in q.dir_refs()})
        self.depgraph = DependencyGraph.derive(self.dirmap, self.meta)
        self.depgraph.tracer = self.obs.trace
        undo_tree(self, pending, report)
        self._load_links()

    def _load_links(self) -> None:
        """Every symlink in a semantic directory that is not a permanent
        name is a transient link (:meth:`LinkSets.adopt`): each directory
        is resolved once and each link's text once.  Debris — a text that
        names no file, or a target another name holds — is unlinked; a
        link to a directory is the user's, and stays."""
        for path in filter(self.fs.isdir, self.semantic_dirs()):
            state = self.meta.require(self.dirmap.uid_of(path))
            entries = self.fs.resolve(path).node.entries  # type: ignore[union-attr]
            for name in state.links.adopt(
                    entries, lambda text: self.scopes.link_target(path, text)):
                entry = pathutil.join(path, name)
                if not self.fs.isdir(entry):
                    self.fs.unlink(entry)

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

    def _wrote(self, norm: str, stat: StatResult) -> str:
        """Cache the written node's key (§4) and return its live path for
        the watch: a write through a symlink lands where the target is."""
        self.attrcache.put((stat.fsid, stat.ino))
        return self._live_path(stat.fsid, stat.ino) or norm

    def _state_of(self, path: str):
        """The uid and record of the directory *path* names — or, for one
        nothing names, no uid and the empty record of a plain directory."""
        uid = self.dirmap.uid_of(self.canonical_dir(path))
        if uid is not None:
            return uid, self.meta.require(uid)
        self.dir_node(path)     # a directory, or raise
        return None, SemanticDirState(None)

    # ==================================================================
    # intercepted hierarchical operations
    # ==================================================================

    def mkdir(self, path: str, mode: int = 0o755) -> StatResult:
        """Create a directory: the VFS call behind the library's own
        resolution (§4).  Nothing names it yet, so HAC writes nothing."""
        self._hac.add("mkdir")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.mkdir", path=path)
        self._library_resolve(path)
        return self.fs.mkdir(path, mode=mode)

    def _forget_dir(self, path: str) -> int:
        """A removed directory's uid, graph node and semantic mounts go;
        returns the uid, whose record the caller drops."""
        uid = self.dirmap.unregister(path)
        if uid in self.depgraph:
            self.depgraph.remove_node(uid)
        self.semmounts.drop_uid(uid)
        return uid

    def makedirs(self, path: str, mode: int = 0o755) -> None:
        """``mkdir -p``: each missing directory as ``mkdir`` makes it."""
        built = "/"
        for comp in pathutil.split_components(pathutil.normalize(path)):
            built = pathutil.join(built, comp)
            if not self.fs.exists(built):
                self.mkdir(built, mode=mode)

    def rmdir(self, path: str) -> None:
        """Remove a directory: the VFS call, and — when something named
        it — its uid and record, under an intent."""
        self._hac.add("rmdir")
        canon = self.canonical_dir(path)
        uid = self.dirmap.uid_of(canon)
        if uid is None:
            self.fs.rmdir(canon)
            return
        with self._journaled("rmdir", {"path": canon}):
            # the record goes first: a failure at its writes leaves the
            # directory untouched — the very node a watch follows
            self.meta.drop(uid)
            self.fs.rmdir(canon)
            self._forget_dir(canon)

    def create(self, path: str, mode: int = 0o644) -> StatResult:
        """Create a file; HAC also primes the attribute cache (§4)."""
        self.admission.admit_write(path)
        self._hac.add("create")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.create", path=path)
        norm = self._library_resolve(path)
        stat = self.fs.create(path, mode=mode)
        self.watches.on_content_changed(self._wrote(norm, stat), stat)
        return stat

    def write_file(self, path: str, data: bytes, append: bool = False) -> int:
        self.admission.admit_write(path)
        self._hac.add("write_file")
        norm = self._library_resolve(path)
        n = self.fs.write_file(path, data, append=append)
        # maintain (rather than drop) the attribute-cache entry: HAC owns
        # the write path, so the fresh attributes are known here (§4)
        stat = self.fs.stat(path)
        self.watches.on_content_changed(self._wrote(norm, stat), stat)
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
        stat = self.fs.truncate(path, size)
        self.watches.on_content_changed(
            self._wrote(pathutil.normalize(path), stat), stat)

    def unlink(self, path: str) -> None:
        """Remove a file or link; deleting a tracked link in a semantic
        directory records a prohibition (§2.3)."""
        self._hac.add("unlink")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.unlink", path=path)
        res = self.fs.resolve(path, follow=False)
        parent_dir, name = pathutil.split(pathutil.normalize(path))
        canon_dir = self.canonical_dir(parent_dir)
        uid = self.dirmap.uid_of(canon_dir)
        state = self.meta.get(uid) if uid is not None else None
        if isinstance(res.node, SymlinkNode) and state is not None \
                and state.is_semantic \
                and state.links.target_of(name) is not None:
            # the prohibition lands before the symlink goes; a rollback
            # puts the symlink back from the intent's text
            with self._journaled("unlink",
                                 {"path": pathutil.join(canon_dir, name),
                                  "text": res.node.target}):
                state.links.prohibit(name)
                self.meta.flush(uid)
                self.fs.unlink(path)
            self._hac.add("prohibitions")
            # the directory's own result changed too: refresh it (the
            # prohibition keeps the link out) and cascade to dependents
            self.consistency.reevaluate_from(uid)
            return
        self.fs.unlink(path)
        # the index entry lingers until reindex (data inconsistency, §2.4) —
        # unless a watch covers the file and queues its withdrawal, whose
        # drain cascades from this directory.  When that cascade has a
        # semantic directory to re-evaluate, a batched queue drains now,
        # as the cascade's barrier would: a link to the file must not
        # outlive it.  Either way the unlink cascades at most once.
        if isinstance(res.node, FileNode) and self.watches.on_file_removed(
                (res.fs.fsid, res.node.ino), parent_dir):
            if self.maintenance.pending and \
                    self.consistency.reaches([self.dir_node(canon_dir)]):
                self.maintenance.barrier()
        else:
            self._changed(canon_dir)

    def symlink(self, target: str, linkpath: str) -> StatResult:
        """Create a link; inside a semantic directory it becomes permanent
        (and lifts any prohibition on its target, §2.3)."""
        self._hac.add("symlink")
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.symlink", target=target, link=linkpath)
        parent_dir, name = pathutil.split(linkpath)
        canon_dir = self.canonical_dir(parent_dir)
        uid = self.dirmap.uid_of(canon_dir)
        state = self.meta.get(uid) if uid is not None else None
        semantic = state is not None and state.is_semantic
        resolved = self.scopes.link_target(canon_dir, target) \
            if semantic else None
        if resolved is None:
            stat = self.fs.symlink(target, linkpath)
        else:
            # a rollback removes the symlink, so it must be this op's own
            if self.fs.exists(linkpath, follow=False):
                raise FileExists(linkpath)
            with self._journaled("symlink",
                                 {"path": pathutil.join(canon_dir, name)}):
                stat = self.fs.symlink(target, linkpath)
                state.links.add_permanent(name, resolved)
                self.meta.flush(uid)
            self._hac.add("permanent_links")
        if semantic:
            # its own result grew too (a transient link to the file gives way)
            self.consistency.reevaluate_from(uid)
        else:
            self._changed(canon_dir)
        return stat

    def rename(self, old: str, new: str) -> None:
        """Move anything; directory moves update the global map so queries
        referencing the moved directories stay valid (§2.5).  A replaced
        destination goes as it would by hand: an empty directory as an
        ``rmdir``, a file as an ``unlink``.  A directory move that carries
        and replaces no named directory writes nothing, so it opens no
        intent."""
        self._hac.add("rename")
        res = self.fs.resolve(old, follow=False)
        moving_dir = res.node.is_dir
        try:
            over = None if moving_dir else self.fs.resolve(new, follow=False)
        except VfsError:
            over = None
        old_canon = self.canonical_dir(old) if moving_dir else None
        old_norm, new_norm = pathutil.normalize(old), pathutil.normalize(new)
        new_planned = self._planned_path(new_norm)
        changed, named = [self.dir_node(pathutil.dirname(old_norm))], ()
        payload = {"old": old_canon if moving_dir else old_norm,
                   "new": new_planned, "dir": moving_dir}
        journaled = not moving_dir or self.dirmap.subtree_uids(old_canon) \
            or self.dirmap.uid_of(new_planned) is not None
        with self._journaled("rename", payload) if journaled \
                else nullcontext():
            self.fs.rename(old, new)
            if moving_dir:
                new_canon = self.canonical_dir(new)
                if new_canon != old_canon \
                        and self.dirmap.uid_of(new_canon) is not None:
                    self.meta.drop(self._forget_dir(new_canon))
                moved = self.dirmap.rename_subtree(old_canon, new_canon)
                # the edge first: a move the graph refuses as a cycle must
                # not have touched the engine, which no rollback rewinds;
                # a semantic directory's new parent is named by the move
                moved_uid = self.dirmap.uid_of(new_canon)
                if moved_uid in self.depgraph:
                    self.depgraph.set_hierarchy_edge(
                        moved_uid, self._name(pathutil.dirname(new_canon)))
                # the moved directories' CAS partitions are re-keyed and
                # exactly their documents' registry paths follow at once,
                # so scope: queries stay correct without waiting for an
                # ssync to notice the drift
                self.engine.rebase_paths(old_canon, new_canon)
                # a directory placed under a moved one sits where it did:
                # only those placed outside the move get a new place
                moved_uids = {uid for uid, _old, _new in moved}
                for uid, _old, path in moved:
                    state = self.meta.get(uid)
                    if state is not None and state.parent not in moved_uids:
                        state.parent, state.name = self.dirmap.place_of(path)
                        self.meta.flush(uid)
                # every file below moved: a change inside each named
                # directory (and the old parent's reaches the rest)
                named = moved_uids
            else:
                if over is not None and over.node is not res.node \
                        and isinstance(over.node, FileNode):
                    self.watches.on_file_removed(
                        (over.fs.fsid, over.node.ino),
                        pathutil.dirname(new_norm))
                if isinstance(res.node, FileNode):
                    key = (res.fs.fsid, res.node.ino)
                    live = self.path_for_target(Target.local(*key))
                    if live is not None and not self.watches.on_file_moved(key, live):
                        self.maintenance.note_rename(key, live)
            changed.append(self.dir_node(pathutil.dirname(new_norm)))
            self.consistency.on_scope_changed(changed, named)

    # -- pass-throughs with caching ------------------------------------------

    def stat(self, path: str) -> StatResult:
        """Stat with the shared attribute cache in front (§4, Scan phase):
        the name resolves to its node as always, and a node whose key is
        cached skips the metadata read."""
        self._hac.add("stat")
        res = self.fs.resolve(path)
        key = (res.fs.fsid, res.node.ino)
        hit = self.attrcache.hit(key)
        if self.obs.trace.enabled:
            self.obs.trace.event("hac.stat", path=path,
                                 cache="hit" if hit else "miss")
        if not hit:
            res.fs.device.charge_meta_read()
            self.attrcache.put(key)
        return StatResult(res.fs.fsid, res.node.ino, res.node.type,
                          res.node.attrs.copy())

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
        self._wrote(pathutil.normalize(path), self.fs.chmod(path, mode))

    # -- descriptor I/O through the per-process table ---------------------------

    def open(self, path: str, mode: str = "r") -> int:
        # write modes create a missing file and "w" truncates a present one
        if mode != "r":
            self.admission.admit_write(path)
        self._hac.add("open")
        self._library_resolve(path)
        fd = self.fs.open(self.fdtable, path, mode)
        if mode != "r":
            of = self.fdtable.get(fd)
            self._wrote(pathutil.normalize(path), StatResult(
                of.fs.fsid, of.node.ino, of.node.type, of.node.attrs))
        return fd

    def read(self, fd: int, size: int = -1) -> bytes:
        return self.fs.read(self.fdtable, fd, size)

    def write(self, fd: int, data: bytes) -> int:
        of = self.fdtable.get(fd)
        live = self._live_path(of.fs.fsid, of.node.ino)
        self.admission.admit_write(live or "")
        n = self.fs.write(self.fdtable, fd, data)
        if live is not None:
            self.watches.on_content_changed(live, StatResult(
                of.fs.fsid, of.node.ino, of.node.type, of.node.attrs))
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

        *resolve_dir* maps the query's directory references to host paths
        (the tenant facade resolves them inside its namespace).
        """
        self._hac.add("smkdir")
        # a rollback scrubs the directory at the path, so it must be this
        # op's own
        if self.fs.exists(path, follow=False):
            raise FileExists(path)
        # one intent for the whole operation — the nested set_query intent
        # joins it, so a crash anywhere undoes the directory entirely
        with self._journaled("smkdir",
                             {"path": self._planned_path(path),
                              "query": query}):
            self.mkdir(path)
            canon = self.canonical_dir(path)
            self.set_query(canon, query, resolve_dir=resolve_dir)
        return canon

    def set_query(self, path: str, query: Optional[str],
                  resolve_dir=None) -> None:
        """Attach, change, or (with None) detach a directory's query.
        Attaching names the directory, its parent and every directory the
        query references (docs/SEMANTICS.md §1); *resolve_dir* maps a
        reference to a host path first."""
        self._hac.add("set_query")
        uid, state = self._state_of(path)
        canon = self.canonical_dir(path)
        if uid is None and query is None:
            return      # nothing names it: no query to detach
        # parse before opening the intent: a syntax error is not a mutation
        ast, paths = (None, ()) if query is None \
            else self._parse(query, resolve_dir)
        with self._journaled("set_query", {"path": canon, "query": query}):
            if ast is not None:
                self._name(pathutil.dirname(canon))
                uid = self._name(canon, flush=False)   # flushed below
                state = self.meta.require(uid)
                ast = rewrite_dir_refs(ast, lambda n: self._name(paths[n]))
            # validate/settle the edges first: a cycle must leave the old
            # query fully intact
            graph, refs = self.depgraph, () if ast is None else ast.dir_refs()
            if ast is None and graph.is_semantic(uid):
                graph.remove_node(uid)
            elif uid in graph:
                graph.set_reference_edges(uid, refs)
            elif ast is not None:
                graph.add_node(uid, self.dirmap.uid_of(pathutil.dirname(canon)),
                               refs)
            if ast is None:
                # detach: drop transient links, keep permanent/prohibited
                for name in list(state.links.transient):
                    entry = pathutil.join(canon, name)
                    if self.fs.islink(entry):
                        self.fs.unlink(entry)
                state.links.clear_transient()
                state.result_cache = state.result_cache.__class__()
            elif not state.is_semantic:
                # symlinks to files the user put here before the query are
                # permanent, not the transient links a load would read
                entries = self.fs.resolve(canon).node.entries  # type: ignore[union-attr]
                for name, node in entries.items():
                    target = self.scopes.link_target(canon, node.target) \
                        if isinstance(node, SymlinkNode) else None
                    if target and name not in state.links.permanent:
                        state.links.add_permanent(name, target)
            was_semantic = state.is_semantic
            state.query, state.query_text = ast, query
            self.meta.flush(uid)
            if ast is None or (state.links.permanent and not was_semantic):
                # it provides its subtree now, or its symlinks left what
                # plain scopes read: a change at the directory
                self._changed(canon)
            else:
                self.consistency.reevaluate_from(uid)

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
        except (VfsError, KeyError):
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
                    tenant: Optional[str] = None,
                    refs: Sequence[str] = ()) -> List[str]:
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
        answering surface holds.  *refs* are the paths of the query's
        directory references (:meth:`_parse`).
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
                resolve_dirref=lambda n: self.scopes.provided(refs[n]).local)
            span.set(hits=len(hits))
        return surface.paths_of(hits)

    def glimpse(self, query: str, scope_path: str = "/",
                consistency: str = "strong") -> List[str]:
        """Ad-hoc search without creating a semantic directory — the
        'regular glimpse' usage the Table 4 bench compares against — as
        sorted host paths under the directory *scope_path* provides.

        The admission gate may first downgrade a strong read to snapshot
        while back-ends are degraded (a no-op until ``admit on``).  Scopes
        resolve through the *live* directory state at either level, so a
        snapshot read scoped to a semantic directory can mix a fresher
        membership with as-of-publish content; a snapshot read of ``/``
        answers from the whole cut, not the live root's documents.
        """
        consistency = self.admission.admit_read(consistency)
        ast, refs = self._parse(query)
        if consistency == "snapshot" and self.canonical_dir(scope_path) == "/":
            scope_path = None
        return sorted(self.query_paths(ast, scope_path, consistency,
                                       refs=refs))

    def health(self, path: Optional[str] = None) -> Dict[str, object]:
        """One structured degradation report for the whole name space —
        the *only* status surface (the pre-PR 5 per-probe accessors are
        gone)::

            {"backends":    {ns_id: breaker state},          # semantic mounts
             "shards":      {shard_id: health},              # search back-end
             "tenants":     {name: {usage, quota, pending}}, # namespaces
             "cascades":    {cascades, reevaluations,        # consistency
                             scope_reads, unchanged,         # counters
                             delta_evaluations},
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
            uid, _state = self._state_of(path)
            wanted = [uid] if uid is not None else []
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
                                          "scope_reads", "unchanged",
                                          "delta_evaluations")},
                "directories": directories}

    def describe_scope(self, path: str) -> Dict[str, object]:
        """Scope composition for one directory, with its degradation state.

        Merges :meth:`Scope.describe` (local/remote/namespaces — what the
        directory provides) with the same per-directory degradation entry
        :meth:`health` reports, so the shell's scope display and
        ``hac.health()`` can never disagree about what a scope contains
        or which parts of it are degraded.
        """
        norm = self.canonical_dir(path)
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
        target = self.scopes.link_target(self.canonical_dir(dir_path),
                                         target_text)
        if target is None:
            return False
        if target not in state.links.prohibited:
            return False
        with self._journaled("unprohibit", {"path": self.dirmap.path_of(uid),
                                            "target": target_text}):
            state.links.unprohibit(target)
            self.meta.flush(uid)
        self.consistency.reevaluate_from(uid)
        return True

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
        """Syntactic mount: graft *other* at *path*.  Its directories are
        plain ones until something names them."""
        self._hac.add("mount")
        canon = self.canonical_dir(path)
        self.fs.mount(canon, other)
        self._fs_registry[other.fsid] = (other, canon)
        self._changed(canon)

    def unmount(self, path: str) -> FileSystem:
        """Detach the file system mounted at *path*; the named directories
        it held are forgotten, and its watches end."""
        self._hac.add("unmount")
        canon = self.canonical_dir(path)
        detached = self.fs.unmount(canon)
        self._fs_registry.pop(detached.fsid, None)
        self.watches.forget_fs(detached.fsid)
        gone = self.dirmap.subtree_uids(canon, strict=True)
        for uid in gone:
            self.meta.drop(self._forget_dir(self.dirmap.path_of(uid)))
        self.consistency.on_scope_changed([self.dir_node(canon)], gone)
        return detached

    def smount(self, path: str, namespace: NameSpace) -> None:
        """Semantic mount: bind a remote query system at *path* (§3.1),
        which names the directory."""
        self._hac.add("smount")
        canon = self.canonical_dir(path)
        if self.dirmap.uid_of(canon) is None:
            with self._journaled("smount", {"path": canon}):
                self._name(canon)
        self.semmounts.mount(canon, namespace)
        self._changed(canon)

    def sunmount(self, path: str, namespace_id: Optional[str] = None) -> None:
        self._hac.add("sunmount")
        canon = self.canonical_dir(path)
        self.semmounts.unmount(canon, namespace_id)
        self._changed(canon)

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
        drain (threshold-policed); ``reindex`` and ``save_index`` force a
        full seal + merge (reindex *is* compaction).  Engines without a
        store (clusters, segments-off) make this a no-op, so their
        segments are written by :meth:`save_index` alone."""
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
        canon = self.canonical_dir(path)
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
        canon = self.canonical_dir(path)
        with self._journaled("ssync", {"path": canon}):
            plan = self.reindex(path)
            if canon == "/":
                self.consistency.reevaluate_all()
            else:
                # the reindex may have changed a file in any directory below
                self.consistency.on_scope_changed(
                    [self.dir_node(canon)],
                    self.dirmap.subtree_uids(canon, strict=True))
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
        """Persist the content index to the device (Glimpse's index files)
        as segments, and return the bytes they take there.  An engine
        with a segment store persists through it alone — the seal and
        merge ``reindex`` does — and one without (a cluster) replaces them
        with a segment per shard (:meth:`SegmentStore.freeze_live`).
        :meth:`restore` then installs the engine without re-reading the
        corpus: Θ(changes since the save), not Θ(corpus)."""
        self._hac.add("save_index")
        self.maintenance.barrier()
        store = getattr(self.engine, "segments", None)
        with self._journaled("save_index", {}):
            if store is None:
                store = SegmentStore.resume(self.fs.device, self.counters)
                store.freeze_live(self.engine)
            store.sync(self.fs.device, self.engine._next_doc_id,
                       self.obs.trace, force_seal=True, force_compact=True)
            return store.persisted_bytes(self.fs.device)

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
        back at the record level, and their structural tree effects are
        undone before the links are read — see :mod:`repro.core.recovery`;
        the report lands in ``last_recovery``.

        Queries, permanent links and prohibitions come back verbatim from
        the records, the transient links (names and texts) from the tree,
        and the closing sync re-evaluates every directory and brings the
        index current.  The index comes back through the one *backend*
        factory (a cluster's, if ``None`` and the manifest has a shard
        map), with the block count the original persisted, installed from
        its segments with zero tokenisation; a rebuild
        (``reuse_index=False``, no manifest, or one naming a missing
        segment) installs an empty store and replaces every segment on
        the device.  An *unreadable* index record raises
        :class:`~repro.errors.CorruptRecord` (counted) instead of silently
        rebuilding — a checksum failure means data loss the caller must
        acknowledge (``reuse_index=False`` opts into the rebuild)."""
        from repro.core.recovery import RecoveryReport, recover_records

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
        # the tree-level undo needs map + states loaded, but not the engine
        try:
            hacfs.reload_persisted(pending, report)
        except CorruptRecord:       # only ``semdir:`` records are read
            hacfs.counters.add("restore.semdir_corrupt")
            raise
        folded = reuse_index and SegmentStore.load(fs.device, hacfs.counters)
        store, next_doc = folded or (
            SegmentStore.resume(fs.device, hacfs.counters), 0)
        if backend is None and store.shards is not None:
            backend = "cluster"     # a saved cluster comes back as one
        factory = open_backend(backend)
        conf = hacfs.meta.load_aux(ENGINE_RECORD) or {}
        num_blocks = int(conf.get("num_blocks", DEFAULT_NUM_BLOCKS))
        site = hacfs._engine_site()
        installed = bool(folded) and factory.installs(store)
        hacfs.counters.add("restore.index_from_segments" if installed
                           else "restore.index_rebuilds")
        hacfs.engine = factory.from_segments(
            store, next_doc_id=next_doc, num_blocks=num_blocks, **site)
        hacfs._wire_obs()
        hacfs.tenants = TenantManager(hacfs)
        hacfs.tenants.reload()
        # an installed index makes this incremental (Θ(changes))
        hacfs.ssync("/")
        if not installed and getattr(hacfs.engine, "segments", None) is None \
                and MANIFEST_RECORD in fs.device.record_keys():
            hacfs.save_index()      # the rebuild replaces the saved index
        return hacfs

"""The write-side maintenance pipeline: coalescing batched index updates.

The paper keeps semantic directories fresh by periodic or on-demand
reindexing (§2.4), and our watch extension made that eager: every
mutation under a watched subtree immediately re-tokenises the file,
journals nothing, and runs the consistency cascade.  Under a write-heavy
workload — the paper's own "as soon as new mail comes in" example, at
mail volume — that is one tokenisation pass and one cascade per write,
most of them wasted on documents about to be rewritten again.

The :class:`MaintenanceScheduler` decouples the two halves.  Mutation
events (`note_upsert` / `note_remove` / `note_move`) enqueue *pending
documents*, coalescing per key with last-write-wins semantics: a file
rewritten forty times before the next drain costs one tokenisation, not
forty.  Drains happen on policy triggers —

* a **count threshold** (``max_pending`` distinct documents),
* an **op budget** (total events absorbed since the last drain),
* **backpressure** (the queue at hard ``capacity`` drains inline rather
  than ever dropping an update),
* an explicit ``ssync`` / shell ``sched drain``,
* and the **pre-query barrier**: every semantic-directory re-evaluation
  calls :meth:`barrier` first, so no search ever observes a torn batch.

A drain applies the whole batch under a single **group-commit journal
intent** (op ``sched_batch``) — one ``wal`` record set per batch instead
of per update — and runs one consistency cascade over the union of the
batch's origin directories.  A crash mid-batch rolls the records back to
the pre-batch state atomically (the crash sweep proves this); a soft
failure re-queues every entry, and the apply step is reconciliation
against the live tree, so retrying is idempotent.

**Equivalence by construction.**  ``eager`` mode (the default) is not a
separate code path: each event enqueues and immediately drains a batch
of one, through exactly the same apply/reconcile/cascade code batched
mode uses.  Doc ids are *reserved at enqueue time* and pinned at apply
time, so a coalesced batch assigns the same ids — hence the same
``doc_id % num_blocks`` block placement, hence bit-identical query
answers — as the eager sequence it replaced
(``tests/properties/test_twins.py`` fuzzes this against an eager twin).
The pipeline is back-end agnostic: it talks pure
:class:`~repro.cba.backend.SearchBackend`, and a drain against a
:class:`~repro.cluster.ShardedSearchCluster` routes per-shard sub-batches
via the doc-id registry's ``shard_of``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.links import Target
from repro.util import pathutil
from repro.util.bitmap import Bitmap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem

#: distinct pending documents that trigger a threshold drain
DEFAULT_MAX_PENDING = 32
#: absorbed events (coalesced included) that trigger a threshold drain
DEFAULT_OP_BUDGET = 256
#: hard queue bound: at capacity the enqueue itself drains (backpressure)
DEFAULT_CAPACITY = 1024

MODES = ("eager", "batched")


class PendingDoc:
    """One coalesced unit of index maintenance, keyed by ``(fsid, ino)``.

    The entry carries everything needed to replay the *net effect* of the
    event sequence it absorbed: the last event-time path and mtime
    (last-write-wins), whether the document is alive, whether an older
    incarnation must be removed first (*tombstoned* — the key was in the
    engine when a removal event arrived), a reserved doc id for documents
    the engine has not seen yet.  The path is advisory (tenant
    attribution, origins): a document is applied under the path its file
    has at the drain.
    """

    __slots__ = ("key", "doc_id", "alive", "tombstoned", "path", "mtime",
                 "tenant")

    def __init__(self, key, doc_id: Optional[int], alive: bool,
                 tombstoned: bool, path: str, mtime: float):
        self.key = key
        self.doc_id = doc_id
        self.alive = alive
        self.tombstoned = tombstoned
        self.path = path
        self.mtime = mtime
        #: owning tenant's drain bucket (None = shared namespace)
        self.tenant: Optional[str] = None


class MaintenanceScheduler:
    """Coalesces watch-driven index maintenance into group-committed batches."""

    def __init__(self, hacfs: "HacFileSystem",
                 max_pending: int = DEFAULT_MAX_PENDING,
                 op_budget: int = DEFAULT_OP_BUDGET,
                 capacity: int = DEFAULT_CAPACITY):
        self.hacfs = hacfs
        self.mode = "eager"
        self.max_pending = max_pending
        self.op_budget = op_budget
        self.capacity = capacity
        self._pending: "OrderedDict[object, PendingDoc]" = OrderedDict()
        #: nodes ``(fsid, ino)`` of the directories whose scope the
        #: batch's events touched — the drain runs ONE cascade over their
        #: union
        self._origins: set = set()
        #: ssync roots queued by ``request_sync`` (``ssync --async``)
        self._sync_roots: List[str] = []
        self._ops_absorbed = 0
        self._draining = False
        #: journal seq of the last drained batch's intent, carried onto
        #: the publish event that follows the commit
        self._last_intent_seq: Optional[int] = None
        #: path → tenant name hook (installed by the TenantManager); None
        #: until tenants exist, so the default pipeline never pays for it
        self._tenant_resolver = None
        #: tenant → fair-share weight in the round-robin drain order
        self._tenant_weights: Dict[str, int] = {}
        self._stats = hacfs.counters.scoped("sched")

    # ------------------------------------------------------------------
    # policy
    # ------------------------------------------------------------------

    def set_mode(self, mode: str) -> None:
        """Switch between ``eager`` and ``batched``; leaving batched mode
        drains whatever is pending so no update is ever stranded."""
        if mode not in MODES:
            raise ValueError(f"unknown scheduler mode: {mode!r}")
        old, self.mode = self.mode, mode
        if mode == "eager" and old != "eager":
            self.drain(reason="mode_change")

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- tenant attribution (fair-share drains) ------------------------

    def set_tenant_resolver(self, resolver) -> None:
        """Install the path → tenant-name hook (the TenantManager's)."""
        self._tenant_resolver = resolver

    def register_tenant(self, tenant: str, weight: int = 1) -> None:
        """Give *tenant* its own drain bucket with a round-robin weight."""
        self._tenant_weights[tenant] = max(1, int(weight))

    def _resolve_tenant(self, path: str) -> Optional[str]:
        if self._tenant_resolver is None or not path:
            return None
        try:
            return self._tenant_resolver(path)
        except Exception:
            return None

    def pending_by_tenant(self) -> Dict[str, int]:
        """Pending entries per tenant bucket (shared entries excluded)."""
        out: Dict[str, int] = {}
        for entry in self._pending.values():
            if entry.tenant is not None:
                out[entry.tenant] = out.get(entry.tenant, 0) + 1
        return out

    def status(self) -> Dict[str, object]:
        """Structured snapshot for the shell's ``sched`` command."""
        info = self.hacfs.engine.snapshot_info()
        return {
            "mode": self.mode,
            "pending": len(self._pending),
            "pending_syncs": len(self._sync_roots),
            "max_pending": self.max_pending,
            "op_budget": self.op_budget,
            "capacity": self.capacity,
            "events": self._stats.get("events"),
            "coalesced": self._stats.get("coalesced"),
            "drains": self._stats.get("drains"),
            "drained_docs": self._stats.get("drained_docs"),
            "backpressure": self._stats.get("backpressure"),
            "snapshot_version": info["version"],
            "publishes": self._stats.get("publishes"),
            "replica_lag": {str(r["id"]): info["version"] - r["version"]
                            for r in info["replicas"]},
            **({"tenants": self.pending_by_tenant()}
               if self._tenant_weights else {}),
        }

    # ------------------------------------------------------------------
    # mutation events (called by the WatchManager / HacFileSystem)
    # ------------------------------------------------------------------

    def note_upsert(self, key, path: str, mtime: float) -> None:
        """A covered file was written or created; its index entry is dirty."""
        self.hacfs.admission.admit_enqueue()
        self._stats.add("events")
        engine = self.hacfs.engine
        entry = self._pending.get(key)
        if entry is not None:
            self._stats.add("coalesced")
            if not entry.alive:
                # the eager sequence would have indexed a fresh document
                # here (the previous incarnation's id is burned either
                # way), so the revival reserves a fresh id too
                entry.doc_id = engine.reserve_doc_id()
                entry.alive = True
            entry.path = path
            entry.mtime = mtime
        else:
            doc_id = None if key in engine else engine.reserve_doc_id()
            entry = PendingDoc(key, doc_id, alive=True, tombstoned=False,
                               path=path, mtime=mtime)
            self._enqueue(entry)
        entry.tenant = self._resolve_tenant(path)
        self._note_origin(pathutil.dirname(path))
        self._after_event()

    def note_remove(self, key, parent_dir: str) -> bool:
        """A covered file was unlinked; withdraw its index entry.

        Returns True when there was anything to withdraw (the key is
        indexed, or alive in the queue) — the watch layer's per-event
        accounting keys off this.
        """
        self._stats.add("events")
        engine = self.hacfs.engine
        entry = self._pending.get(key)
        had_doc = key in engine or (entry is not None and entry.alive)
        if entry is not None:
            self._stats.add("coalesced")
            entry.alive = False
            if key in engine:
                entry.tombstoned = True
        else:
            entry = PendingDoc(key, None, alive=False,
                               tombstoned=key in engine, path="", mtime=0.0)
            entry.tenant = self._resolve_tenant(parent_dir)
            self._enqueue(entry)
        self._note_origin(parent_dir)
        self._after_event()
        return had_doc

    def note_move(self, key, new_path: str, mtime: float) -> None:
        """A covered file moved; refresh its path (and name-derived terms).

        Deliberately not admission-gated: a shed upsert merely leaves
        content stale until the next sync's mtime diff catches it, but a
        shed move would strand the old path in the index forever (an
        in-place move keeps the document mtime, so incremental reindex
        never notices).
        """
        self._stats.add("events")
        engine = self.hacfs.engine
        entry = self._pending.get(key)
        if entry is not None:
            self._stats.add("coalesced")
            if not entry.alive:
                entry.doc_id = engine.reserve_doc_id()
                entry.alive = True
                entry.mtime = mtime
            entry.path = new_path
        else:
            doc = engine.doc_by_key(key)
            if doc is not None:
                # an in-place move keeps the document's mtime (contents
                # unchanged), exactly as the eager path did
                entry = PendingDoc(key, None, alive=True, tombstoned=False,
                                   path=new_path, mtime=doc.mtime)
            else:
                entry = PendingDoc(key, engine.reserve_doc_id(), alive=True,
                                   tombstoned=False, path=new_path,
                                   mtime=mtime)
            self._enqueue(entry)
        entry.tenant = self._resolve_tenant(new_path)
        self._note_origin(pathutil.dirname(new_path))
        self._after_event()

    def note_rename(self, key, new_path: str) -> None:
        """Path fixup for a document *not* under any watch (the lazy §2.4
        path: no re-tokenisation, the display path just drifts along)."""
        entry = self._pending.get(key)
        if entry is not None and entry.alive:
            return   # applied at the drain, under the path it has then
        if key in self.hacfs.engine:
            self.hacfs.engine.rename_document(key, new_path)

    # ------------------------------------------------------------------
    # drains
    # ------------------------------------------------------------------

    def barrier(self, tenant: Optional[str] = None) -> int:
        """The pre-query drain: semantic re-evaluation, ``ssync``/
        ``reindex``, ``save_index``, ``fsck`` and engine adoption call
        this first so no consumer ever observes a torn batch.  A no-op
        mid-drain (the drain's own cascade lands here) and when nothing
        is pending.

        With *tenant*, only that tenant's bucket is drained — the
        fair-share read path: a tenant's strong query never pays to
        settle a *neighbour's* write storm, only its own."""
        if self._draining or not (self._pending or self._sync_roots):
            return 0
        if tenant is not None and not any(
                e.tenant == tenant for e in self._pending.values()):
            return 0
        self._stats.add("barrier_drains")
        return self.drain(reason="barrier", tenant=tenant)

    def request_sync(self, path: str = "/") -> bool:
        """Queue an ``ssync`` of *path* to run right after the next drain
        (the shell's ``ssync --async``).  Returns True when queued; in
        eager mode there is no drain to defer behind, so this returns
        False and the caller runs the sync synchronously itself."""
        if self.mode == "eager":
            return False
        self._stats.add("async_syncs")
        self._sync_roots.append(path)
        return True

    def drain(self, reason: str = "explicit",
              tenant: Optional[str] = None) -> int:
        """Apply every pending update as one group-committed batch.

        Entries are grouped into per-shard sub-batches (``shard_of`` from
        the doc-id registry; a monolithic back-end is one ``local``
        group), applied under a single ``sched_batch`` journal intent
        together with one consistency cascade over the batch's origin
        directories, then any queued async syncs run.  On failure every
        entry is re-queued — the apply step reconciles against the live
        tree, so retrying is idempotent and nothing is ever dropped.
        Returns the number of index operations applied.

        A full drain applies entries in **weighted round-robin order
        over the per-tenant buckets** (FIFO within a bucket, the shared
        bucket last) — order cannot change results, because doc ids are
        reserved at enqueue time and the cascade runs once over the
        union of origins, but it bounds how long any tenant's documents
        sit behind a neighbour's storm inside one batch.  With *tenant*,
        only that tenant's entries (and the origin directories inside
        its subtree) drain; everything else — including queued async
        syncs — stays for the next full drain.
        """
        if self._draining or not (self._pending or self._sync_roots):
            return 0
        self._draining = True
        try:
            if tenant is None:
                entries = self._fair_order(list(self._pending.values()))
                self._pending = OrderedDict()
                origins = sorted(self._origins)
                self._origins = set()
                sync_roots, self._sync_roots = self._sync_roots, []
                self._ops_absorbed = 0
            else:
                entries = [e for e in self._pending.values()
                           if e.tenant == tenant]
                for entry in entries:
                    del self._pending[entry.key]
                origins, kept = self._split_origins(tenant)
                self._origins = kept
                sync_roots = []
            self._last_intent_seq = None
            ops = 0
            span_tags = {"reason": reason, "docs": len(entries)}
            if tenant is not None:
                span_tags["tenant"] = tenant
            with self.hacfs.obs.trace.span("sched.drain",
                                           **span_tags) as span:
                try:
                    if entries or origins:
                        ops = self._apply_batch(entries, origins,
                                                tenant=tenant)
                except BaseException:
                    # re-queue everything (later events win over the
                    # requeued state, matching last-write-wins)
                    for entry in entries:
                        self._pending.setdefault(entry.key, entry)
                    self._origins.update(origins)
                    self._sync_roots = sync_roots + self._sync_roots
                    self._stats.add("requeues")
                    raise
                for root in sync_roots:
                    self.hacfs.ssync(root)
                version = self._publish(self._last_intent_seq)
                span.set(ops=ops, syncs=len(sync_roots), version=version)
            self._stats.add("drains")
            self._stats.add("drained_docs", len(entries))
            self.hacfs.obs.metrics.observe("sched.batch_docs", len(entries))
            self.hacfs.obs.metrics.observe("sched.batch_ops", ops)
            return ops
        finally:
            self._draining = False

    def publish(self) -> int:
        """Force a snapshot publish of the engine's *current* state — no
        drain, no barrier (the shell's ``sched publish``).  Pending batched
        work stays pending; what the engine has already applied becomes
        visible to snapshot readers immediately."""
        self._stats.add("forced_publishes")
        return self._publish(None)

    def _publish(self, seq: Optional[int]) -> int:
        """Publish and journal the ``sched_publish`` event under *seq* —
        the committed batch intent that produced this version (None when
        no intent did: forced publishes, empty drains)."""
        version = self.hacfs.engine.publish()
        self._stats.add("publishes")
        self.hacfs.journal.note_publish(version, seq)
        return version

    def _fair_order(self, entries: List[PendingDoc]) -> List[PendingDoc]:
        """Weighted round-robin interleave of the per-tenant buckets.

        Bit-identity is free here: doc ids are pinned at enqueue and keys
        are unique after coalescing, so apply order cannot change what any
        query answers — only who waits behind whom inside the batch.  One
        bucket (the common case, and every pre-tenant workload) returns
        the entries untouched, byte-for-byte the old arrival order.
        """
        buckets: "OrderedDict[Optional[str], List[PendingDoc]]" = OrderedDict()
        for entry in entries:
            buckets.setdefault(entry.tenant, []).append(entry)
        if len(buckets) <= 1:
            return entries
        names = sorted(n for n in buckets if n is not None)
        if None in buckets:
            names.append(None)
        out: List[PendingDoc] = []
        index = {name: 0 for name in names}
        remaining = len(entries)
        while remaining:
            for name in names:
                queue = buckets[name]
                start = index[name]
                if start >= len(queue):
                    continue
                weight = self._tenant_weights.get(name, 1) \
                    if name is not None else 1
                stop = min(start + weight, len(queue))
                out.extend(queue[start:stop])
                index[name] = stop
                remaining -= stop - start
        return out

    def _split_origins(self, tenant: str):
        """Partition queued origin directories into (drained, kept): a
        tenant drain cascades only over directories inside the tenant
        subtree."""
        live_path = self.hacfs._live_path
        drained = sorted(node for node in self._origins
                         if self._resolve_tenant(live_path(*node)) == tenant)
        return drained, self._origins.difference(drained)

    def _apply_batch(self, entries: List[PendingDoc],
                     origins: List[int],
                     tenant: Optional[str] = None) -> int:
        engine = self.hacfs.engine
        groups: "OrderedDict[Optional[str], List[PendingDoc]]" = OrderedDict()
        for entry in entries:
            groups.setdefault(engine.shard_of(entry.key), []).append(entry)
        ops = 0
        payload = {"docs": len(entries), "origins": len(origins)}
        if tenant is not None:
            payload["tenant"] = tenant
        with self.hacfs._journaled("sched_batch", payload) as intent:
            self._last_intent_seq = intent.seq if intent is not None else None
            # the cascade's delta: the ids whose rows the batch changed,
            # the old and the new one of each entry
            ids = []
            for sid, group in groups.items():
                with self.hacfs.obs.trace.span("sched.apply",
                                               shard=sid or "local",
                                               docs=len(group)):
                    for entry in group:
                        ids.append(engine.doc_id_of(entry.key))
                        ops += self._apply_one(entry)
                        ids.append(engine.doc_id_of(entry.key))
            if origins:
                self.hacfs.consistency.on_scope_changed(origins, delta=Bitmap(
                    i for i in ids if i is not None))
            # segmented storage rides the same intent: a memtable past its
            # seal threshold is frozen and the segment list synced to disk
            # under this batch's pre-image capture (no-op otherwise)
            self.hacfs._persist_segments()
        return ops

    def _apply_one(self, entry: PendingDoc) -> int:
        """Reconcile one pending document against the live tree.

        Pure reconciliation — every branch re-derives what must happen
        from current engine and tree state, so replaying an entry after a
        partially applied (re-queued) batch converges instead of raising.
        """
        engine = self.hacfs.engine
        ops = 0
        in_engine = entry.key in engine
        if entry.tombstoned and in_engine:
            # an older incarnation must go first so the revival below gets
            # its reserved fresh id, exactly as eager remove-then-index did
            engine.remove_document(entry.key)
            in_engine = False
            ops += 1
        if not entry.alive:
            if in_engine:
                engine.remove_document(entry.key)
                ops += 1
            return ops
        # index under the path the file has now: a directory rename since
        # the enqueue moved it, and ``entry.path`` with the old prefix
        # would re-register the document where nothing lives
        live = self.hacfs.path_for_target(Target.local(*entry.key))
        if live is None:
            # vanished without a removal event (unmount, coverage change):
            # never index a dead file, withdraw any lingering entry
            if in_engine:
                engine.remove_document(entry.key)
                ops += 1
            return ops
        if in_engine:
            engine.update_document(entry.key, live, entry.mtime)
        else:
            engine.index_document(entry.key, live, entry.mtime,
                                  doc_id=entry.doc_id)
        return ops + 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _enqueue(self, entry: PendingDoc) -> None:
        if self._draining:
            # an event arrived mid-drain (nothing on the normal paths does
            # this — the cascade materialises links straight through the
            # VFS — but a hook or future caller might): apply inline under
            # the already-open batch intent rather than mutate the queue
            # being drained.  Never dropped.
            self._stats.add("inline_applies")
            self._apply_one(entry)
            return
        self._pending[entry.key] = entry

    def _note_origin(self, dirpath: str) -> None:
        """Queue the changed directory by its node, which a rename keeps
        (the root's, when it is gone already)."""
        try:
            self._origins.add(self.hacfs.dir_node(dirpath))
        except Exception:
            self._origins.add(self.hacfs.dir_node("/"))

    def _after_event(self) -> None:
        if self._draining:
            return
        self._ops_absorbed += 1
        if self.mode == "eager":
            self.drain(reason="eager")
        elif len(self._pending) >= self.capacity:
            self._stats.add("backpressure")
            self.drain(reason="backpressure")
        elif len(self._pending) >= self.max_pending \
                or self._ops_absorbed >= self.op_budget:
            self.drain(reason="threshold")

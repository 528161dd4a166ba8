"""The scope-consistency algorithm (paper §2.3, extended by §2.5 and §3).

When the scope of a semantic directory changes — its parent's links were
edited, it was moved, its query was changed, a directory its query
references was re-evaluated — HAC must re-establish the invariant:

1. the transient links of ``sd`` are a subset of the scope provided by its
   parent, and
2. ``sd`` has transient links to *all* files in that scope satisfying its
   query, except those explicitly prohibited.

The algorithm, reproduced exactly: re-evaluate the query over the current
scope; discard anything permanent or prohibited; what remains is the new
transient set.  Permanent and prohibited sets are never touched.  Every
directory that directly or indirectly depends on a changed directory is
re-evaluated once, in topological order of the dependency DAG.

Remote results (paper §3): name spaces mounted within the scope import
every hit for the (content projection of the) query; remote members already
in the parent's scope are *refined* — kept only when the back-end that owns
them still reports them as matching.  A back-end that fails mid-evaluation
degrades gracefully: its previous contributions to this directory are kept
(stale beats lost) and the failure is counted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.errors import BackendUnavailable
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.cba import evaluator
from repro.cba.results import RemoteId
from repro.core.links import LinkSets, Target
from repro.core.scope import Scope
from repro.vfs.inode import SymlinkNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem
    from repro.core.semdir import SemanticDirState


class _Cascade:
    """What the directories of one cascade share.  A *plain* directory's
    provided scope is a function of the tree and the index, and a cascade
    changes neither — it only moves symlinks inside semantic directories,
    which a tree read skips — so each plain parent is read once and every
    dependent gets the same :class:`Scope`.  A semantic parent is never
    shared: it is re-evaluated first, and its scope is its link table."""

    __slots__ = ("scopes", "scope_reads", "unchanged")

    def __init__(self):
        self.scopes: Dict[str, Scope] = {}
        self.scope_reads = self.unchanged = 0


class ConsistencyManager:
    """Owns re-evaluation and link materialisation for one HAC file system."""

    def __init__(self, hacfs: "HacFileSystem"):
        self.hacfs = hacfs
        self._stats = hacfs.counters.scoped("consistency")

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------

    def on_scope_changed(self, origin_uids: List[int],
                         include_origins: bool = False) -> int:
        """Re-evaluate everything affected by scope changes at *origins*.

        Returns the number of semantic directories whose result changed.
        """
        graph = self.hacfs.depgraph
        affected: Set[int] = set()
        for uid in origin_uids:
            if uid not in graph:
                continue
            affected.update(graph.affected_order(uid, include_start=include_origins))
        if not affected:
            return 0
        order = graph.topo_order(affected)
        touched = self._origin_tenants(origin_uids)
        with self.hacfs.obs.trace.span("hac.cascade",
                                       affected=len(order)) as span:
            count = self._cascade(order, touched, span)
        self._stats.add("cascades")
        return count

    def _cascade(self, order: List[int], touched: Optional[Set[str]] = None,
                 span=None) -> int:
        """Re-evaluate each directory of *order* once (see :class:`_Cascade`)."""
        cascade = _Cascade()
        count = 0
        for uid in order:
            if touched is not None and self._foreign_tenant_dir(uid, touched):
                # a tenant's query is scope-filtered to its own subtree,
                # so a mutation that stayed outside that subtree cannot
                # change its results — skipping both saves the work and
                # keeps another tenant's fault window off this record
                self._stats.add("cross_tenant_skips")
            elif self.reevaluate(uid, cascade):
                count += 1
        if span is not None:
            span.set(reevaluated=count, scope_reads=cascade.scope_reads,
                     unchanged=cascade.unchanged)
        return count

    def _origin_tenants(self, origin_uids: List[int]) -> Optional[Set[str]]:
        """Tenant subtrees the mutation touched — ``None`` disables the
        cross-tenant cascade pruning entirely (no tenants registered)."""
        tenants = getattr(self.hacfs, "tenants", None)
        if not tenants:
            return None
        touched: Set[str] = set()
        for uid in origin_uids:
            path = self.hacfs.dirmap.path_of(uid)
            if path is not None:
                owner = tenants.tenant_of_path(path)
                if owner is not None:
                    touched.add(owner)
        return touched

    def _foreign_tenant_dir(self, uid: int, touched: Set[str]) -> bool:
        """True for a directory owned by a tenant the mutation did not
        touch (host-owned directories are never foreign)."""
        path = self.hacfs.dirmap.path_of(uid)
        if path is None:
            return False
        owner = self.hacfs.tenants.tenant_of_path(path)
        return owner is not None and owner not in touched

    def reevaluate_all(self) -> int:
        """Global pass in full topological order (used after reindexing)."""
        count = self._cascade(self.hacfs.depgraph.full_order())
        self._stats.add("full_passes")
        return count

    # ------------------------------------------------------------------
    # the per-directory algorithm
    # ------------------------------------------------------------------

    def reevaluate(self, uid: int, cascade: Optional["_Cascade"] = None) -> bool:
        """Re-establish the scope invariant for one directory.

        Plain directories have no stored transient set, so they are a no-op
        (their provided scope is always derived live).  Returns True when a
        semantic directory's result changed.
        """
        state = self.hacfs.meta.get(uid)
        if state is None or not state.is_semantic:
            return False
        path = self.hacfs.dirmap.path_of(uid)
        if path is None:
            return False
        # pre-query barrier: a semantic directory must never be evaluated
        # over a torn batch, so any pending maintenance drains first (a
        # no-op mid-drain — the scheduler's own cascade lands here).  That
        # drain runs its own cascade: *cascade* shares nothing read earlier.
        self.hacfs.maintenance.barrier()
        self._stats.add("reevaluations")
        with self.hacfs.obs.trace.span("hac.reevaluate", uid=uid, path=path):
            return self._reevaluate_semantic(uid, state, path,
                                             cascade or _Cascade())

    def _parent_scope(self, parent: str, cascade: "_Cascade") -> Scope:
        scope = cascade.scopes.get(parent)
        if scope is None:
            scope = self.hacfs.scopes.provided(parent)
            cascade.scope_reads += 1
            self._stats.add("scope_reads")
            if self.hacfs.scopes.semantic_state(parent) is None:
                cascade.scopes[parent] = scope
        return scope

    def ids_of(self, targets) -> Bitmap:
        """Doc ids of the indexed local *targets*, resolved now: a key is
        given a new id when its document is withdrawn and revived."""
        doc_id_of = self.hacfs.engine.doc_id_of
        ids = (doc_id_of(t.key) for t in targets if t.is_local)
        return Bitmap(i for i in ids if i is not None)

    def _reevaluate_semantic(self, uid: int, state: "SemanticDirState",
                             path: str, cascade: "_Cascade") -> bool:
        scope = self._parent_scope(pathutil.dirname(path), cascade)
        links = state.links
        degraded = (dict(state.degraded_remote), dict(state.degraded_shards))

        # 1. re-evaluate the query over the current scope.  A sharded
        # back-end accumulates the shards it could not reach during the
        # evaluation, so bracket it: reset before, harvest after (the
        # SearchBackend protocol guarantees both ends exist; a monolith's
        # missing set is simply always empty).
        engine = self.hacfs.engine
        engine.reset_missing_shards()
        hits = evaluator.evaluate(
            state.query, engine,
            resolve_dirref=self._dirref_local, scope=scope.local)
        remote_hits = self._remote_matches(state, scope)
        missing: Set[str] = set(engine.missing_shards)

        # 2. discard permanent and prohibited targets; the rest is transient
        # — in doc-id algebra, so only links that come or go are looked at
        dead = links.bind(engine) if links.bound is not engine else []
        permanent = self.ids_of(links.permanent.values())
        barred = permanent | self.ids_of(links.prohibited)
        old = links.transient_ids
        new = hits - barred
        old_remote = set(links.remote)
        new_remote = {Target.from_remote_id(rid) for rid in remote_hits}
        new_remote -= links.prohibited
        new_remote.difference_update(links.permanent.values())

        # degrade gracefully over missing shards, mirroring the remote
        # back-end policy: local links whose document lives on a shard the
        # evaluation could not reach are kept last-known-good ("stale
        # beats lost") and the directory is flagged until a whole
        # evaluation succeeds again
        if missing:
            self._stats.add("partial_evaluations")
            new |= Bitmap(
                i for i in old - new - barred if engine.shard_of(
                    links.transient[links.name_by_id[i]].key) in missing)
            for shard_id in sorted(missing):
                if shard_id not in state.degraded_shards:
                    state.degraded_shards[shard_id] = self.hacfs.clock.now
                    self._stats.add("shard_degradations")
        for shard_id in list(state.degraded_shards):
            if shard_id not in missing:
                del state.degraded_shards[shard_id]
                self._stats.add("shard_recoveries")

        # 3. an unchanged directory writes nothing: no pre-image, no record,
        # no entry touched.  ``result`` is the stored N/8 bitmap (local only).
        result = new | permanent
        added, removed = new - old, old - new
        changed = bool(added or removed or dead) \
            or new_remote != old_remote or result != state.result_cache
        dirty = changed \
            or degraded != (state.degraded_remote, state.degraded_shards)
        drifted = self._drifted_links(path, links)
        if not (dirty or drifted):
            cascade.unchanged += 1
            self._stats.add("unchanged")
            return False

        # write-ahead for the tree: journal this directory's record
        # pre-image *before* materialisation mutates its entries, so a
        # crash mid-materialisation still tells recovery to reconcile here
        self.hacfs.journal.capture(f"semdir:{uid}")
        gone = [links.transient_name[t] for t in old_remote - new_remote]
        for name in gone:
            links.forget(name)
        gone += dead + [links.drop_transient_id(i) for i in removed]
        self._materialise(path, links, gone, added,
                          sorted(new_remote - old_remote), drifted)
        if dirty:
            state.result_cache = result
            self.hacfs.meta.flush(uid)
        if changed:
            self._stats.add("transient_updates")
        return changed

    def _dirref_local(self, uid: int) -> Bitmap:
        return self.hacfs.scopes.provided_by_uid(uid).local

    # ------------------------------------------------------------------
    # remote evaluation
    # ------------------------------------------------------------------

    def _remote_matches(self, state: "SemanticDirState",
                        scope: Scope) -> Set[RemoteId]:
        """Recursive remote-side evaluation of the query.

        Content-only subtrees are forwarded (once each, per name space) to
        every back-end in scope; directory references resolve locally to the
        referenced directory's remote members; boolean structure is applied
        to the resulting sets.  This keeps ``analysis OR /fp`` from turning
        into an import-everything query on the remote side.
        """
        if not scope.namespaces and not scope.remote:
            return set()
        cache: Dict[tuple, Set[RemoteId]] = {}
        return self._remote_eval(state.query, state, scope, cache)

    def _remote_eval(self, node, state: "SemanticDirState", scope: Scope,
                     cache: Dict[tuple, Set[RemoteId]]) -> Set[RemoteId]:
        from repro.cba import queryast as qa

        if evaluator.is_content_only(node) and not qa.has_scope_terms(node):
            return self._forward(node.to_text(), state, scope, cache)
        if isinstance(node, qa.ScopeTerm):
            # remote members live in a foreign name space — they have no
            # path in the local tree, so a subtree scope excludes them all
            return set()
        if isinstance(node, qa.DirRef):
            return set(self.hacfs.scopes.provided_by_uid(node.uid).remote)
        if isinstance(node, qa.And):
            out: Optional[Set[RemoteId]] = None
            for child in node.children:
                hits = self._remote_eval(child, state, scope, cache)
                out = hits if out is None else (out & hits)
                if not out:
                    break
            return out or set()
        if isinstance(node, qa.Or):
            out: Set[RemoteId] = set()
            for child in node.children:
                out |= self._remote_eval(child, state, scope, cache)
            return out
        if isinstance(node, qa.Not):
            universe = self._forward("*", state, scope, cache) | set(scope.remote)
            return universe - self._remote_eval(node.child, state, scope, cache)
        raise TypeError(f"unknown query node: {type(node).__name__}")

    def _forward(self, query_text: str, state: "SemanticDirState",
                 scope: Scope, cache: Dict[tuple, Set[RemoteId]]) -> Set[RemoteId]:
        """One content query against every back-end the scope reaches:
        mounted name spaces import all their hits; name spaces that merely
        own existing scope members only refine those members."""
        member_namespaces = {rid.namespace for rid in scope.remote}
        hits: Set[RemoteId] = set()
        for ns_id in sorted(set(scope.namespaces) | member_namespaces):
            key = (ns_id, query_text)
            ns_hits = cache.get(key)
            if ns_hits is None:
                ns_hits = self._search_one(ns_id, query_text, state)
                cache[key] = ns_hits
            if ns_id in scope.namespaces:
                hits.update(ns_hits)                  # import everything new
            else:
                hits.update(ns_hits & scope.remote)   # refine members only
        return hits

    def _search_one(self, ns_id: str, query_text: str,
                    state: "SemanticDirState") -> Set[RemoteId]:
        namespace = self.hacfs.semmounts.get(ns_id)
        if namespace is None:
            return set()
        try:
            results = namespace.search(query_text)
        except BackendUnavailable:
            # degrade gracefully: keep this back-end's previous links, and
            # flag them stale until the back-end answers again (breaker
            # rejections land here too — CircuitOpen is a BackendUnavailable)
            self._stats.add("remote_failures")
            if ns_id not in state.degraded_remote:
                state.degraded_remote[ns_id] = self.hacfs.clock.now
                self._stats.add("stale_degradations")
            return {t.remote_id() for t in state.links.transient.values()
                    if t.is_remote and t.realm == ns_id}
        if state.degraded_remote.pop(ns_id, None) is not None:
            self._stats.add("stale_recoveries")
        return {r.remote_id(ns_id) for r in results}

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------

    def _materialise(self, path: str, links: LinkSets, gone: List[str],
                     added: Bitmap, added_remote: List[Target],
                     drifted: List[tuple]) -> None:
        """Bring the symlink entries of *path* in line: unlink *gone*,
        rewrite the *drifted* texts, link the *added* documents (in doc-id
        order) and remote targets under freshly invented names."""
        fs = self.hacfs.fs
        for name in gone:
            entry = pathutil.join(path, name)
            if fs.islink(entry):
                fs.unlink(entry)
            else:   # already gone, or user data squatting on the name
                self._stats.add("materialise_skips")
        for name, text in drifted:
            if links.target_of(name) is not None:
                fs.unlink(pathutil.join(path, name))
                fs.symlink(text, pathutil.join(path, name))
        if not (added or added_remote):
            return
        # node and used names are read once: inventing a name re-walks nothing
        entries = fs.resolve(path).node.entries  # type: ignore[union-attr]
        used = links.used_names()
        for doc_id in added:
            doc = self.hacfs.engine.doc_by_id(doc_id)
            target = Target.local(*doc.key)
            # a link's text, as in the drift pass and fsck: where the file is
            text = self.hacfs.path_for_target(target) or doc.path
            name = _invent_name(pathutil.basename(text), used, entries)
            fs.symlink(text, pathutil.join(path, name))
            links.add_transient(name, target, doc_id)
        for target in added_remote:
            namespace = self.hacfs.semmounts.get(target.realm)
            title = namespace.title_of(target.ident) if namespace else None
            name = _invent_name(title or target.ident, used, entries)
            fs.symlink(target.remote_id().uri(), pathutil.join(path, name))
            links.add_transient(name, target)

    def _drifted_links(self, path: str, links: LinkSets) -> List[tuple]:
        """``(name, text)`` of the local links whose symlink no longer
        spells where its file lives (a rename moved it) — nothing, and no
        per-link work, while no registered path moved since the last look."""
        moved = self.hacfs.engine.paths_moved
        if links.texts_at == moved:
            return []
        links.texts_at = moved
        entries = self.hacfs.fs.resolve(path).node.entries  # type: ignore[union-attr]
        drifted = []
        for name in links.names():
            node, target = entries.get(name), links.target_of(name)
            text = self.hacfs.path_for_target(target)
            if isinstance(node, SymlinkNode) and text not in (None, node.target):
                drifted.append((name, text))
        return drifted


def _invent_name(base: str, used: Set[str], entries) -> str:
    """A name for a new link: *base*, sanitised and suffixed until it is
    neither a tracked link nor a directory entry; added to *used*."""
    base = candidate = _sanitize(base)
    suffix = 2
    while candidate in used or candidate in entries:
        candidate = f"{base}~{suffix}"
        suffix += 1
    used.add(candidate)
    return candidate


def _sanitize(name: str) -> str:
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    return safe.strip("._") or "link"

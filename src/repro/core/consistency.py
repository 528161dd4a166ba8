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
from repro.core.links import Target
from repro.core.scope import Scope
from repro.vfs.inode import SymlinkNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem
    from repro.core.semdir import SemanticDirState


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

        Returns the number of semantic directories re-evaluated.
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
        count = 0
        with self.hacfs.obs.trace.span("hac.cascade",
                                       affected=len(order)) as span:
            for uid in order:
                if touched is not None and self._foreign_tenant_dir(uid, touched):
                    # a tenant's query is scope-filtered to its own subtree,
                    # so a mutation that stayed outside that subtree cannot
                    # change its results — skipping both saves the work and
                    # keeps another tenant's fault window off this record
                    self._stats.add("cross_tenant_skips")
                    continue
                if self.reevaluate(uid):
                    count += 1
            span.set(reevaluated=count)
        self._stats.add("cascades")
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
        count = 0
        for uid in self.hacfs.depgraph.full_order():
            if self.reevaluate(uid):
                count += 1
        self._stats.add("full_passes")
        return count

    # ------------------------------------------------------------------
    # the per-directory algorithm
    # ------------------------------------------------------------------

    def reevaluate(self, uid: int) -> bool:
        """Re-establish the scope invariant for one directory.

        Plain directories have no stored transient set, so they are a no-op
        (their provided scope is always derived live).  Returns True when a
        semantic directory was actually re-evaluated.
        """
        state = self.hacfs.meta.get(uid)
        if state is None or not state.is_semantic:
            return False
        path = self.hacfs.dirmap.path_of(uid)
        if path is None:
            return False
        # pre-query barrier: a semantic directory must never be evaluated
        # over a torn batch, so any pending maintenance drains first (a
        # no-op mid-drain — the scheduler's own cascade lands here)
        self.hacfs.maintenance.barrier()
        self._stats.add("reevaluations")
        with self.hacfs.obs.trace.span("hac.reevaluate", uid=uid, path=path):
            return self._reevaluate_semantic(uid, state, path)

    def _reevaluate_semantic(self, uid: int, state: "SemanticDirState",
                             path: str) -> bool:
        parent_path = pathutil.dirname(path)
        scope = self.hacfs.scopes.provided(parent_path)

        # 1. re-evaluate the query over the current scope.  A sharded
        # back-end accumulates the shards it could not reach during the
        # evaluation, so bracket it: reset before, harvest after (the
        # SearchBackend protocol guarantees both ends exist; a monolith's
        # missing set is simply always empty).
        engine = self.hacfs.engine
        engine.reset_missing_shards()
        local_hits = evaluator.evaluate(
            state.query, engine,
            resolve_dirref=self._dirref_local, scope=scope.local)
        remote_hits = self._remote_matches(state, scope)
        missing: Set[str] = set(engine.missing_shards)

        # 2. discard permanent and prohibited targets; the rest is transient
        permanent = set(state.links.permanent.values())
        new_targets: Set[Target] = set()
        for doc_id in local_hits:
            doc = self.hacfs.engine.doc_by_id(doc_id)
            if doc is None:
                continue
            target = Target.local(doc.key[0], doc.key[1])
            if target not in permanent and target not in state.links.prohibited:
                new_targets.add(target)
        for rid in remote_hits:
            target = Target.from_remote_id(rid)
            if target not in permanent and target not in state.links.prohibited:
                new_targets.add(target)

        # degrade gracefully over missing shards, mirroring the remote
        # back-end policy: local links whose document lives on a shard the
        # evaluation could not reach are kept last-known-good ("stale
        # beats lost") and the directory is flagged until a whole
        # evaluation succeeds again
        if missing:
            self._stats.add("partial_evaluations")
            for target in state.links.transient.values():
                if target.is_local and target not in new_targets \
                        and target not in permanent \
                        and target not in state.links.prohibited \
                        and engine.shard_of(target.key) in missing:
                    new_targets.add(target)
            for shard_id in sorted(missing):
                if shard_id not in state.degraded_shards:
                    state.degraded_shards[shard_id] = self.hacfs.clock.now
                    self._stats.add("shard_degradations")
        for shard_id in list(state.degraded_shards):
            if shard_id not in missing:
                del state.degraded_shards[shard_id]
                self._stats.add("shard_recoveries")

        # write-ahead for the tree: journal this directory's record
        # pre-image *before* materialisation mutates its entries, so a
        # crash mid-materialisation still tells recovery to reconcile here
        self.hacfs.journal.capture(f"semdir:{uid}")
        changed = self._apply_transient(path, state, new_targets)
        # the stored N/8-byte result: the directory's *current* local result
        # (transient plus permanent), i.e. the customised query result
        result = Bitmap()
        for target in state.links.all_targets():
            if target.is_local:
                doc_id = self.hacfs.engine.doc_id_of(target.key)
                if doc_id is not None:
                    result.add(doc_id)
        state.result_cache = result
        self.hacfs.meta.flush(uid)
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

    def _apply_transient(self, path: str, state: "SemanticDirState",
                         new_targets: Set[Target]) -> bool:
        """Sync the transient link set (and its symlink entries) to
        *new_targets*; returns True when anything changed."""
        fs = self.hacfs.fs
        old = dict(state.links.transient)
        old_targets = set(old.values())
        changed = False

        # remove entries whose target fell out of the result
        for name, target in old.items():
            if target in new_targets:
                continue
            entry = pathutil.join(path, name)
            try:
                if fs.islink(entry):
                    fs.unlink(entry)
            except Exception:
                pass
            state.links.forget(name)
            changed = True

        # add entries for new targets; the directory node is resolved once
        # so name invention never re-walks the path per candidate
        try:
            dir_entries = fs.resolve(path).node.entries  # type: ignore[union-attr]
        except Exception:
            dir_entries = {}
        for target in sorted(new_targets - old_targets):
            name = self._invent_name(path, state, target, dir_entries)
            text = self._link_text(target)
            entry = pathutil.join(path, name)
            fs.symlink(text, entry)
            state.links.add_transient(name, target)
            changed = True

        # refresh link text of survivors whose target path drifted
        for name, target in state.links.transient.items():
            if target in old_targets and target in new_targets:
                node = dir_entries.get(name)
                text = self._link_text(target)
                if isinstance(node, SymlinkNode) and node.target != text:
                    entry = pathutil.join(path, name)
                    try:
                        fs.unlink(entry)
                        fs.symlink(text, entry)
                    except Exception:
                        pass
        if changed:
            self._stats.add("transient_updates")
        return changed

    def _link_text(self, target: Target) -> str:
        if target.is_remote:
            return target.remote_id().uri()
        doc = self.hacfs.engine.doc_by_key(target.key)
        if doc is not None:
            return doc.path
        live = self.hacfs.path_for_target(target)
        return live if live is not None else f"#dangling:{target}"

    def _invent_name(self, path: str, state: "SemanticDirState",
                     target: Target, existing_entries) -> str:
        if target.is_remote:
            namespace = self.hacfs.semmounts.get(target.realm)
            title = namespace.title_of(target.ident) if namespace else None
            base = title or target.ident
        else:
            doc = self.hacfs.engine.doc_by_key(target.key)
            base = pathutil.basename(doc.path) if doc is not None else target.ident
        base = _sanitize(base)
        used = state.links.used_names()
        candidate = base
        suffix = 2
        while candidate in used or candidate in existing_entries:
            candidate = f"{base}~{suffix}"
            suffix += 1
        return candidate


def _sanitize(name: str) -> str:
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    return safe.strip("._") or "link"

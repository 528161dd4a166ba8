"""hacfsck — structural self-audit of a HAC file system.

A user-level file system that maintains five interlinked structures (VFS
tree, global UID map, per-directory state, dependency graph, content index)
needs a way to prove they still agree.  ``hacfsck`` walks all of them and
reports every disagreement as a typed :class:`Finding`; an empty report is
the invariant "everything HAC believes is true of the tree".

Checks:

* **map↔tree** — every registered path is a live directory (a live
  directory nothing names needs no uid: docs/SEMANTICS.md §1);
* **state** — every registered directory owns a MetaStore record, and
  every record is one the map places (no orphan records);
* **graph** — the queries name each other in no cycle;
* **links** — every tracked link name is a live symlink in its directory,
  and its text leads to the tracked target (a remote URI, or the local
  file read from the link's own directory);
* **index** — every indexed document's key resolves to a live file
  (stale entries are legal between syncs — reported as ``stale-doc`` with
  severity "info" — but ino collisions are not).

``repair=True`` fixes what is safely fixable: drops orphan state records,
drops a permanent link whose symlink vanished, re-evaluates a directory
that lost a transient one, rewrites stale link text.
"""

from __future__ import annotations

from typing import List, NamedTuple, TYPE_CHECKING

from repro.util import pathutil
from repro.errors import DependencyCycle
from repro.core.depgraph import DependencyGraph
from repro.cba.segments import SegmentStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class Finding(NamedTuple):
    """One disagreement between HAC's structures."""

    severity: str   # "error" | "warn" | "info"
    kind: str       # stable machine-readable tag
    path: str       # where
    detail: str     # human-readable explanation

    def __str__(self):
        return f"[{self.severity}] {self.kind} {self.path}: {self.detail}"


def hacfsck(hacfs: "HacFileSystem", repair: bool = False) -> List[Finding]:
    """Audit (and optionally repair) every cross-structure invariant."""
    findings: List[Finding] = []
    findings += _check_device(hacfs)
    findings += _check_map_vs_tree(hacfs)
    findings += _check_states(hacfs, repair)
    findings += _check_graph(hacfs)
    findings += _check_links(hacfs, repair)
    findings += _check_index(hacfs)
    findings += _check_segments(hacfs, repair)
    findings += _check_cas(hacfs, repair)
    findings += _check_tenants(hacfs, repair)
    return findings


# ----------------------------------------------------------------------
# individual passes
# ----------------------------------------------------------------------

def _check_device(hacfs) -> List[Finding]:
    """Record-store health: checksums and leftover write-ahead intents."""
    out: List[Finding] = []
    device = hacfs.fs.device
    for key in sorted(device.record_keys()):
        if not device.verify_record(key):
            out.append(Finding("error", "corrupt-record", key,
                               "record fails its checksum (torn write?)"))
    journal = getattr(hacfs, "journal", None)
    if journal is not None:
        for intent in journal.pending():
            out.append(Finding("error", "pending-intent",
                               f"wal:{intent.seq}",
                               f"incomplete {intent.op!r} intent on the "
                               f"device — run restore() to roll it back"))
    return out


def _check_map_vs_tree(hacfs) -> List[Finding]:
    out: List[Finding] = []
    for uid, path in list(hacfs.dirmap.items()):
        if not hacfs.is_dir_path(path):
            out.append(Finding("error", "ghost-path", path,
                               f"registered (uid {uid}) but not a live directory"))
    return out


def _check_states(hacfs, repair: bool) -> List[Finding]:
    out: List[Finding] = []
    registered = {uid for uid, _p in hacfs.dirmap.items()}
    for uid in registered:
        if hacfs.meta.get(uid) is None:
            out.append(Finding("error", "missing-state",
                               hacfs.dirmap.path_of(uid) or f"uid:{uid}",
                               "registered directory has no MetaStore record"))
    for uid in list(hacfs.meta.uids()):
        if uid not in registered:
            out.append(Finding("warn", "orphan-state", f"uid:{uid}",
                               "MetaStore record the map could not place"))
            if repair:
                hacfs.meta.drop(uid)
    return out


def _check_graph(hacfs) -> List[Finding]:
    """The graph is derived from the map and the queries, which can still
    name each other in a cycle (records written by another instance)."""
    try:
        DependencyGraph.derive(hacfs.dirmap, hacfs.meta)
    except DependencyCycle as exc:
        return [Finding("error", "cycle", "/", str(exc))]
    return []


def _check_links(hacfs, repair: bool) -> List[Finding]:
    out: List[Finding] = []
    for uid, path in list(hacfs.dirmap.items()):
        state = hacfs.meta.get(uid)
        if state is None:
            continue
        tracked = dict(state.links.permanent)
        tracked.update(state.links.transient)
        lost_transient = False
        for name, target in tracked.items():
            entry = pathutil.join(path, name)
            if not hacfs.fs.islink(entry):
                transient = name in state.links.transient
                kind = "missing-transient" if transient else "missing-permanent"
                out.append(Finding("error", kind, entry,
                                   f"tracked link has no symlink ({target})"))
                if repair:
                    state.links.forget(name)
                    lost_transient |= transient
                    if not transient:
                        hacfs.meta.flush(uid)
                continue
            text = hacfs.fs.readlink(entry)
            expected = (target.remote_id().uri() if target.is_remote
                        else hacfs.path_for_target(target))
            if expected is None:
                out.append(Finding("info", "dangling-target", entry,
                                   f"target {target} no longer resolves"))
            elif text != expected and hacfs.scopes.link_target(path, text) != target:
                out.append(Finding("warn", "stale-link-text", entry,
                                   f"symlink says {text!r}, target lives at "
                                   f"{expected!r}"))
                if repair:
                    hacfs.fs.unlink(entry)
                    hacfs.fs.symlink(expected, entry)
        if lost_transient:
            # the tree is the transient table: evaluation links it again
            hacfs.consistency.reevaluate(uid)
    return out


def _check_segments(hacfs, repair: bool = False) -> List[Finding]:
    """Segment-store agreement, as the store itself audits it
    (:meth:`~repro.cba.segments.SegmentStore.audit`): every segment
    record on the device must be named by the manifest, and every
    manifest entry must have a record.  ``repair`` deletes orphan records
    (they are unreachable by construction — restore folds only what the
    manifest names)."""
    out: List[Finding] = []
    device = hacfs.fs.device
    for kind, key, detail in SegmentStore.audit(device):
        out.append(Finding("error", kind, key, detail))
        if repair and kind == "orphan-segment":
            device.delete_record(key)
    return out


def _check_cas(hacfs, repair: bool = False) -> List[Finding]:
    """Path-dimension agreement: every engine's CAS index must agree
    with its document registry doc-for-doc — same membership, and each
    document filed under its registry path's directory.  A document
    filed elsewhere is the signature of a missed re-key after a
    directory rename (``cas-divergence``).  The CAS index is derived
    state, so ``repair`` simply rebuilds it from the registry and the
    term store — always safe, never lossy."""
    out: List[Finding] = []
    engine = hacfs.engine
    if getattr(engine, "shards", None):
        engines = [(sid, shard.engine)
                   for sid, shard in engine.shards.items()]
    else:
        engines = [("engine", engine)]
    for label, eng in engines:
        cas = eng.cas
        registry = eng._docs
        cas_ids = set(cas.doc_ids())
        diverged = False
        for doc_id in sorted(cas_ids - set(registry)):
            diverged = True
            out.append(Finding("error", "cas-divergence",
                               f"{label}:doc:{doc_id}",
                               "CAS indexes a document the registry "
                               "does not know"))
        for doc_id in sorted(registry):
            doc = registry[doc_id]
            filed = cas.dir_of(doc_id)
            if filed is None:
                diverged = True
                out.append(Finding("error", "cas-divergence", doc.path,
                                   f"registry document {doc_id} missing "
                                   f"from the CAS index"))
            elif filed != pathutil.dirname(pathutil.canonical(doc.path)):
                diverged = True
                out.append(Finding("error", "cas-divergence", doc.path,
                                   f"CAS files it under {filed!r} — "
                                   f"missed re-key after a rename?"))
        if diverged and repair:
            eng.rebuild_cas()
    return out


def _check_index(hacfs) -> List[Finding]:
    out: List[Finding] = []
    seen_keys = set()
    for key in hacfs.engine.mtime_snapshot():
        if key in seen_keys:
            out.append(Finding("error", "dup-doc", str(key),
                               "document key indexed twice"))
        seen_keys.add(key)
        doc = hacfs.engine.doc_by_key(key)
        fsid, ino = key
        entry = hacfs._fs_registry.get(fsid)
        node = entry[0].node_by_ino(ino) if entry else None
        if node is None or not node.is_file:
            out.append(Finding("info", "stale-doc", doc.path if doc else str(key),
                               "indexed file no longer exists (settles at sync)"))
    return out


def _check_tenants(hacfs, repair: bool) -> List[Finding]:
    """Tenant table sanity: every attached tenant owns a live scope root,
    the charged ledger agrees with a fresh subtree recount, and usage sits
    inside the declared budgets.  ``repair=True`` adopts the recount as the
    ledger (the recount is derived from the crash-consistent tree, so it
    wins every disagreement)."""
    from repro.core.quota import RESOURCES, recompute_usage

    out: List[Finding] = []
    tenants = getattr(hacfs, "tenants", None)
    if tenants is None or len(tenants) == 0:
        return out
    for name in tenants.names():
        tenant = tenants.get(name)
        if not hacfs.fs.isdir(tenant.root):
            out.append(Finding("error", "tenant-root-missing", tenant.root,
                               f"tenant {name!r} registered but its scope "
                               f"root is not a live directory"))
            continue
        actual = recompute_usage(hacfs.fs, tenant.root)
        charged = tenant.ledger.usage()
        if actual != charged:
            out.append(Finding("warn", "tenant-usage-drift", tenant.root,
                               f"ledger says {charged}, tree recount says "
                               f"{actual}"))
            if repair:
                tenant.ledger.inodes = actual["inodes"]
                tenant.ledger.bytes = actual["bytes"]
        measured = dict(actual, docs=hacfs.engine.scope_count(tenant.root))
        for resource in RESOURCES:
            limit = tenant.ledger.spec.limit_of(resource)
            if limit is not None and measured[resource] > limit:
                out.append(Finding("warn", "tenant-over-quota", tenant.root,
                                   f"{resource} usage {measured[resource]} "
                                   f"exceeds the budget {limit} (grew "
                                   f"outside the facade?)"))
    return out

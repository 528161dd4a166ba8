"""Outside-in layer tracing: timing wrappers this benchmark installs, from
its own files, around the public entry points of each HAC layer.

Nothing in ``src/`` knows about this.  ``install`` replaces the listed
functions with wrappers that record one span per call — name, start, end,
parent span, and the id of the facade call (root span) that caused it — in
flat in-memory arrays; ``uninstall`` puts the originals back.  A layer's
self time is its spans' duration minus the part their direct children
cover, less a calibrated per-span wrapper cost.  Time spent in modules with
no wrapper (``core.watch``, ``core.semdir``, ``util.bitmap``, ...) lands in
the self time of the nearest wrapped caller.

A function bound elsewhere by ``from x import f`` is patched at every such
import site too, and a generator's span accumulates the time spent inside
its ``next()`` calls, not the time its consumer spends between them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ALL_PUBLIC = ("*",)

#: layer -> [(module, class or None, function names)].  Layers are this
#: repo's modules; a name that no longer exists is skipped and reported.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Sequence[str]]]] = {
    "core.tenant": [("repro.core.tenant", "Tenant", ALL_PUBLIC),
                    ("repro.core.tenant", "TenantManager",
                     ("create", "get", "reload", "tenant_of_path"))],
    "core.quota": [("repro.core.quota", "QuotaLedger",
                    ("check", "check_docs", "commit")),
                   ("repro.core.quota", None, ("recompute_usage",))],
    "core.hacfs": [("repro.core.hacfs", "HacFileSystem", (
        "mkdir", "makedirs", "rmdir", "create", "write_file", "read_file",
        "truncate", "unlink", "symlink", "rename", "stat", "lstat",
        "listdir", "readlink", "exists", "isdir", "isfile", "islink",
        "chmod", "open", "read", "write", "close", "smkdir", "set_query",
        "links", "health", "reindex", "ssync", "watch", "save_index",
        "restore", "_load_doc", "_persist_segments", "_publish_engine"))],
    "vfs.filesystem": [("repro.vfs.filesystem", "FileSystem", (
        "resolve", "stat", "lstat", "exists", "isdir", "isfile", "islink",
        "listdir", "mkdir", "rmdir", "create", "write_file", "read_file",
        "truncate", "unlink", "symlink", "readlink", "rename", "open",
        "read", "write", "close", "node_by_ino", "path_of_ino",
        "reset_path_map"))],
    "vfs.pathmap": [("repro.vfs.pathmap", "PathMap", (
        "lookup", "insert", "invalidate", "invalidate_prefix",
        "rebase_prefix", "clear"))],
    "vfs.walker": [("repro.vfs.walker", None, ("walk",))],
    "vfs.blockdev": [("repro.vfs.blockdev", "BlockDevice", (
        "write_record", "read_record", "delete_record"))],
    "core.journal": [("repro.core.journal", "Journal", (
        "begin", "commit", "capture", "abandon", "note_publish",
        "pending", "rollback_records"))],
    "core.scheduler": [("repro.core.scheduler", "MaintenanceScheduler", (
        "note_upsert", "note_remove", "note_move", "note_rename",
        "barrier", "drain", "publish"))],
    "core.consistency": [("repro.core.consistency", "ConsistencyManager", (
        "on_scope_changed", "reevaluate", "reevaluate_all"))],
    "core.scope": [("repro.core.scope", "ScopeResolver", (
        "provided", "provided_by_uid"))],
    "core.depgraph": [("repro.core.depgraph", "DependencyGraph", (
        "affected_order", "topo_order", "full_order", "add_node",
        "remove_node", "set_hierarchy_edge", "set_reference_edges"))],
    "cba.queryparser": [("repro.cba.queryparser", None, ("parse_query",))],
    "cba.planner": [("repro.cba.planner", None, ("plan", "provably_empty"))],
    "cba.engine": [("repro.cba.engine", "CBAEngine", (
        "search", "search_blocks", "index_document", "update_document",
        "remove_document", "rename_document", "rebase_paths", "reindex",
        "publish", "snapshot_view", "scope_docs", "scope_count",
        "rebuild_cas", "to_obj", "from_obj", "from_segments"))],
    "cba.glimpse": [("repro.cba.glimpse", "GlimpseIndex", (
        "add", "update", "remove", "candidate_blocks", "docs_with_term",
        "blocks_with_term", "docs_in_blocks", "to_obj", "from_obj"))],
    "cba.segments": [("repro.cba.segments", "SegmentStore", (
        "note", "seal", "compact", "live_rows", "load_frozen"))],
    "cba.cas": [("repro.cba.cas.index", "CASIndex", (
        "upsert", "remove", "set_path", "probe", "docs_under",
        "count_under", "rebase_prefix"))],
    "cba.agrep": [("repro.cba.agrep", None, ("matches", "matching_lines"))],
    "cba.snapshot": [("repro.cba.snapshot", "ReadReplica", (
        "search", "search_blocks", "apply", "apply_segments", "hydrate"))],
    "cluster.coordinator": [
        ("repro.cluster.coordinator", "ShardedSearchCluster", (
            "index_document", "remove_document", "update_document",
            "rename_document", "rebase_paths", "reindex", "search",
            "search_blocks", "publish", "snapshot_view", "scope_docs",
            "scope_count", "to_obj", "from_obj")),
        ("repro.cluster.coordinator", "ClusterSnapshotView", ("search",))],
    "cluster.shard": [("repro.cluster.shard", "SearchShard",
                       ("probe", "search"))],
    "core.recovery": [("repro.core.recovery", None, (
        "recover_records", "undo_tree", "rollback_in_process"))],
}

#: spans written to the JSONL file; the rest are counted, not written
SPAN_FILE_LIMIT = 200_000


class Tracer:
    """Span storage: one slot per call, in start order."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []          # name id -> "layer/function"
        self.layers: List[str] = []         # name id -> layer
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")            # -1 for a root span
        self.op = array("i")                # index of the root span
        self.busy: Dict[int, float] = {}    # generator spans: time in next()
        self.stack: List[int] = []

    def register(self, layer: str, function: str) -> int:
        self.names.append(f"{layer}/{function}")
        self.layers.append(layer)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.name_id)

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        stack = self.stack
        if stack:
            par = stack[-1]
            self.parent.append(par)
            self.op.append(self.op[par])
        else:
            self.parent.append(-1)
            self.op.append(idx)
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def duration(self, idx: int) -> float:
        busy = self.busy.get(idx)
        return busy if busy is not None else self.end[idx] - self.start[idx]


def wrap(tracer: Tracer, fn, nid: int):
    """A wrapper recording one span per call of *fn* while tracing is on."""
    pc = time.perf_counter
    if inspect.isgeneratorfunction(fn):
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.on:
                return gen
            return _drive(tracer, gen, nid)
        traced_gen.__wrapped__ = fn
        return traced_gen

    starts, ends, stack = tracer.start, tracer.end, tracer.stack
    open_span = tracer._open

    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        idx = open_span(nid)
        starts.append(pc())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[idx] = pc()
            stack.pop()
    traced.__wrapped__ = fn
    return traced


def _drive(tracer: Tracer, gen, nid: int):
    """Re-yield *gen*, charging its span only for the time inside it."""
    pc = time.perf_counter
    idx = -1
    while True:
        if idx < 0:
            idx = tracer._open(nid)
            tracer.start.append(pc())
            tracer.busy[idx] = 0.0
            t0 = tracer.start[idx]
        else:
            tracer.stack.append(idx)
            t0 = pc()
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            t1 = pc()
            tracer.stack.pop()
            tracer.busy[idx] += t1 - t0
            tracer.end[idx] = t1
        yield item


class Patch(NamedTuple):
    owner: object
    name: str
    original: object


def install(tracer: Tracer) -> Tuple[List[Patch], List[str]]:
    """Wrap every function in :data:`LAYERS`.  Returns the patches (for
    :func:`uninstall`) and the listed names that no longer exist."""
    patches: List[Patch] = []
    missing: List[str] = []
    for layer, targets in LAYERS.items():
        for modname, clsname, fnames in targets:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            if fnames is ALL_PUBLIC:
                fnames = [n for n, v in vars(owner).items()
                          if not n.startswith("_") and inspect.isfunction(v)]
            for fname in fnames:
                raw = vars(owner).get(fname)
                if raw is None:
                    missing.append(f"{modname}.{clsname or ''}.{fname}")
                    continue
                kind = type(raw) if isinstance(
                    raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind else raw
                if not inspect.isfunction(fn):
                    continue
                label = f"{clsname}.{fname}" if clsname else fname
                wrapped = wrap(tracer, fn, tracer.register(layer, label))
                new = kind(wrapped) if kind else wrapped
                setattr(owner, fname, new)
                patches.append(Patch(owner, fname, raw))
                if clsname is None:
                    patches.extend(_rebind_import_sites(module, raw, new))
    return patches, missing


def _rebind_import_sites(home, original, new) -> List[Patch]:
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or module is home or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, new)
                out.append(Patch(module, attr, original))
    return out


def uninstall(patches: List[Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.name, patch.original)


def calibrate(calls: int = 20_000) -> Tuple[float, float]:
    """Per-span wrapper cost ``(inside, outside)`` in seconds: *inside* is
    what an empty function's own span measures, *outside* is what each
    call adds to its caller beyond that."""
    pc = time.perf_counter

    def empty():
        return None

    best_raw = best_traced = float("inf")
    inside = 0.0
    for _ in range(5):
        t0 = pc()
        for _i in range(calls):
            empty()
        best_raw = min(best_raw, pc() - t0)
        tracer = Tracer()
        traced = wrap(tracer, empty, tracer.register("calibration", "empty"))
        tracer.on = True
        root = tracer._open(0)          # spans are mostly nested: be nested
        tracer.start.append(pc())
        t0 = pc()
        for _i in range(calls):
            traced()
        elapsed = pc() - t0
        tracer.end[root] = pc()
        tracer.on = False
        if elapsed < best_traced:
            best_traced = elapsed
            inside = sum(tracer.end[i] - tracer.start[i]
                         for i in range(1, len(tracer))) / calls
    outside = max(0.0, (best_traced - best_raw) / calls - inside)
    return inside, outside


class Breakdown(NamedTuple):
    self_s: Dict[str, float]     # layer -> corrected self time
    calls: Dict[str, int]        # layer -> spans
    roots: int                   # facade calls
    root_wall_s: float           # sum of root span durations, uncorrected


def self_times(tracer: Tracer, inside: float = 0.0,
               outside: float = 0.0) -> List[float]:
    """Every span's self time: its duration minus its direct children's
    durations, minus the wrapper cost it carries — *inside* once,
    *outside* once per direct child — and never below zero."""
    n = len(tracer)
    parent = tracer.parent
    duration = [tracer.duration(i) for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += duration[i] + outside
    return [max(0.0, duration[i] - covered[i] - inside) for i in range(n)]


def breakdown(tracer: Tracer, inside: float = 0.0, outside: float = 0.0,
              ranges: Optional[Sequence[Tuple[int, int]]] = None,
              own: Optional[List[float]] = None) -> Breakdown:
    """Self time and call count per layer (see :func:`self_times`).

    *ranges* restricts the sums to spans ``lo <= i < hi``; a range must
    hold whole facade calls (the benchmark records them per class round,
    between timers, when no span is open).  Pass *own* to reuse self
    times already computed."""
    if own is None:
        own = self_times(tracer, inside, outside)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    roots = 0
    root_wall = 0.0
    layers, name_id, parent = tracer.layers, tracer.name_id, tracer.parent
    for lo, hi in (ranges if ranges is not None else [(0, len(tracer))]):
        for i in range(lo, hi):
            layer = layers[name_id[i]]
            self_s[layer] = self_s.get(layer, 0.0) + own[i]
            calls[layer] = calls.get(layer, 0) + 1
            if parent[i] < 0:
                roots += 1
                root_wall += tracer.duration(i)
    return Breakdown(self_s, calls, roots, root_wall)


def write_jsonl(tracer: Tracer, path: str) -> int:
    """Write the first :data:`SPAN_FILE_LIMIT` spans, one JSON object a
    line, then one ``{"truncated": ...}`` line if spans were left out."""
    n = min(len(tracer), SPAN_FILE_LIMIT)
    with open(path, "w", encoding="utf-8") as out:
        for i in range(n):
            row = {"span": i, "name": tracer.names[tracer.name_id[i]],
                   "start": tracer.start[i], "end": tracer.end[i],
                   "parent": tracer.parent[i], "op": tracer.op[i]}
            if i in tracer.busy:
                row["busy"] = tracer.busy[i]
            out.write(json.dumps(row) + "\n")
        if n < len(tracer):
            out.write(json.dumps({"truncated": True, "written": n,
                                  "recorded": len(tracer)}) + "\n")
    return n

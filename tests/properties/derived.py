"""Derived = maintained: neither the global map nor the dependency graph
is persisted, so the map and graph ``HacFileSystem`` keeps current
mutation by mutation must at every moment be the ones a load would
rebuild — the map from the places the device's ``semdir:`` records hold
(:meth:`GlobalDirectoryMap.load_places`), the graph from that map and the
directories' queries (:meth:`DependencyGraph.derive`).  Likewise the
index: the device's segments, with the memtable folded on top, hold
exactly the engine's live documents.
"""

from repro.cba.segments import Segment, SegmentStore
from repro.core.depgraph import DependencyGraph
from repro.core.semdir import MetaStore
from repro.util.idmap import GlobalDirectoryMap
from repro.util.stats import Counters


def graph_shape(graph: DependencyGraph):
    """Everything a dependency graph says, as plain comparable data:
    ``{uid: (hierarchy parent, providers by kind, dependents)}``."""
    return {uid: (graph.hierarchy_parent(uid), graph.providers_of(uid),
                  graph.dependents_of(uid))
            for uid in graph.nodes()}


def map_from_records(device) -> GlobalDirectoryMap:
    """The global map a load derives from *device*'s records alone."""
    meta = MetaStore(device)
    meta.reload_all()
    loaded = GlobalDirectoryMap()
    loaded.load_places(meta.places(), ())
    return loaded


def assert_map_is_derived(dirmap, device, where=None) -> None:
    assert dict(map_from_records(device).items()) == dict(dirmap.items()), \
        where


def assert_is_derived(hac, where=None) -> None:
    """The map and the graph *hac* maintains are the ones it would load."""
    assert_map_is_derived(hac.dirmap, hac.fs.device, where)
    derived = DependencyGraph.derive(hac.dirmap, hac.meta)
    assert graph_shape(derived) == graph_shape(hac.depgraph), where


def assert_segments_are_derived(hac, where=None) -> None:
    """The device's segments folded, with the memtable on top, equal the
    engine's live rows (doc id, path, terms).  Engines without a segment
    store (clusters, the op-log monolith) persist none: nothing to check."""
    store = getattr(hac.engine, "segments", None)
    if store is None:
        return
    loaded = SegmentStore.load(hac.fs.device, Counters())
    folded = loaded[0] if loaded is not None else SegmentStore()
    folded.frozen.append(Segment("memtable", tuple(store.memtable.values())))
    persisted = {row.doc_id: (row.path, row.terms)
                 for row in folded.live_rows().values()}
    live = {row.doc_id: (row.path, row.terms)
            for row in hac.engine.doc_rows().values()}
    assert persisted == live, where

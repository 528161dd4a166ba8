"""Property tests: the dependency DAG cross-checked against networkx.

Random edge-insertion histories must (a) accept exactly the edges networkx
says keep the graph acyclic, (b) produce orders networkx validates as
topological, and (c) leave the maintained graph equal, after every step,
to the one ``derive`` rebuilds from a global map and the queries alone —
whose single whole-graph validation must reject exactly what the per-edge
check rejected.
"""

import networkx as nx
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DependencyCycle
from repro.cba.queryast import DirRef, Or
from repro.core.depgraph import ROOT_UID, DependencyGraph
from repro.core.semdir import MetaStore
from repro.util.idmap import GlobalDirectoryMap
from repro.vfs.blockdev import BlockDevice

from tests.properties.derived import graph_shape

N_NODES = 8

edge_ops = st.lists(
    st.tuples(st.integers(min_value=1, max_value=N_NODES),     # dependent
              st.integers(min_value=1, max_value=N_NODES)),    # provider
    max_size=25)


def naming(uids):
    """A query whose directory references are exactly *uids*."""
    refs = [DirRef(uid) for uid in sorted(uids)]
    return Or(refs) if len(refs) > 1 else refs[0]


def build(ops):
    """Apply reference-edge insertions to both graphs in lockstep, and the
    queries that imply them to a flat name space ``derive`` reads."""
    graph = DependencyGraph()
    model = nx.DiGraph()
    model.add_node(ROOT_UID)
    dirmap, meta = GlobalDirectoryMap(), MetaStore(BlockDevice())
    for uid in range(1, N_NODES + 1):
        graph.add_node(uid)
        graph.set_hierarchy_edge(uid, ROOT_UID)
        model.add_edge(ROOT_UID, uid)
        assert dirmap.register(f"/d{uid}") == uid
        meta.create(uid)
    refs = {uid: set() for uid in range(1, N_NODES + 1)}
    for dependent, provider in ops:
        wanted = refs[dependent] | {provider}
        candidate = model.copy()
        candidate.add_edges_from((p, dependent) for p in wanted)
        should_succeed = nx.is_directed_acyclic_graph(candidate)
        try:
            graph.set_reference_edges(dependent, wanted)
            accepted = True
        except DependencyCycle:
            accepted = False
        assert accepted == should_succeed, (dependent, provider)
        state = meta.require(dependent)
        settled, state.query = state.query, naming(wanted)
        if not accepted:
            with pytest.raises(DependencyCycle):
                DependencyGraph.derive(dirmap, meta)
            state.query = settled
        assert graph_shape(DependencyGraph.derive(dirmap, meta)) \
            == graph_shape(graph), (dependent, provider)
        if accepted:
            refs[dependent] = wanted
            model.remove_edges_from([(p, dependent) for p in list(model.predecessors(dependent))
                                     if p != ROOT_UID])
            model.add_edges_from((p, dependent) for p in wanted)
    return graph, model


@settings(max_examples=50, deadline=None)
@given(edge_ops)
def test_cycle_rejection_matches_networkx(ops):
    build(ops)


@settings(max_examples=50, deadline=None)
@given(edge_ops)
def test_full_order_is_topological(ops):
    graph, model = build(ops)
    order = graph.full_order()
    assert sorted(order) == sorted(model.nodes)
    position = {uid: i for i, uid in enumerate(order)}
    for provider, dependent in model.edges:
        assert position[provider] < position[dependent], (provider, dependent)


@settings(max_examples=50, deadline=None)
@given(edge_ops, st.integers(min_value=0, max_value=N_NODES))
def test_affected_set_matches_descendants(ops, start):
    graph, model = build(ops)
    affected = graph.affected_order(start)
    expected = nx.descendants(model, start) if start in model else set()
    assert set(affected) == expected
    position = {uid: i for i, uid in enumerate(affected)}
    for provider, dependent in model.edges:
        if provider in position and dependent in position:
            assert position[provider] < position[dependent]

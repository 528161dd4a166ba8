"""Unit tests for the dependency DAG (§2.5)."""

import pytest

from repro.errors import DependencyCycle
from repro.cba.queryast import And, DirRef, Term
from repro.core.depgraph import ROOT_UID, DependencyGraph
from repro.core.semdir import MetaStore
from repro.util.idmap import GlobalDirectoryMap
from repro.vfs.blockdev import BlockDevice

from tests.properties.derived import graph_shape


@pytest.fixture
def graph():
    g = DependencyGraph()
    for uid in (1, 2, 3, 4):
        g.add_node(uid)
    # hierarchy: 1 and 2 under root, 3 under 1, 4 under 3
    g.set_hierarchy_edge(1, ROOT_UID)
    g.set_hierarchy_edge(2, ROOT_UID)
    g.set_hierarchy_edge(3, 1)
    g.set_hierarchy_edge(4, 3)
    return g


class TestStructure:
    def test_nodes(self, graph):
        assert set(graph.nodes()) == {ROOT_UID, 1, 2, 3, 4}
        assert 1 in graph and 99 not in graph

    def test_duplicate_node_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_node(1)

    def test_hierarchy_parent(self, graph):
        assert graph.hierarchy_parent(3) == 1
        assert graph.hierarchy_parent(1) == ROOT_UID
        assert graph.hierarchy_parent(ROOT_UID) is None

    def test_reparent_replaces_hierarchy_edge(self, graph):
        graph.set_hierarchy_edge(3, 2)
        assert graph.hierarchy_parent(3) == 2
        assert 3 not in graph.dependents_of(1)
        assert 3 in graph.dependents_of(2)

    def test_reference_edges_replace(self, graph):
        graph.set_reference_edges(2, [3])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy", 3: "reference"}
        graph.set_reference_edges(2, [4])
        assert 3 not in graph.providers_of(2)
        assert 4 in graph.providers_of(2)
        graph.set_reference_edges(2, [])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy"}

    def test_reference_to_root_implicit(self, graph):
        graph.set_reference_edges(2, [ROOT_UID])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy"}

    def test_dangling_reference_tolerated(self, graph):
        graph.set_reference_edges(2, [999])
        assert 999 not in graph.providers_of(2)

    def test_remove_node_cleans_edges(self, graph):
        graph.set_reference_edges(2, [3])
        graph.remove_node(3)
        assert 3 not in graph
        assert 3 not in graph.providers_of(2)
        assert 3 not in graph.dependents_of(1)
        # 4's hierarchy provider vanished with node 3
        assert graph.hierarchy_parent(4) is None

    def test_remove_root_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.remove_node(ROOT_UID)


class TestCycles:
    def test_self_reference_rejected(self, graph):
        with pytest.raises(DependencyCycle):
            graph.set_reference_edges(1, [1])

    def test_direct_cycle_rejected(self, graph):
        graph.set_reference_edges(2, [3])
        with pytest.raises(DependencyCycle):
            graph.set_reference_edges(3, [2])

    def test_transitive_cycle_rejected(self, graph):
        # 4 depends on 3 depends on 1 (hierarchy); 1 -> ref 4 would cycle
        with pytest.raises(DependencyCycle):
            graph.set_reference_edges(1, [4])

    def test_hierarchy_cycle_rejected(self, graph):
        with pytest.raises(DependencyCycle):
            graph.set_hierarchy_edge(1, 4)
        with pytest.raises(DependencyCycle):
            graph.set_hierarchy_edge(1, 1)

    def test_failed_reference_update_leaves_graph_intact(self, graph):
        graph.set_reference_edges(2, [3])
        with pytest.raises(DependencyCycle):
            graph.set_reference_edges(3, [4, 2])  # 2 would cycle
        # the old edges survive untouched
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy", 3: "reference"}
        assert 4 not in graph.providers_of(3)

    def test_diamond_is_fine(self, graph):
        # 2 references 3 and 4 (which already share ancestry through 1)
        graph.set_reference_edges(2, [3, 4])
        assert set(graph.providers_of(2)) == {ROOT_UID, 3, 4}


class TestOrdering:
    def test_affected_order_descendants(self, graph):
        order = graph.affected_order(1)
        assert order == [3, 4]

    def test_affected_order_include_start(self, graph):
        order = graph.affected_order(1, include_start=True)
        assert order == [1, 3, 4]

    def test_affected_via_reference(self, graph):
        graph.set_reference_edges(2, [4])
        order = graph.affected_order(1, include_start=True)
        # 2 depends on 4 depends on 3 depends on 1
        assert order.index(2) > order.index(4) > order.index(3) > order.index(1)

    def test_root_affects_everything(self, graph):
        assert set(graph.affected_order(ROOT_UID)) == {1, 2, 3, 4}

    def test_full_order_root_first(self, graph):
        order = graph.full_order()
        assert order[0] == ROOT_UID
        assert order.index(3) > order.index(1)
        assert order.index(4) > order.index(3)

    def test_topo_order_subset(self, graph):
        order = graph.topo_order({4, 1, 3, 999})
        assert order == [1, 3, 4]

    def test_leaf_affects_nothing(self, graph):
        assert graph.affected_order(4) == []


class TestDerive:
    """The graph is never persisted: a load derives it from the global
    map (hierarchy edges) and the directories' queries (reference
    edges)."""

    @pytest.fixture
    def namespace(self):
        """The fixture graph's tree as the two primary structures:
        /d1, /d2, /d1/d3, /d1/d3/d4 registered in uid order."""
        dirmap = GlobalDirectoryMap()
        for path in ("/d1", "/d2", "/d1/d3", "/d1/d3/d4"):
            dirmap.register(path)
        meta = MetaStore(BlockDevice())
        for uid, path in dirmap.items():
            meta.create(uid, *dirmap.place_of(path))
        return dirmap, meta

    def test_derive_roundtrip(self, graph, namespace):
        dirmap, meta = namespace
        graph.set_reference_edges(2, [4])
        meta.require(2).query = And([Term("x"), DirRef(4)])
        derived = DependencyGraph.derive(dirmap, meta)
        assert graph_shape(derived) == graph_shape(graph)
        assert derived.full_order() == graph.full_order()

    def test_dangling_and_root_references_add_no_edge(self, namespace):
        dirmap, meta = namespace
        meta.require(2).query = And([DirRef(999), DirRef(ROOT_UID)])
        derived = DependencyGraph.derive(dirmap, meta)
        assert derived.providers_of(2) == {ROOT_UID: "hierarchy"}

    def test_unregistered_parent_leaves_no_hierarchy_edge(self):
        dirmap = GlobalDirectoryMap()
        uid = dirmap.register("/gone/child")
        derived = DependencyGraph.derive(dirmap, MetaStore(BlockDevice()))
        assert uid in derived and derived.hierarchy_parent(uid) is None

    def test_persisted_cycle_raises(self, namespace):
        dirmap, meta = namespace
        meta.require(1).query = DirRef(4)    # 4 sits under 3 under 1
        with pytest.raises(DependencyCycle):
            DependencyGraph.derive(dirmap, meta)
        meta.require(1).query = DirRef(1)
        with pytest.raises(DependencyCycle):
            DependencyGraph.derive(dirmap, meta)


class TestParentAlsoReferenced:
    """A query may name the directory's own parent: the pair then carries
    both edge kinds, and neither edit disturbs the other."""

    def test_reference_to_parent_keeps_the_hierarchy_edge(self, graph):
        graph.set_reference_edges(3, [1])
        assert graph.hierarchy_parent(3) == 1
        graph.set_reference_edges(3, [])
        assert graph.hierarchy_parent(3) == 1
        assert 3 in graph.dependents_of(1)

    def test_moving_away_keeps_the_reference_edge(self, graph):
        graph.set_reference_edges(3, [2])
        graph.set_hierarchy_edge(3, 2)       # moved under what it names
        graph.set_hierarchy_edge(3, 1)       # and back out
        assert graph.providers_of(3) == {1: "hierarchy", 2: "reference"}
        assert 3 in graph.dependents_of(2)
        assert graph.affected_order(2) == [3, 4]

"""Unit tests for the dependency DAG (§2.5): the root and the semantic
directories are its nodes, a plain directory only ever a provider."""

import pytest

from repro.errors import DependencyCycle
from repro.cba.queryast import And, DirRef, Term
from repro.core.depgraph import ROOT_UID, DependencyGraph
from repro.core.semdir import MetaStore
from repro.util.idmap import GlobalDirectoryMap
from repro.vfs.blockdev import BlockDevice

from tests.properties.derived import graph_shape

#: a plain directory under the root, and a semantic one (5) under it
PLAIN = 10


@pytest.fixture
def graph():
    g = DependencyGraph()
    # semantic 1 and 2 under root, 3 under 1, 4 under 3; 5 under plain 10
    g.add_node(1, ROOT_UID)
    g.add_node(2, ROOT_UID)
    g.add_node(3, 1)
    g.add_node(4, 3)
    g.add_node(5, PLAIN)
    return g


class TestStructure:
    def test_nodes(self, graph):
        assert set(graph.nodes()) == {ROOT_UID, 1, 2, 3, 4, 5}
        assert 1 in graph and 99 not in graph
        # a plain provider is a key of the dependents index, not a node
        assert PLAIN not in graph
        assert graph.dependents_of(PLAIN) == {5}

    def test_duplicate_node_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_node(1, ROOT_UID)

    def test_hierarchy_parent(self, graph):
        assert graph.hierarchy_parent(3) == 1
        assert graph.hierarchy_parent(1) == ROOT_UID
        assert graph.hierarchy_parent(5) == PLAIN
        assert graph.hierarchy_parent(ROOT_UID) is None

    def test_reparent_replaces_hierarchy_edge(self, graph):
        graph.set_hierarchy_edge(3, 2)
        assert graph.hierarchy_parent(3) == 2
        assert 3 not in graph.dependents_of(1)
        assert 3 in graph.dependents_of(2)
        graph.set_hierarchy_edge(3, PLAIN)
        assert graph.dependents_of(PLAIN) == {3, 5}
        assert 3 not in graph.dependents_of(2)

    def test_reference_edges_replace(self, graph):
        graph.set_reference_edges(2, [3])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy", 3: "reference"}
        graph.set_reference_edges(2, [4, PLAIN])
        assert 3 not in graph.providers_of(2)
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy",
                                         4: "reference", PLAIN: "reference"}
        graph.set_reference_edges(2, [])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy"}
        assert graph.dependents_of(PLAIN) == {5}

    def test_reference_to_root_implicit(self, graph):
        """Naming the root is implicit for a directory under it (the one
        edge is its hierarchy edge); anywhere else it is a real edge, since
        a change anywhere changes the root's scope."""
        graph.set_reference_edges(2, [ROOT_UID])
        assert graph.providers_of(2) == {ROOT_UID: "hierarchy"}
        graph.set_reference_edges(5, [ROOT_UID])
        assert graph.providers_of(5) == {PLAIN: "hierarchy",
                                         ROOT_UID: "reference"}
        assert 5 in graph.dependents_of(ROOT_UID)

    def test_dangling_reference_tolerated(self, graph):
        """A gone directory resolves empty: the edge is kept (it keeps
        meaning "gone"), checked for no cycle, and is no node."""
        graph.set_reference_edges(2, [999])
        assert graph.providers_of(2)[999] == "reference"
        assert 999 not in graph and graph.dependents_of(999) == {2}

    def test_remove_node_cleans_edges(self, graph):
        graph.set_reference_edges(2, [3])
        graph.remove_node(3)
        assert 3 not in graph
        assert 3 not in graph.dependents_of(1)
        # what depended on 3 still depends on the uid, now a plain (or a
        # gone) provider: 2 by reference, 4 through its hierarchy edge
        assert graph.providers_of(2)[3] == "reference"
        assert graph.hierarchy_parent(4) == 3
        assert graph.dependents_of(3) == {2, 4}
        graph.remove_node(4)
        graph.set_reference_edges(2, [])
        assert graph.dependents_of(3) == set()

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
        # becoming semantic under a directory that names you is a cycle
        graph.set_reference_edges(2, [PLAIN])
        with pytest.raises(DependencyCycle):
            graph.add_node(PLAIN, 2)
        assert PLAIN not in graph

    def test_a_plain_provider_closes_no_cycle(self, graph):
        """A plain scope excludes its semantic descendants' links, so it
        depends on nothing: 1 may name a plain directory placed below it,
        and a semantic one below that (5, moved under the plain one)."""
        graph.set_reference_edges(1, [PLAIN])
        graph.set_hierarchy_edge(5, PLAIN)
        graph.set_reference_edges(2, [5])
        assert set(graph.providers_of(1)) == {ROOT_UID, PLAIN}

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
        assert graph.affected_order([1]) == [1, 3, 4]

    def test_affected_order_include_start(self, graph):
        """A seed is in the order when it is semantic; a plain one or the
        root reaches its dependents only through the seed rule."""
        assert graph.affected_order([3]) == [3, 4]
        assert graph.affected_order([PLAIN, ROOT_UID]) == []

    def test_affected_via_reference(self, graph):
        graph.set_reference_edges(2, [4])
        order = graph.affected_order([1])
        # 2 depends on 4 depends on 3 depends on 1
        assert order.index(2) > order.index(4) > order.index(3) > order.index(1)

    def test_root_affects_everything(self, graph):
        """Seeded with the root's dependents, a cascade reaches every
        directory below it through semantic ones — and not 5, under a
        plain directory: the root's scope does not feed it."""
        seeds = graph.dependents_of(ROOT_UID)
        assert set(graph.affected_order(seeds)) == {1, 2, 3, 4}

    def test_full_order_root_first(self, graph):
        order = graph.full_order()
        assert order[0] == ROOT_UID
        assert order.index(3) > order.index(1)
        assert order.index(4) > order.index(3)
        assert set(order) == {ROOT_UID, 1, 2, 3, 4, 5}

    def test_topo_order_subset(self, graph):
        order = graph.topo_order({4, 1, 3, 999, PLAIN})
        assert order == [1, 3, 4]

    def test_leaf_affects_nothing(self, graph):
        assert graph.affected_order(graph.dependents_of(4)) == []


class TestLinkFed:
    """Where a directory's last evaluation followed symlinks to: a change
    there, or above it, reaches the directory."""

    def test_a_new_node_is_fed_from_anywhere_until_recorded(self, graph):
        assert graph.fed_from("/w") >= {1, 2, 3, 4, 5}
        graph.record_feeds(5, ["/w/deep"])
        for uid in (1, 2, 3, 4):
            graph.record_feeds(uid, [])
        assert graph.fed_from("/w") == {5}
        assert graph.fed_from("/") == {5}
        assert graph.fed_from("/w/deep") == {5}
        assert graph.fed_from("/w/deep/er") == set()
        assert graph.fed_from("/v") == set()

    def test_an_unplaceable_target_feeds_from_everywhere(self, graph):
        graph.record_feeds(5, ["/w", "/"])
        assert 5 in graph.fed_from("/v/x")
        graph.record_feeds(5, ["/w"])
        assert 5 not in graph.fed_from("/v/x")
        graph.remove_node(5)
        assert 5 not in graph.fed_from("/w")


class TestDerive:
    """The graph is never persisted: a load derives it from the global
    map (each semantic directory's parent) and the directories' queries
    (reference edges)."""

    @pytest.fixture
    def namespace(self):
        """The fixture graph's tree as the two primary structures: /d1,
        /d2, /d1/d3, /d1/d3/d4 registered in uid order and semantic, and
        the plain /p holding semantic /p/s."""
        dirmap = GlobalDirectoryMap()
        for path in ("/d1", "/d2", "/d1/d3", "/d1/d3/d4", "/p", "/p/s"):
            dirmap.register(path)
        meta = MetaStore(BlockDevice())
        for uid, path in dirmap.items():
            meta.create(uid, *dirmap.place_of(path))
            if uid not in (ROOT_UID, 5):
                meta.require(uid).query = Term("x")
        return dirmap, meta

    def test_derive_roundtrip(self, namespace):
        dirmap, meta = namespace
        graph = DependencyGraph()
        for uid, parent in ((1, ROOT_UID), (2, ROOT_UID), (3, 1), (4, 3),
                            (6, 5)):
            graph.add_node(uid, parent)
        graph.set_reference_edges(2, [4, 5])
        meta.require(2).query = And([Term("x"), DirRef(4), DirRef(5)])
        derived = DependencyGraph.derive(dirmap, meta)
        assert graph_shape(derived) == graph_shape(graph)
        assert derived.full_order() == graph.full_order()

    def test_dangling_and_root_references_add_no_edge(self, namespace):
        """...to a node: each is the key of the dependents index a
        maintained graph would have, and no cycle check looks at it."""
        dirmap, meta = namespace
        meta.require(2).query = And([DirRef(999), DirRef(ROOT_UID)])
        meta.require(6).query = DirRef(ROOT_UID)
        derived = DependencyGraph.derive(dirmap, meta)
        assert derived.providers_of(2) == {ROOT_UID: "hierarchy",
                                           999: "reference"}
        assert derived.providers_of(6) == {5: "hierarchy",
                                           ROOT_UID: "reference"}
        assert 999 not in derived

    def test_unregistered_parent_leaves_no_hierarchy_edge(self):
        dirmap = GlobalDirectoryMap()
        uid = dirmap.register("/gone/child")
        meta = MetaStore(BlockDevice())
        meta.create(uid, ROOT_UID, "gone/child")
        meta.require(uid).query = Term("x")
        derived = DependencyGraph.derive(dirmap, meta)
        assert uid in derived and derived.hierarchy_parent(uid) is None
        assert derived.providers_of(uid) == {}

    def test_persisted_cycle_raises(self, namespace):
        dirmap, meta = namespace
        meta.require(1).query = DirRef(4)    # 4 sits under 3 under 1
        with pytest.raises(DependencyCycle):
            DependencyGraph.derive(dirmap, meta)
        meta.require(1).query = DirRef(1)
        with pytest.raises(DependencyCycle):
            DependencyGraph.derive(dirmap, meta)
        # naming the plain directory that holds a semantic one is fine
        meta.require(1).query = DirRef(5)
        meta.require(6).query = DirRef(1)
        assert DependencyGraph.derive(dirmap, meta).affected_order([1]) \
            == [1, 3, 6, 4]


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
        assert graph.affected_order([2]) == [2, 3, 4]

"""Derived = maintained: the dependency graph is never persisted, so the
graph ``HacFileSystem`` keeps current mutation by mutation must at every
moment be the graph :meth:`DependencyGraph.derive` would rebuild from the
two primary structures — the global map and the directories' queries.
"""

from repro.core.depgraph import DependencyGraph


def graph_shape(graph: DependencyGraph):
    """Everything a dependency graph says, as plain comparable data:
    ``{uid: (hierarchy parent, providers by kind, dependents)}``."""
    return {uid: (graph.hierarchy_parent(uid), graph.providers_of(uid),
                  graph.dependents_of(uid))
            for uid in graph.nodes()}


def assert_graph_is_derived(hac, where=None) -> None:
    derived = DependencyGraph.derive(hac.dirmap, hac.meta)
    assert graph_shape(derived) == graph_shape(hac.depgraph), where

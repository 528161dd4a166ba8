"""The dependency DAG over directories (paper §2.5).

``new`` *depends on* ``old`` when ``old``'s scope feeds ``new``'s query
result.  Two edge kinds exist:

* **hierarchical** — every directory depends on its parent (under the
  covers, the child's effective query is ``<query> AND <parent>``);
* **reference** — a query that names another directory's path depends on
  that directory, wherever it sits in the tree.

Dependencies are transitive; cycles are rejected at the moment a query
would create one ("we do not allow cycles to exist in this graph for
obvious reasons").  When a directory's provided scope changes, every
directory reachable along dependency edges must be re-evaluated — in
topological order, so each is evaluated exactly once with its inputs
already settled.  The root (UID 0) depends on nothing and precedes
everything, exactly as the paper requires.

Nodes are directory UIDs from the global map, so renames never disturb the
graph.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import DependencyCycle
from repro.obs.trace import NULL_TRACER
from repro.util import pathutil

ROOT_UID = 0

HIERARCHY = "hierarchy"
REFERENCE = "reference"


class DependencyGraph:
    """Directed graph: provider → dependent, with labelled edge kinds.

    An index over the directories' records — the global map derived from
    their places fixes every hierarchy edge, their queries every
    reference edge — so it is never persisted: :meth:`derive` rebuilds
    it on every load and the mutators below keep it current in between.
    """

    def __init__(self):
        #: child uid → its hierarchy parent (the root has none)
        self._parent: Dict[int, int] = {}
        #: dependent uid → the providers its query references; a node is
        #: in the graph exactly when it has an entry here
        self._refs: Dict[int, Set[int]] = {ROOT_UID: set()}
        #: provider uid → dependents along either edge kind
        self._dependents: Dict[int, Set[int]] = {ROOT_UID: set()}
        #: observability hook (re-wired by HacFileSystem after every
        #: (re)construction, since the graph is rebuilt on every load)
        self.tracer = NULL_TRACER

    @classmethod
    def derive(cls, dirmap, meta) -> "DependencyGraph":
        """The graph a name space implies: a node per registered
        directory, a hierarchy edge to the directory registered at its
        parent path, a reference edge per live directory its query names
        (a dangling reference resolves empty and depends on nothing).
        Adjacency is filled directly and validated once — a cycle among
        the persisted queries raises :class:`DependencyCycle`."""
        graph = cls()
        parent, refs, dependents = graph._parent, graph._refs, graph._dependents
        uid_at = {path: uid for uid, path in dirmap.items()}
        for uid in uid_at.values():
            refs[uid] = set()
            dependents[uid] = set()
        for path, uid in uid_at.items():
            above = uid_at.get(pathutil.dirname(path))
            if uid != ROOT_UID and above is not None:
                parent[uid] = above
                dependents[above].add(uid)
            state = meta.get(uid)
            if state is not None and state.query is not None:
                refs[uid] = {ref for ref in state.query.dir_refs()
                             if ref != ROOT_UID and ref in refs}
                for ref in refs[uid]:
                    dependents[ref].add(uid)
        graph.full_order()
        return graph

    # ------------------------------------------------------------------
    # node / edge maintenance
    # ------------------------------------------------------------------

    def add_node(self, uid: int) -> None:
        if uid in self._refs:
            raise ValueError(f"node {uid} already in dependency graph")
        self._refs[uid] = set()
        self._dependents[uid] = set()

    def remove_node(self, uid: int) -> None:
        """Drop a directory: its edges go with it; queries that referenced it
        now have a dangling reference (resolved as empty by the evaluator)."""
        if uid == ROOT_UID:
            raise ValueError("cannot remove the root")
        for provider in self.providers_of(uid):
            self._dependents[provider].discard(uid)
        self._parent.pop(uid, None)
        self._refs.pop(uid, None)
        for dependent in self._dependents.pop(uid, ()):
            self._refs[dependent].discard(uid)
            if self._parent.get(dependent) == uid:
                del self._parent[dependent]

    def __contains__(self, uid: int) -> bool:
        return uid in self._refs

    def nodes(self) -> List[int]:
        return list(self._refs)

    def set_hierarchy_edge(self, child: int, parent: int) -> None:
        """(Re)attach *child* under *parent*; replaces any previous one."""
        old_parent = self._parent.pop(child, None)
        # a reference edge to the same provider survives independently
        if old_parent is not None and old_parent not in self._refs[child]:
            self._dependents[old_parent].discard(child)
        self._check_no_path(child, parent)
        self._parent[child] = parent
        self._dependents[parent].add(child)

    def set_reference_edges(self, dependent: int, providers: Iterable[int]) -> None:
        """Replace *dependent*'s reference edges with the given provider set
        (called whenever its query changes)."""
        wanted = set(providers)
        wanted.discard(ROOT_UID)  # everything depends on root implicitly
        wanted &= self._refs.keys()  # dangling: tolerated, resolves empty
        current = self._refs[dependent]
        # validate every new edge before touching any: a cycle must leave
        # the old edges fully intact
        for provider in wanted - current:
            self._check_no_path(dependent, provider)
        for provider in current - wanted:
            # the hierarchy edge to the same provider survives independently
            if provider != self._parent.get(dependent):
                self._dependents[provider].discard(dependent)
        for provider in wanted:
            self._dependents[provider].add(dependent)
        self._refs[dependent] = wanted

    def _check_no_path(self, src: int, dst: int) -> None:
        """Adding dst→src requires no existing path src→dst (else a cycle,
        reported with the dependency path src ⇝ dst that closes it)."""
        if src == dst:
            raise DependencyCycle(str(src), [src, src])
        reached_from: Dict[int, int] = {src: src}
        frontier = deque([src])
        while frontier:
            cur = frontier.popleft()
            for dependent in self._dependents.get(cur, ()):
                if dependent in reached_from:
                    continue
                reached_from[dependent] = cur
                if dependent == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(reached_from[path[-1]])
                    raise DependencyCycle(str(dst), path[::-1] + [src])
                frontier.append(dependent)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def providers_of(self, uid: int) -> Dict[int, str]:
        out = dict.fromkeys(self._refs.get(uid, ()), REFERENCE)
        if uid in self._parent:
            out[self._parent[uid]] = HIERARCHY
        return out

    def dependents_of(self, uid: int) -> Set[int]:
        return set(self._dependents.get(uid, set()))

    def hierarchy_parent(self, uid: int) -> Optional[int]:
        return self._parent.get(uid)

    # ------------------------------------------------------------------
    # evaluation order
    # ------------------------------------------------------------------

    def affected_order(self, start: int, include_start: bool = False) -> List[int]:
        """Every transitive dependent of *start*, in topological order.

        The order is computed by Kahn's algorithm restricted to the affected
        subgraph, so each affected directory appears after all of its
        affected providers — the paper's requirement for correct
        re-evaluation.
        """
        affected: Set[int] = set()
        frontier = deque([start])
        while frontier:
            cur = frontier.popleft()
            for dependent in self._dependents.get(cur, ()):
                if dependent not in affected:
                    affected.add(dependent)
                    frontier.append(dependent)
        if include_start:
            affected.add(start)
        if self.tracer.enabled:
            self.tracer.event("dep.affected", start=start,
                              affected=len(affected))
        return self._topo_sort(affected)

    def full_order(self) -> List[int]:
        """Topological order of the whole graph (global re-evaluation)."""
        if self.tracer.enabled:
            self.tracer.event("dep.full_order", nodes=len(self._refs))
        return self._topo_sort(set(self._refs))

    def topo_order(self, nodes: Iterable[int]) -> List[int]:
        """Topological order restricted to *nodes* (unknown uids ignored)."""
        return self._topo_sort({n for n in nodes if n in self._refs})

    def _topo_sort(self, nodes: Set[int]) -> List[int]:
        indeg = {}
        for n in nodes:
            above = self._parent.get(n)
            indeg[n] = int(above in nodes)
            for provider in self._refs[n]:
                # naming one's own parent adds no second edge
                if provider in nodes and provider != above:
                    indeg[n] += 1
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: List[int] = []
        while ready:
            cur = ready.popleft()
            order.append(cur)
            for dependent in sorted(self._dependents.get(cur, ())):
                if dependent in indeg and dependent in nodes:
                    indeg[dependent] -= 1
                    if indeg[dependent] == 0:
                        ready.append(dependent)
        if len(order) != len(nodes):
            leftovers = sorted(nodes - set(order))
            raise DependencyCycle(str(leftovers[0]), leftovers)
        return order

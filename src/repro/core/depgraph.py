"""The dependency DAG over semantic directories (paper §2.5).

The DAG orders the re-evaluation of query results, so its nodes are the
semantic directories, plus the root.  ``new`` *depends on* ``old`` when
``old``'s scope feeds ``new``'s query result, along two edge kinds:

* **hierarchical** — from its parent directory, plain or semantic (under
  the covers, the child's effective query is ``<query> AND <parent>``);
* **reference** — from each directory its query names, wherever it sits.

A plain directory's scope is a function of the tree and the index
(docs/SEMANTICS.md §3): it depends on nothing, so it is never a node, only
a provider — one index, provider → semantic dependents, covers both kinds
— and an edge from it closes no cycle.  An edge that would close one is
refused ("we do not allow cycles to exist in this graph for obvious
reasons").  From the seeds a change reaches (the consistency manager's
rule), :meth:`affected_order` closes over semantic → semantic edges and
sorts once, so each directory is evaluated once with its inputs settled.
A plain scope also holds the targets of symlinks below it, which can live
anywhere: the graph keeps where each directory's last evaluation followed
symlinks to (:meth:`record_feeds`), in memory only.

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
#: the link-fed key of a node any change may feed
ANYWHERE = ""


class DependencyGraph:
    """Directed graph: provider → semantic dependent, with labelled edge
    kinds.

    An index over the directories' records — the global map places each
    semantic directory's parent, its query fixes its reference edges — so
    it is never persisted: :meth:`derive` rebuilds it on every load and
    the mutators below keep it current in between.
    """

    def __init__(self):
        #: semantic uid → its parent directory's uid (None when no
        #: registered directory is its parent); the root has no entry
        self._parent: Dict[int, Optional[int]] = {}
        #: node → the uids its query names, live or gone; a node is in the
        #: graph exactly when it has an entry here
        self._refs: Dict[int, Set[int]] = {ROOT_UID: set()}
        #: provider uid (any directory, plain, semantic or gone) → its
        #: semantic dependents along either edge kind; never an empty set
        self._dependents: Dict[int, Set[int]] = {}
        #: node → every prefix of a directory its last evaluation followed
        #: a symlink into (``ANYWHERE`` until it is evaluated), and back
        self._fed: Dict[int, Set[str]] = {}
        self._fed_under: Dict[str, Set[int]] = {}
        #: observability hook (re-wired by HacFileSystem after every
        #: (re)construction, since the graph is rebuilt on every load)
        self.tracer = NULL_TRACER

    @classmethod
    def derive(cls, dirmap, meta) -> "DependencyGraph":
        """The graph a name space implies: a node per directory with a
        query, under the directory registered at its parent path, naming
        what its query names (a gone directory too: it resolves empty).
        Validated once — a cycle among the queries raises
        :class:`DependencyCycle`."""
        graph = cls()
        for uid, path in dirmap.items():
            state = meta.get(uid)
            if state is not None and state.query is not None:
                graph._link(uid, dirmap.uid_of(pathutil.dirname(path)),
                            state.query.dir_refs())
        graph.full_order()
        return graph

    # ------------------------------------------------------------------
    # node / edge maintenance
    # ------------------------------------------------------------------

    def add_node(self, uid: int, parent: Optional[int],
                 refs: Iterable[int] = ()) -> None:
        """*uid* became semantic, under *parent*, naming *refs*.  Every
        edge is validated before any is made."""
        if uid in self._refs:
            raise ValueError(f"node {uid} already in dependency graph")
        refs = set(refs)
        for provider in refs | {parent}:
            self._check_no_path(uid, provider)
        self._link(uid, parent, refs)

    def _link(self, uid: int, parent: Optional[int], refs: Iterable[int]):
        if uid != ROOT_UID:
            self._parent[uid] = parent
            self.record_feeds(uid, ["/"])
        self._refs[uid] = set(refs)
        for provider in self.providers_of(uid):
            self._dependents.setdefault(provider, set()).add(uid)

    def remove_node(self, uid: int) -> None:
        """*uid* is semantic no more (plain, or gone): its own edges go.
        Whatever depends on it keeps depending on the uid — a plain
        provider, or a gone one that resolves empty."""
        if uid == ROOT_UID:
            raise ValueError("cannot remove the root")
        self._unlink(uid)

    def _unlink(self, uid: int) -> None:
        for provider in self.providers_of(uid):
            _unfile(self._dependents, provider, uid)
        self._parent.pop(uid, None)
        del self._refs[uid]
        self._unfeed(uid)

    def __contains__(self, uid: int) -> bool:
        return uid in self._refs

    def nodes(self) -> List[int]:
        return list(self._refs)

    def set_hierarchy_edge(self, child: int, parent: Optional[int]) -> None:
        """Semantic *child* moved under *parent*; replaces the old edge."""
        self._check_no_path(child, parent)
        refs = self._refs[child]
        self._unlink(child)
        self._link(child, parent, refs)

    def set_reference_edges(self, dependent: int, providers: Iterable[int]) -> None:
        """Replace *dependent*'s reference edges with the given provider set
        (called whenever its query changes)."""
        wanted = set(providers)
        # validate every new edge before touching any: a cycle must leave
        # the old edges fully intact
        for provider in wanted - self._refs[dependent]:
            self._check_no_path(dependent, provider)
        parent = self._parent.get(dependent)
        self._unlink(dependent)
        self._link(dependent, parent, wanted)

    def _check_no_path(self, src: int, dst: Optional[int]) -> None:
        """Adding dst→src requires no existing path src→dst (else a cycle,
        reported with the dependency path src ⇝ dst that closes it).  Only
        a node can be on a path: a plain provider depends on nothing."""
        if src == dst:
            raise DependencyCycle(str(src), [src, src])
        if dst not in self._refs:
            return
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
    # link-fed records
    # ------------------------------------------------------------------

    def record_feeds(self, uid: int, dirs: Iterable[str]) -> None:
        """*uid*'s evaluation followed symlinks to targets in *dirs*; ``/``
        stands for one it cannot place, which any change may re-aim."""
        self._unfeed(uid)
        dirs = set(dirs)
        self._fed[uid] = {ANYWHERE} if "/" in dirs else {
            prefix for path in dirs
            for prefix in (*pathutil.ancestors(path), path)}
        for key in self._fed[uid]:
            self._fed_under.setdefault(key, set()).add(uid)

    def _unfeed(self, uid: int) -> None:
        for key in self._fed.pop(uid, ()):
            _unfile(self._fed_under, key, uid)

    def fed_from(self, path: str) -> Set[int]:
        """The nodes that followed a symlink into *path* or below it."""
        return self._fed_under.get(path, set()) \
            | self._fed_under.get(ANYWHERE, set())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def providers_of(self, uid: int) -> Dict[int, str]:
        out = dict.fromkeys(self._refs.get(uid, ()), REFERENCE)
        if self._parent.get(uid) is not None:
            out[self._parent[uid]] = HIERARCHY
        return out

    def dependents_of(self, uid: int) -> Set[int]:
        return set(self._dependents.get(uid, ()))

    def hierarchy_parent(self, uid: int) -> Optional[int]:
        return self._parent.get(uid)

    def is_semantic(self, uid: int) -> bool:
        return uid in self._parent

    # ------------------------------------------------------------------
    # evaluation order
    # ------------------------------------------------------------------

    def affected_order(self, seeds: Iterable[int]) -> List[int]:
        """The semantic *seeds* and every transitive dependent of one, in
        topological order (Kahn's algorithm over that subgraph, so each
        appears after all of its affected providers — the paper's
        requirement for correct re-evaluation).  Nothing affected, nothing
        sorted."""
        affected = {uid for uid in seeds if uid in self._parent}
        frontier = list(affected)
        while frontier:
            for dependent in self._dependents.get(frontier.pop(), ()):
                if dependent not in affected:
                    affected.add(dependent)
                    frontier.append(dependent)
        if self.tracer.enabled:
            self.tracer.event("dep.affected", affected=len(affected))
        return self._topo_sort(affected) if affected else []

    def full_order(self) -> List[int]:
        """Topological order of the whole graph (global re-evaluation)."""
        if self.tracer.enabled:
            self.tracer.event("dep.full_order", nodes=len(self._refs))
        return self._topo_sort(set(self._refs))

    def topo_order(self, nodes: Iterable[int]) -> List[int]:
        """Topological order restricted to *nodes* (unknown uids ignored)."""
        return self._topo_sort({n for n in nodes if n in self._refs})

    def _topo_sort(self, nodes: Set[int]) -> List[int]:
        # naming one's own parent adds no second edge
        indeg = {n: len(self.providers_of(n).keys() & nodes) for n in nodes}
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: List[int] = []
        while ready:
            cur = ready.popleft()
            order.append(cur)
            for dependent in sorted(self._dependents.get(cur, ())):
                if dependent in indeg:
                    indeg[dependent] -= 1
                    if indeg[dependent] == 0:
                        ready.append(dependent)
        if len(order) != len(nodes):
            leftovers = sorted(nodes - set(order))
            raise DependencyCycle(str(leftovers[0]), leftovers)
        return order


def _unfile(index: Dict, key, uid: int) -> None:
    """Take *uid* out of ``index[key]``; an emptied key goes."""
    members = index.get(key)
    if members is not None:
        members.discard(uid)
        if not members:
            del index[key]

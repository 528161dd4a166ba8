"""The Nebula file system, compactly reimplemented (related work, §5).

Nebula (Bowman & Camargo) replaces the fixed directory hierarchy with
*views*: a view has a query (an arbitrary boolean expression over a file's
attribute tuples and content) and a **scope** — a set of other views whose
referents the query is evaluated over.  Views form a DAG; users customise
what a view shows by editing its *scope*, never its result.

The reproduction exists for the tests contrasting Nebula with HAC, its
only users (§5's points, verbatim):

* "views are not a part of the underlying physical file system and cannot
  be used to organize data" — :meth:`create_file_in_view` raises;
* "Nebula does not allow users to group pointers to arbitrary files
  together and put them in a view: the files must satisfy the query" —
  :meth:`add_to_view` raises;
* what Nebula *does* allow: DAG-structured scopes, scope editing, and
  always-consistent view contents (recomputed from live data).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.errors import DependencyCycle, InvalidArgument
from repro.cba import agrep
from repro.cba.queryast import Node
from repro.cba.queryparser import parse_query
from repro.cba.transducers import default_transducer
from repro.util.stats import Counters
from repro.vfs.filesystem import FileSystem
from repro.vfs.walker import iter_files


class _View:
    __slots__ = ("name", "query", "query_text", "scope")

    def __init__(self, name: str, query: Node, query_text: str,
                 scope: Optional[List[str]]):
        self.name = name
        self.query = query
        self.query_text = query_text
        #: names of scope views; None means "all files"
        self.scope = scope


class NebulaFileSystem:
    """Views over a physical file system, organised in a DAG by scope."""

    def __init__(self, physical: FileSystem,
                 counters: Optional[Counters] = None):
        self.physical = physical
        self._stats = (counters or physical.counters).scoped("nebula")
        self._views: Dict[str, _View] = {}

    # ------------------------------------------------------------------
    # view maintenance
    # ------------------------------------------------------------------

    def create_view(self, name: str, query: str,
                    scope: Optional[Sequence[str]] = None) -> None:
        """Define a view; *scope* names other views (None = every file)."""
        if name in self._views:
            raise InvalidArgument(name, "view already exists")
        resolved_scope = self._validated_scope(name, scope)
        ast = parse_query(query)  # content + attribute terms, no paths
        self._views[name] = _View(name, ast, query, resolved_scope)
        self._stats.add("views")

    def set_scope(self, name: str, scope: Optional[Sequence[str]]) -> None:
        """Nebula's customisation lever: restructure the DAG, not the
        results."""
        view = self._require(name)
        view.scope = self._validated_scope(name, scope, replacing=True)

    def set_query(self, name: str, query: str) -> None:
        view = self._require(name)
        view.query = parse_query(query)
        view.query_text = query

    def drop_view(self, name: str) -> None:
        self._require(name)
        users = [v.name for v in self._views.values()
                 if v.scope and name in v.scope]
        if users:
            raise InvalidArgument(name, f"view is in the scope of {users}")
        del self._views[name]

    def views(self) -> List[str]:
        return sorted(self._views)

    def _require(self, name: str) -> _View:
        view = self._views.get(name)
        if view is None:
            raise InvalidArgument(name, "no such view")
        return view

    def _validated_scope(self, name: str, scope: Optional[Sequence[str]],
                         replacing: bool = False) -> Optional[List[str]]:
        if scope is None:
            return None
        out = []
        for ref in scope:
            if ref != name:
                self._require(ref)
            out.append(ref)
        # cycle check: walk the proposed DAG from name
        def reaches(current: str, target: str, seen: Set[str]) -> bool:
            if current == target:
                return True
            if current in seen:
                return False
            seen.add(current)
            view = self._views.get(current)
            refs = out if current == name else (view.scope or [])
            return any(reaches(r, target, seen) for r in refs)

        for ref in out:
            if ref == name or reaches(ref, name, set()):
                raise DependencyCycle(name, [name, ref, name])
        return out

    # ------------------------------------------------------------------
    # evaluation (always consistent: computed from live files)
    # ------------------------------------------------------------------

    def _all_files(self) -> List[str]:
        return [path for path, _n in iter_files(self.physical, "/")]

    def _referents(self, name: str, memo: Dict[str, Set[str]]) -> Set[str]:
        if name in memo:
            return memo[name]
        view = self._views[name]
        if view.scope is None:
            candidates: Set[str] = set(self._all_files())
        else:
            candidates = set()
            for ref in view.scope:
                candidates |= self._referents(ref, memo)
        result = set()
        for path in candidates:
            try:
                text = self.physical.read_file(path).decode(
                    "utf-8", errors="replace")
            except Exception:
                continue
            pairs = frozenset(default_transducer(path, text))
            if agrep.matches(text, view.query, pairs):
                result.add(path)
        memo[name] = result
        self._stats.add("evaluations")
        return result

    def view_contents(self, name: str) -> List[str]:
        """The files the view currently refers to (recomputed live)."""
        self._require(name)
        return sorted(self._referents(name, {}))

    # ------------------------------------------------------------------
    # the limitations HAC lifts (§5), as executable statements
    # ------------------------------------------------------------------

    def create_file_in_view(self, name: str, _filename: str):
        raise InvalidArgument(
            name, "views are not part of the physical file system; files "
                  "cannot be created in them (Nebula limitation)")

    def add_to_view(self, name: str, _path: str):
        raise InvalidArgument(
            name, "a view may only contain files satisfying its query; "
                  "arbitrary pointers cannot be grouped (Nebula limitation)")

    def remove_from_view(self, name: str, _path: str):
        raise InvalidArgument(
            name, "query results cannot be pruned without changing the "
                  "query or the scope (Nebula limitation)")

"""The Prospero virtual file system, compactly reimplemented (§5).

Prospero (Neuman) gives each user a graph-structured *virtual file system*
whose links may carry **filters** — arbitrary programs that transform the
target directory's contents into a derived *view*.  Filters compose along
links.  The paper's verdict, reproduced here as behaviour:

* filters are maximally flexible ("powerful tools for information
  retrieval") — any callable works, and composition is supported;
* but "Prospero does not offer consistency guarantees of any kind — users
  must execute the appropriate filters at the appropriate time":
  :meth:`view` returns whatever the filter produced **when it was last
  run**; changing the underlying directory, the filter, or an upstream
  filter leaves the view stale until the user calls :meth:`run_filter`
  again.

``tests/baselines/test_prospero.py`` leans on exactly this staleness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import InvalidArgument
from repro.util.stats import Counters
from repro.vfs.filesystem import FileSystem

#: a filter maps (target directory path, its entries) to derived entries
Filter = Callable[[str, List[str]], List[str]]


class _Link:
    __slots__ = ("name", "target_dir", "filters", "cached_view")

    def __init__(self, name: str, target_dir: str,
                 filters: List[Filter]):
        self.name = name
        self.target_dir = target_dir
        self.filters = filters
        #: the materialised view — ONLY updated by run_filter (no guarantees)
        self.cached_view: Optional[List[str]] = None


class ProsperoFileSystem:
    """A user's virtual name space of filtered links over a physical FS."""

    def __init__(self, physical: FileSystem,
                 counters: Optional[Counters] = None):
        self.physical = physical
        self._stats = (counters or physical.counters).scoped("prospero")
        self._links: Dict[str, _Link] = {}

    # ------------------------------------------------------------------
    # the virtual file system
    # ------------------------------------------------------------------

    def add_link(self, name: str, target_dir: str,
                 filters: Optional[Sequence[Filter]] = None) -> None:
        """Create a link in the virtual name space, optionally filtered."""
        if name in self._links:
            raise InvalidArgument(name, "link already exists")
        if not self.physical.isdir(target_dir):
            raise InvalidArgument(target_dir, "filter targets must be directories")
        self._links[name] = _Link(name, target_dir, list(filters or []))
        self._stats.add("links")

    def compose(self, name: str, extra: Filter) -> None:
        """Append a filter to a link — Prospero's filter composition."""
        self._require(name).filters.append(extra)

    def links(self) -> List[str]:
        return sorted(self._links)

    def _require(self, name: str) -> _Link:
        link = self._links.get(name)
        if link is None:
            raise InvalidArgument(name, "no such link")
        return link

    # ------------------------------------------------------------------
    # filters: run by the USER, never by the system
    # ------------------------------------------------------------------

    def run_filter(self, name: str) -> List[str]:
        """Execute the link's filter chain now; caches and returns the view."""
        link = self._require(name)
        entries = [f"{link.target_dir.rstrip('/')}/{n}"
                   for n in self.physical.listdir(link.target_dir)]
        for flt in link.filters:
            entries = list(flt(link.target_dir, entries))
        link.cached_view = entries
        self._stats.add("filter_runs")
        return list(entries)

    def view(self, name: str) -> List[str]:
        """The link's view **as of its last filter run**.

        Prospero's documented behaviour: if the target directory changed, or
        a filter was (re)composed, the view is silently stale until the user
        runs the filter again.  Asking for a never-run filtered view is an
        error the user must fix by running it.
        """
        link = self._require(name)
        if link.cached_view is None:
            if link.filters:
                raise InvalidArgument(
                    name, "filters must be executed by the user "
                          "(Prospero offers no consistency guarantees)")
            return self.run_filter(name)  # plain links just list the target
        return list(link.cached_view)


# -- stock filters for tests and demos ---------------------------------------


def grep_filter(word: str, physical: FileSystem) -> Filter:
    """Keep entries whose file content contains *word* (case-insensitive)."""

    def run(_target_dir: str, entries: List[str]) -> List[str]:
        out = []
        for path in entries:
            try:
                text = physical.read_file(path).decode("utf-8",
                                                       errors="replace")
            except Exception:
                continue
            if word.lower() in text.lower():
                out.append(path)
        return out

    return run


def suffix_filter(suffix: str) -> Filter:
    def run(_target_dir: str, entries: List[str]) -> List[str]:
        return [e for e in entries if e.endswith(suffix)]

    return run

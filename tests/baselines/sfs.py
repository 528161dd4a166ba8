"""The MIT Semantic File System, compactly reimplemented (related work).

SFS (Gifford et al., 1991) introduced virtual directories: the name of a
virtual directory *is* a query, queries are conjunctions of attribute/value
pairs, and ``/`` between virtual components means AND.  *Transducers*
extract the attribute/value pairs from file contents.

The reproduction exists for the tests that demonstrate precisely the
limitations the paper lists (§5); tests are its only users, so it lives
under ``tests/``:

* virtual directories are not part of the physical file system — you cannot
  create files in them;
* results cannot be customised — there is no permanent/prohibited notion;
* queries are conjunctions of typed fields only.

Virtual path syntax, as in the SFS paper::

    /sfs/<attr>:/<value>/<attr>:/<value>/...

``lookup("/sfs/author:/smith/subject:/fingerprint")`` returns the files
whose transducer output contains both pairs.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import InvalidArgument
from repro.util.stats import Counters
from repro.vfs.filesystem import FileSystem
from repro.vfs.walker import iter_files

#: a transducer maps (path, text) to attribute/value pairs
Transducer = Callable[[str, str], List[Tuple[str, str]]]

_FIELD_RE = re.compile(r"^(\w+):\s*(.+)$")


def default_transducer(path: str, text: str) -> List[Tuple[str, str]]:
    """The SFS "mail-like" transducer: ``Field: value`` header lines become
    attribute/value pairs; every word of the body becomes a ``text`` pair;
    the file name becomes a ``name`` pair."""
    pairs: List[Tuple[str, str]] = [("name", path.rsplit("/", 1)[-1].lower())]
    in_headers = True
    for line in text.splitlines():
        if in_headers:
            m = _FIELD_RE.match(line.strip())
            if m:
                pairs.append((m.group(1).lower(), m.group(2).strip().lower()))
                continue
            in_headers = False
        for word in re.findall(r"[A-Za-z0-9_]+", line):
            pairs.append(("text", word.lower()))
    return pairs


class SemanticFileSystem:
    """Virtual directories over a physical :class:`FileSystem`."""

    def __init__(self, physical: FileSystem, virtual_root: str = "/sfs",
                 transducer: Transducer = default_transducer,
                 counters: Optional[Counters] = None):
        self.physical = physical
        self.virtual_root = virtual_root.rstrip("/") or "/sfs"
        self.transducer = transducer
        self._stats = (counters or physical.counters).scoped("sfs")
        #: (attr, value) → set of file paths
        self._index: Dict[Tuple[str, str], Set[str]] = {}
        self._indexed: Set[str] = set()

    # -- indexing -----------------------------------------------------------

    def index_all(self, top: str = "/") -> int:
        """Run the transducer over every file under *top*."""
        count = 0
        self._index.clear()
        self._indexed.clear()
        for path, node in iter_files(self.physical, top):
            text = bytes(node.data).decode("utf-8", errors="replace")
            for pair in self.transducer(path, text):
                self._index.setdefault(pair, set()).add(path)
            self._indexed.add(path)
            count += 1
        self._stats.add("indexed", count)
        return count

    # -- virtual directory lookups ----------------------------------------------

    def _parse_virtual(self, path: str) -> List[Tuple[str, Optional[str]]]:
        """``/sfs/a:/v/b:/w`` → ``[("a", "v"), ("b", "w")]``; a trailing
        attribute without a value means "enumerate its values"."""
        if not path.startswith(self.virtual_root):
            raise InvalidArgument(path, "not under the SFS virtual root")
        rest = [c for c in path[len(self.virtual_root):].split("/") if c]
        pairs: List[Tuple[str, Optional[str]]] = []
        i = 0
        while i < len(rest):
            comp = rest[i]
            if not comp.endswith(":"):
                raise InvalidArgument(path, f"expected attribute:, got {comp!r}")
            attr = comp[:-1].lower()
            value = rest[i + 1].lower() if i + 1 < len(rest) else None
            pairs.append((attr, value))
            i += 2
        return pairs

    def lookup(self, virtual_path: str) -> List[str]:
        """Files satisfying the conjunction named by *virtual_path*."""
        self._stats.add("lookups")
        pairs = self._parse_virtual(virtual_path)
        result: Optional[Set[str]] = None
        for attr, value in pairs:
            if value is None:
                raise InvalidArgument(virtual_path, f"attribute {attr} has no value")
            matching = self._index.get((attr, value), set())
            result = set(matching) if result is None else (result & matching)
            if not result:
                break
        return sorted(result or set())

    def listdir(self, virtual_path: str) -> List[str]:
        """Enumerate a virtual directory, as SFS's ``ls`` did: a trailing
        ``attr:`` component lists that attribute's possible values within
        the current conjunction; otherwise lists matching file names."""
        pairs = self._parse_virtual(virtual_path)
        if pairs and pairs[-1][1] is None:
            prefix = pairs[:-1]
            attr = pairs[-1][0]
            candidates: Optional[Set[str]] = None
            for a, v in prefix:
                matching = self._index.get((a, v), set())
                candidates = (set(matching) if candidates is None
                              else candidates & matching)
            values = set()
            for (a, v), paths in self._index.items():
                if a != attr:
                    continue
                if candidates is None or paths & candidates:
                    values.add(v)
            return sorted(values)
        return [p.rsplit("/", 1)[-1] for p in
                self.lookup(virtual_path)] if pairs else []

    # -- the limitations HAC lifts, made explicit ---------------------------------

    def create_in_virtual(self, virtual_path: str, _name: str):
        """SFS cannot do this; the error is the point (paper §5)."""
        raise InvalidArgument(
            virtual_path,
            "virtual directories are not part of the physical file system; "
            "files cannot be created in them (SFS limitation)")

    def remove_result(self, virtual_path: str, _name: str):
        """SFS cannot customise query results either."""
        raise InvalidArgument(
            virtual_path,
            "query results cannot be edited without changing the query or "
            "the files (SFS limitation)")

"""The document registry every :class:`~repro.cba.backend.SearchBackend`
keeps: opaque keys ↔ dense doc ids ↔ :class:`Document` rows.

The monolithic engine owns one; the cluster coordinator owns the
authoritative one for its shards (whose own registries are routing
copies).  The rules — how an id is claimed, what "already indexed" means,
what the §2.4 mtime snapshot is — are the same in both, so they live here
once and both inherit them.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional

from repro.util import pathutil
from repro.util.bitmap import Bitmap


class Document(NamedTuple):
    """Registry entry for one indexed document."""

    doc_id: int
    key: Hashable
    path: str
    mtime: float
    size: int


class DocRegistry:
    """Mixin: the registry state, its protocol accessors and its writes.

    Subclasses call :meth:`_init_registry` from their constructor and pair
    every index mutation with a row write here (:meth:`_put`, :meth:`_drop`,
    :meth:`_move`, :meth:`_rebase_rows`, :meth:`_load`); nothing else
    assigns ``_docs``, ``_by_key`` or ``_next_doc_id``.  That one funnel
    keeps ``_paths`` — a dense ``doc_id -> path`` column beside the rows,
    ``None`` where an id is burned or withdrawn — exact, with
    ``len(_paths) >= _next_doc_id``, so :meth:`paths_of` is one bulk gather.
    ``paths_moved`` counts the times a live row's path changed, so a reader
    that cached paths (a semantic directory's link texts) can tell in one
    comparison that none did.
    """

    def _init_registry(self) -> None:
        self._docs: Dict[int, Document] = {}
        self._by_key: Dict[Hashable, int] = {}
        self._paths: List[Optional[str]] = []
        self._next_doc_id = 0
        self.paths_moved = 0

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        return self._docs.get(doc_id)

    def paths_of(self, hits: Bitmap) -> List[str]:
        """Paths of the live documents in *hits*, in doc-id order."""
        paths = hits.select(self._paths)
        if None in paths:
            return [path for path in paths if path is not None]
        return paths

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        doc_id = self._by_key.get(key)
        return self._docs.get(doc_id) if doc_id is not None else None

    def doc_id_of(self, key: Hashable) -> Optional[int]:
        return self._by_key.get(key)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._by_key

    def mtime_snapshot(self) -> Dict[Hashable, float]:
        """``{key: mtime}`` as of the last (re)index — the §2.4 snapshot."""
        return {doc.key: doc.mtime for doc in self._docs.values()}

    def corpus_bytes(self) -> int:
        return sum(doc.size for doc in self._docs.values())

    def reserve_doc_id(self) -> int:
        """Claim the next doc id without indexing anything yet.

        The maintenance scheduler reserves ids at enqueue time so a
        coalesced batch assigns the same ids — hence the same
        ``doc_id % num_blocks`` block placement — the eager sequence
        would have.  Reserved ids that go unused stay burned; ids are
        never reused either way.
        """
        doc_id = self._next_doc_id
        self._burn_ids(doc_id + 1)
        return doc_id

    def _claim_doc_id(self, key: Hashable, doc_id: Optional[int]) -> int:
        """The id a new document *key* will be indexed under: *doc_id*
        when the caller pins one (it must be free), the next dense id
        otherwise.  Raises :class:`ValueError` for a key already indexed."""
        if key in self._by_key:
            raise ValueError(f"document already indexed: {key!r}")
        if doc_id is None:
            return self.reserve_doc_id()
        if doc_id in self._docs:
            raise ValueError(f"doc id already in use: {doc_id}")
        self._burn_ids(doc_id + 1)
        return doc_id

    def _indexed_id(self, key: Hashable) -> int:
        doc_id = self._by_key.get(key)
        if doc_id is None:
            raise KeyError(f"document not indexed: {key!r}")
        return doc_id

    # -- row writes ------------------------------------------------------------

    def _burn_ids(self, next_doc_id: int) -> None:
        """Ids below *next_doc_id* are taken; each gets a column slot."""
        if next_doc_id > self._next_doc_id:
            self._next_doc_id = next_doc_id
            self._paths.extend([None] * (next_doc_id - len(self._paths)))

    def _put(self, doc_id: int, key: Hashable, path: str, mtime: float,
             size: int) -> None:
        """Install the row of a new or changed document version."""
        self._burn_ids(doc_id + 1)
        self.paths_moved += self._paths[doc_id] not in (None, path)
        self._docs[doc_id] = Document(doc_id, key, path, mtime, size)
        self._by_key[key] = doc_id
        self._paths[doc_id] = path

    def _drop(self, doc_id: int) -> Document:
        """Withdraw a row (its id stays burned); returns it."""
        doc = self._docs.pop(doc_id)
        del self._by_key[doc.key]
        self._paths[doc_id] = None
        return doc

    def _move(self, doc_id: int, new_path: str) -> Document:
        """Re-register a row under *new_path*; returns the new row."""
        doc = self._docs[doc_id] = self._docs[doc_id]._replace(path=new_path)
        self.paths_moved += 1
        self._paths[doc_id] = new_path
        return doc

    def _rebase_rows(self, old_prefix: str, new_prefix: str) -> List[Document]:
        """Re-root every row at-or-below *old_prefix* under *new_prefix*;
        returns the moved rows as they now read."""
        old = pathutil.normalize(old_prefix)
        below = old if old == pathutil.ROOT else old + pathutil.SEP
        moved = []
        for doc_id, doc in list(self._docs.items()):
            path = pathutil.canonical(doc.path)
            if path == old or path.startswith(below):
                moved.append(self._move(
                    doc_id, pathutil.rebase(path, old, new_prefix)))
        return moved

    def _load(self, docs: Iterable[Document], next_doc_id: int) -> None:
        """Replace the whole registry with persisted (or copied) rows."""
        self._init_registry()
        for doc in docs:
            self._put(*doc)
        self._burn_ids(next_doc_id)

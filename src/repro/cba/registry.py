"""The document registry every :class:`~repro.cba.backend.SearchBackend`
keeps: opaque keys ↔ dense doc ids ↔ :class:`Document` rows.

The monolithic engine owns one; the cluster coordinator owns the
authoritative one for its shards (whose own registries are routing
copies).  The rules — how an id is claimed, what "already indexed" means,
what the §2.4 mtime snapshot is — are the same in both, so they live here
once and both inherit them.
"""

from __future__ import annotations

from typing import Dict, Hashable, NamedTuple, Optional


class Document(NamedTuple):
    """Registry entry for one indexed document."""

    doc_id: int
    key: Hashable
    path: str
    mtime: float
    size: int


class DocRegistry:
    """Mixin: the registry state and its protocol accessors.

    Subclasses call :meth:`_init_registry` from their constructor and
    write ``_docs`` / ``_by_key`` from their own mutation paths (an index
    mutation always accompanies a registry one); everything that only
    *reads* the registry, plus doc-id allocation, is here.
    """

    def _init_registry(self) -> None:
        self._docs: Dict[int, Document] = {}
        self._by_key: Dict[Hashable, int] = {}
        self._next_doc_id = 0

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        return self._docs.get(doc_id)

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
        self._next_doc_id += 1
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
        self._next_doc_id = max(self._next_doc_id, doc_id + 1)
        return doc_id

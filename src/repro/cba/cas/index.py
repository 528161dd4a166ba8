"""Path+term index partitioned by directory.

The structure
-------------

Documents are grouped into **directory partitions**: a document belongs
to the partition of its parent directory, and each partition owns

* its directory, a normalised path (the key it is filed under),
* a member bitmap of doc ids, and
* an interleaved posting map ``term → member-bitmap`` — the content
  dimension restricted to this one directory.

Containment holds by construction: every member lies directly in its
partition's directory.  So the documents at-or-below a scope prefix
``P`` are exactly the members of the partitions keyed ``P`` and
``P/...`` — and those keys form one contiguous range of the sorted key
list, from ``P/`` up to ``P0`` (``'0'`` is the character after ``'/'``),
plus ``P`` itself.  A probe ORs that range's bitmaps and reads no
document.  A flat million-file directory is one partition, no worse than
the global index; only directories holding indexed documents have one.

Renames
-------

A directory rename re-keys the partitions of the moved subtree — one
range of keys, each one substitution of the prefix — and hands back
their members, the only documents the move carried.  A document's entry
holds its partition object, not a copy of its path, so no member is
touched unless the new key is already taken (a §2.4-lingering document
still filed under the destination), in which case the moved partition
is merged into the one there.  ``hacfsck`` checks each document's
partition against its registry path's directory (``cas-divergence``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Tuple

from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.util.stats import Counters


class _Partition:
    """One directory: its members and the term postings interleaved over
    exactly those members."""

    __slots__ = ("dir", "members", "postings")

    def __init__(self, directory: str):
        self.dir = directory
        self.members = Bitmap()
        self.postings: Dict[str, Bitmap] = {}

    def add(self, doc_id: int, terms: Iterable[str]) -> None:
        self.members.add(doc_id)
        for term in terms:
            bm = self.postings.get(term)
            if bm is None:
                bm = self.postings[term] = Bitmap()
            bm.add(doc_id)

    def remove(self, doc_id: int, terms: Iterable[str]) -> None:
        self.members.discard(doc_id)
        for term in terms:
            bm = self.postings.get(term)
            if bm is not None:
                bm.discard(doc_id)
                if not bm:
                    del self.postings[term]

    def absorb(self, other: "_Partition") -> None:
        """Merge *other*'s members into this partition (a move onto a
        directory whose lingering documents still hold a partition)."""
        self.members |= other.members
        for term, bm in other.postings.items():
            mine = self.postings.get(term)
            if mine is None:
                self.postings[term] = bm
            else:
                mine |= bm


class CASIndex:
    """Interleaved path+term index over the engine's registered documents.

    Paths handed to :meth:`upsert` and :meth:`set_path` are coerced with
    :func:`~repro.util.pathutil.canonical` (foreign back-ends register
    bare names, which live under the root); prefixes are normalised.
    """

    def __init__(self, counters: Optional[Counters] = None):
        #: directory → partition; a directory holding no document has none
        self._parts: Dict[str, _Partition] = {}
        #: the partition keys, sorted, so a subtree is one slice
        self._keys: List[str] = []
        #: doc id → (its partition, its terms)
        self._docs: Dict[int, Tuple[_Partition, Tuple[str, ...]]] = {}
        counters = counters if counters is not None else Counters()
        self._stats = counters.scoped("cas")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def upsert(self, doc_id: int, path: str, terms: Iterable[str]) -> None:
        """Insert or replace *doc_id* at *path* with its index terms."""
        terms = tuple(terms)
        self.remove(doc_id)
        part = self._partition(pathutil.dirname(pathutil.canonical(path)))
        part.add(doc_id, terms)
        self._docs[doc_id] = (part, terms)
        self._stats.add("upserts")

    def install(self, docs: Iterable[Tuple[int, str, Tuple[str, ...]]]
                ) -> None:
        """Replace the whole index with *docs*, ``(doc id, path, terms)``
        triples: what one :meth:`upsert` each builds, made per directory
        — one member bitmap and one posting per (directory, term), and
        one path coercion per distinct parent."""
        self.clear()
        groups: Dict[str, List[Tuple[int, Tuple[str, ...]]]] = {}
        dirs: Dict[str, str] = {}
        for doc_id, path, terms in docs:
            head, _, name = path.rpartition(pathutil.SEP)
            # every path that ends in a name below *head* files under the
            # same directory
            seen = head if name not in ("", ".") else path
            directory = dirs.get(seen)
            if directory is None:
                directory = dirs[seen] = pathutil.dirname(
                    pathutil.canonical(path))
            groups.setdefault(directory, []).append((doc_id, terms))
        for directory, members in groups.items():
            part = self._parts[directory] = _Partition(directory)
            bits: Dict[str, int] = {}
            for doc_id, terms in members:
                bit = 1 << doc_id
                for term in terms:
                    bits[term] = bits.get(term, 0) | bit
                self._docs[doc_id] = (part, terms)
            part.members = Bitmap(doc_id for doc_id, _terms in members)
            part.postings = {term: Bitmap.from_int(n)
                             for term, n in bits.items()}
        self._keys = sorted(self._parts)
        self._stats.add("upserts", len(self._docs))

    def remove(self, doc_id: int) -> None:
        entry = self._docs.pop(doc_id, None)
        if entry is None:
            return
        part, terms = entry
        part.remove(doc_id, terms)
        if not part.members:
            del self._parts[part.dir]
            self._keys.remove(part.dir)
        self._stats.add("removes")

    def set_path(self, doc_id: int, path: str) -> None:
        """A single document moved; file it under its new directory."""
        entry = self._docs.get(doc_id)
        if entry is not None and \
                entry[0].dir != pathutil.dirname(pathutil.canonical(path)):
            self.upsert(doc_id, path, entry[1])

    def rebase_prefix(self, old: str, new: str) -> Bitmap:
        """Directory rename: re-key every partition at-or-below *old*
        under *new*.  Returns the documents moved — the members of the
        moved partitions, and nothing the move did not carry."""
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        moved = Bitmap()
        parts = [self._parts.pop(key) for key in self._subtree(old)]
        for part in parts:
            self._keys.remove(part.dir)
        for part in parts:
            moved |= part.members
            part.dir = new + part.dir[len(old):]
            there = self._parts.get(part.dir)
            if there is None:
                self._parts[part.dir] = part
                insort(self._keys, part.dir)
                continue
            there.absorb(part)
            for doc_id in part.members:
                self._docs[doc_id] = (there, self._docs[doc_id][1])
        self._stats.add("rebased", len(moved))
        return moved

    def clear(self) -> None:
        self._parts.clear()
        self._keys.clear()
        self._docs.clear()

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def docs_under(self, prefix: str) -> Bitmap:
        """Every indexed document whose registered path is at-or-below
        *prefix* — the path dimension alone."""
        return self._gather(prefix, None)

    def probe(self, prefix: str, term: str) -> Bitmap:
        """Documents under *prefix* containing *term* — both dimensions
        pruned in one pass over the subtree's partitions."""
        return self._gather(prefix, term)

    def count_under(self, prefix: str) -> int:
        """Selectivity of the path dimension (exact; used by the planner
        to cost CAS probes against postings)."""
        return len(self.docs_under(prefix))

    def _gather(self, prefix: str, term: Optional[str]) -> Bitmap:
        self._stats.add("probes")
        out = Bitmap()
        for key in self._subtree(pathutil.normalize(prefix)):
            part = self._parts[key]
            source = (part.members if term is None
                      else part.postings.get(term))
            if source is not None:
                out |= source
        return out

    def _subtree(self, prefix: str) -> List[str]:
        """The partition keys at-or-below normalised *prefix*."""
        keys = self._keys
        if prefix == pathutil.ROOT:
            return list(keys)
        out = keys[bisect_left(keys, prefix + pathutil.SEP):
                   bisect_left(keys, prefix + "0")]
        if prefix in self._parts:
            out.append(prefix)
        return out

    def _partition(self, directory: str) -> _Partition:
        part = self._parts.get(directory)
        if part is None:
            part = self._parts[directory] = _Partition(directory)
            insort(self._keys, directory)
        return part

    # ------------------------------------------------------------------
    # introspection (fsck, tests, hacstat)
    # ------------------------------------------------------------------

    def dir_of(self, doc_id: int) -> Optional[str]:
        """The directory *doc_id* is filed under."""
        entry = self._docs.get(doc_id)
        return None if entry is None else entry[0].dir

    def doc_ids(self) -> List[int]:
        return list(self._docs)

    def roots(self) -> List[str]:
        """The partition keys: every directory holding a document."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self):
        return (f"CASIndex(docs={len(self._docs)}, "
                f"partitions={len(self._parts)})")

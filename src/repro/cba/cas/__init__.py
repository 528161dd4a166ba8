"""Content-and-Structure (CAS) index: the path dimension interleaved
with the term dimension.

Per "Robust and Scalable Content-and-Structure Indexing" (Wellenzohn et
al.), subtree-scoped queries (``scope:/projects/mail AND fingerprint``)
should prune on *where* and *what* in one probe instead of evaluating
content globally and filtering by path afterwards.  :class:`CASIndex`
is that structure: documents are filed under their directory, each
directory's partition interleaves a term → member-bitmap posting map,
and a scoped probe ORs the partitions of one contiguous range of
directory keys — the scope's subtree.

Like the path map (:mod:`repro.vfs.pathmap`), the CAS index is an
**accelerator, never an authority**: the engine's document registry
remains the source of truth for paths, and every CAS answer is exact
with respect to it (the equivalence suite referees this bit-for-bit
against scan-and-filter).
"""

from repro.cba.cas.index import CASIndex

__all__ = ["CASIndex"]

"""Dynamically-interleaved path+term index with robust prefix partitioning.

The structure
-------------

Documents are grouped into **prefix partitions**.  Each partition owns

* a *root*: a normalized directory prefix (the root partition's is ``/``),
* a member bitmap of doc ids, and
* an interleaved posting map ``term → member-bitmap`` — the content
  dimension restricted to this slice of the path dimension.

A document is inserted into the deepest existing partition whose root is
an ancestor-or-equal of its parent directory.  When a partition
overflows (:data:`SPLIT_THRESHOLD` members) it *splits* by promoting the
child-directory prefixes one component below its root to new partition
roots — the adaptive refinement that keeps skewed trees from
degenerating into one giant partition (cf. the robust node-splitting of
Wellenzohn et al.).  Documents sitting directly in the root stay put, so
a flat million-file directory simply remains one partition — no worse
than the global index, never pathological.

The correctness invariant is deliberately weaker than "deepest root":

    **containment** — every member's path lies strictly below its
    partition's root.

Containment is what :meth:`docs_under` and :meth:`probe` rely on, and it
is preserved by splits *and* by one-pass prefix rebases (a rename can
leave a doc in a shallower partition than a fresh insert would pick —
that costs precision on future probes, never correctness).  Under it,
a probe for scope prefix ``P`` decomposes exactly:

* partitions whose root is below-or-equal ``P`` contribute **wholesale**
  (every member is under ``P``),
* partitions whose root is a strict ancestor of ``P`` are **residual**:
  members are filtered per-doc against the registered path,
* partitions whose root is incomparable with ``P`` are skipped — no
  member can be under ``P`` (both ``P`` and the root would have to be
  ancestors of that member, which makes them comparable).

Renames
-------

Directory renames rebase the path dimension in the same one-pass sweep
PR 8's :meth:`~repro.vfs.pathmap.PathMap.rebase_prefix` performs on the
path map: partition roots under the old prefix move to their new keys,
member paths are rewritten, and the generation counter is bumped — no
per-document re-insertion, no re-tokenisation.  ``hacfsck`` cross-checks
the rebased paths against the engine registry (``cas-divergence``) to
catch a missed rebase.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.util.stats import Counters

#: members a partition may hold before it tries to split
SPLIT_THRESHOLD = 32


class _Partition:
    """One slice of the path dimension: a root prefix, its members, and
    the term postings interleaved over exactly those members."""

    __slots__ = ("root", "members", "postings", "next_split_at")

    def __init__(self, root: str):
        self.root = root
        self.members = Bitmap()
        self.postings: Dict[str, Bitmap] = {}
        self.next_split_at = SPLIT_THRESHOLD

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
        """Merge *other*'s members into this partition (root collisions
        after a rename-onto-existing-prefix rebase)."""
        self.members |= other.members
        for term, bm in other.postings.items():
            mine = self.postings.get(term)
            if mine is None:
                self.postings[term] = bm.copy()
            else:
                mine |= bm


class CASIndex:
    """Interleaved path+term index over the engine's registered documents.

    All paths handed in are expected normalized (the engine registry
    stores normalized paths); prefixes arriving from query text are
    normalized here.
    """

    def __init__(self, counters: Optional[Counters] = None):
        #: partition root → partition; the root partition always exists
        self._roots: Dict[str, _Partition] = {pathutil.ROOT: _Partition(pathutil.ROOT)}
        #: doc id → (registered path, owning partition root, term tuple)
        self._docs: Dict[int, Tuple[str, str, Tuple[str, ...]]] = {}
        #: bumped once per rebase event, mirroring the path map
        self.generation = 0
        counters = counters if counters is not None else Counters()
        self._stats = counters.scoped("cas")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def upsert(self, doc_id: int, path: str, terms: Iterable[str]) -> None:
        """Insert or replace *doc_id* at *path* with its index terms."""
        if doc_id in self._docs:
            self.remove(doc_id)
        terms = tuple(terms)
        # lenient: foreign back-ends register bare names as paths; they
        # live directly under the root partition
        path = pathutil.canonical(path)
        root = self._assign_root(pathutil.dirname(path))
        part = self._roots[root]
        part.add(doc_id, terms)
        self._docs[doc_id] = (path, root, terms)
        self._stats.add("upserts")
        if len(part.members) >= part.next_split_at:
            self._split(part)

    def fill_terms(self, terms_of: Callable[[int], Iterable[str]]) -> None:
        """Give every member its terms in the partition it sits in — the
        second pass of a bulk load whose term-less upserts laid the
        partitions out.  Splits read member counts and paths only, so the
        layout is the one term-bearing upserts would have built, without
        moving postings through every split."""
        for doc_id, (path, root, _terms) in self._docs.items():
            terms = tuple(terms_of(doc_id))
            self._roots[root].add(doc_id, terms)
            self._docs[doc_id] = (path, root, terms)

    def remove(self, doc_id: int) -> None:
        entry = self._docs.pop(doc_id, None)
        if entry is None:
            return
        _path, root, terms = entry
        part = self._roots.get(root)
        if part is not None:
            part.remove(doc_id, terms)
            if root != pathutil.ROOT and not part.members:
                del self._roots[root]
        self._stats.add("removes")

    def set_path(self, doc_id: int, path: str) -> None:
        """A single document moved; re-home it under its new parent."""
        entry = self._docs.get(doc_id)
        if entry is None:
            return
        _old, _root, terms = entry
        self.remove(doc_id)
        self.upsert(doc_id, path, terms)

    def rebase_prefix(self, old: str, new: str) -> int:
        """One-pass rebase after a directory rename: every member path
        and partition root under *old* moves to its *new*-prefixed key.
        Returns documents moved.  Partitions rooted at-or-below *old*
        shift wholesale (roots and member paths move by the same prefix
        substitution, so containment is untouched); members held
        *residually* by a shallower partition are re-homed afterwards
        when their root no longer contains the rebased path — without
        that sweep a probe would skip them as unreachable."""
        self.generation += 1
        old = pathutil.normalize(old)
        new = pathutil.normalize(new)
        prefix = (old if old == pathutil.ROOT else old + pathutil.SEP)
        moved = 0
        moved_ids: List[int] = []
        for doc_id, (path, root, terms) in list(self._docs.items()):
            if path == old or path.startswith(prefix):
                self._docs[doc_id] = (pathutil.rebase(path, old, new), root,
                                      terms)
                moved += 1
                moved_ids.append(doc_id)
        renames: List[Tuple[str, str]] = []
        for root in self._roots:
            if root == old or root.startswith(prefix):
                renames.append((root, pathutil.rebase(root, old, new)))
        for root, target in renames:
            part = self._roots.pop(root)
            part.root = target
            existing = self._roots.get(target)
            if existing is not None:
                existing.absorb(part)
                for doc_id in part.members:
                    path, _r, terms = self._docs[doc_id]
                    self._docs[doc_id] = (path, target, terms)
            else:
                self._roots[target] = part
                for doc_id in part.members:
                    path, _r, terms = self._docs[doc_id]
                    self._docs[doc_id] = (path, target, terms)
        for doc_id in moved_ids:
            path, root, terms = self._docs[doc_id]
            if pathutil.is_ancestor(root, path, strict=False):
                continue  # containment survived the substitution
            part = self._roots.get(root)
            if part is not None:
                part.remove(doc_id, terms)
                if root != pathutil.ROOT and not part.members:
                    del self._roots[root]
            target = self._assign_root(pathutil.dirname(path))
            home = self._roots[target]
            home.add(doc_id, terms)
            self._docs[doc_id] = (path, target, terms)
            self._stats.add("rehomed")
            if len(home.members) >= home.next_split_at:
                self._split(home)
        self._stats.add("rebased", moved)
        return moved

    def clear(self) -> None:
        self._roots = {pathutil.ROOT: _Partition(pathutil.ROOT)}
        self._docs.clear()
        self.generation += 1

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------

    def docs_under(self, prefix: str) -> Bitmap:
        """Every indexed document whose registered path is at-or-below
        *prefix* — the path dimension alone."""
        return self._gather(prefix, None)

    def probe(self, prefix: str, term: str) -> Bitmap:
        """Documents under *prefix* containing *term* — both dimensions
        pruned in one pass over the intersecting partitions."""
        return self._gather(prefix, term)

    def count_under(self, prefix: str) -> int:
        """Selectivity of the path dimension (exact; used by the planner
        to cost CAS probes against postings)."""
        return len(self.docs_under(prefix))

    def _gather(self, prefix: str, term: Optional[str]) -> Bitmap:
        # partition roots and registered paths were normalised on the way
        # in, so once the probe prefix is, ancestry is a string test
        prefix = pathutil.normalize(prefix)
        below = prefix if prefix == pathutil.ROOT else prefix + pathutil.SEP
        self._stats.add("probes")
        out = Bitmap()
        for root, part in self._roots.items():
            source = (part.members if term is None
                      else part.postings.get(term))
            if source is None or not source:
                continue
            if root == prefix or root.startswith(below):
                out |= source             # wholesale: containment
            elif root == pathutil.ROOT or \
                    prefix.startswith(root + pathutil.SEP):
                for doc_id in source:     # residual: filter by path
                    self._stats.add("residual_checks")
                    path = self._docs[doc_id][0]
                    if path == prefix or path.startswith(below):
                        out.add(doc_id)
        return out

    # ------------------------------------------------------------------
    # introspection (fsck, tests, hacstat)
    # ------------------------------------------------------------------

    def path_of(self, doc_id: int) -> Optional[str]:
        entry = self._docs.get(doc_id)
        return None if entry is None else entry[0]

    def root_of(self, doc_id: int) -> Optional[str]:
        entry = self._docs.get(doc_id)
        return None if entry is None else entry[1]

    def doc_ids(self) -> List[int]:
        return list(self._docs)

    def roots(self) -> List[str]:
        return sorted(self._roots)

    def __len__(self) -> int:
        return len(self._docs)

    def __repr__(self):
        return (f"CASIndex(docs={len(self._docs)}, "
                f"partitions={len(self._roots)}, "
                f"generation={self.generation})")

    # ------------------------------------------------------------------
    # partitioning internals
    # ------------------------------------------------------------------

    def _assign_root(self, parent: str) -> str:
        """Deepest existing partition root that is an ancestor-or-equal
        of normalised *parent* (the root partition guarantees one
        exists)."""
        best = pathutil.ROOT
        for root in self._roots:
            if len(root) > len(best) and \
                    (parent == root or parent.startswith(root + pathutil.SEP)):
                best = root
        return best

    def _split(self, part: _Partition) -> None:
        """Promote child-directory prefixes of an overflowing partition
        to partition roots of their own.  Members whose parent *is* the
        root stay; if nothing can move (a genuinely flat directory) the
        next attempt is deferred until the partition doubles."""
        groups: Dict[str, List[int]] = {}
        for doc_id in part.members:
            path = self._docs[doc_id][0]
            rel = pathutil.relative_to(path, part.root)
            comps = rel.split(pathutil.SEP)
            if len(comps) > 1:  # parent strictly below the root
                child = pathutil.join(part.root, comps[0])
                groups.setdefault(child, []).append(doc_id)
        moved_any = False
        for child, doc_ids in groups.items():
            if child in self._roots:
                target = self._roots[child]
            else:
                target = self._roots[child] = _Partition(child)
            for doc_id in doc_ids:
                path, _root, terms = self._docs[doc_id]
                part.remove(doc_id, terms)
                target.add(doc_id, terms)
                self._docs[doc_id] = (path, child, terms)
            moved_any = True
            self._stats.add("splits")
            if len(target.members) >= target.next_split_at:
                self._split(target)
        if moved_any and len(part.members) < SPLIT_THRESHOLD:
            part.next_split_at = SPLIT_THRESHOLD
        else:
            part.next_split_at = max(SPLIT_THRESHOLD,
                                     2 * max(len(part.members), 1))

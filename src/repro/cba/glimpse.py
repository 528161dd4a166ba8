"""The Glimpse-style two-level block index.

Glimpse's key idea: instead of mapping each word to the *files* containing
it (a big index), map each word to the *blocks* of files containing it — a
few hundred blocks regardless of corpus size — then scan the candidate
blocks' files to verify.  The index stays a few percent of the corpus size;
search trades index precision for scanning.

This module implements that structure:

* documents are assigned to one of ``num_blocks`` blocks (``doc_id %
  num_blocks``, a locality-free but deterministic partition);
* postings map interned term-ids to a :class:`Bitmap` of block ids;
* per-block per-term occurrence counts make document removal exact (real
  Glimpse rebuilds instead; we keep counts so incremental deletion works
  without a rebuild, and note the extra space in ``index_size_bytes``);
* :meth:`candidate_blocks` evaluates a query AST at block granularity —
  the coarse filter whose false positives the agrep scan removes.  It
  never decides a match: a word the index does not hold (a stopword, a
  too-short word) nominates every occupied block, as an approximate word
  does, so a document's verdict is agrep's on its own text.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.util.bitmap import Bitmap
from repro.util.stats import Counters
from repro.cba.lexicon import Lexicon
from repro.cba.tokenizer import indexable as default_indexable
from repro.cba.queryast import (
    And,
    Approx,
    DirRef,
    FieldTerm,
    MatchAll,
    Node,
    Not,
    Or,
    Phrase,
    ScopeTerm,
    Term,
)

DEFAULT_NUM_BLOCKS = 64


def eval_blocks(node: Node, term_blocks: Callable[[str], Bitmap],
                all_blocks: Bitmap,
                indexable: Callable[[str], bool]) -> Bitmap:
    """Block-granularity evaluation of a query AST.

    *term_blocks(term)* returns a caller-owned bitmap of blocks whose
    member documents carry *term* (empty when the term is unknown);
    *all_blocks* is the occupied block set; *indexable(word)* says
    whether the index holds *word* at all — one it does not cannot
    prune, so a ``Term`` of it nominates every block and a ``Phrase``
    skips it.  Factored out of
    :class:`GlimpseIndex` so the cluster coordinator can evaluate the same
    algebra over the *union* of every shard's term→block postings: with
    global doc ids the blocks line up across shards, and candidate blocks
    computed here once are exactly the monolithic engine's.
    """
    if isinstance(node, Term):
        if indexable(node.word):
            return term_blocks(node.word)
        return all_blocks.copy()
    if isinstance(node, FieldTerm):
        return term_blocks(f"{node.field}:{node.value}")
    if isinstance(node, Phrase):
        out = all_blocks.copy()
        for word in filter(indexable, node.words):
            out &= term_blocks(word)
            if not out:
                break
        return out
    if isinstance(node, Approx):
        # the exact-word index cannot bound an approximate term; every
        # block is a candidate (agrep will pay for it, as in Glimpse)
        return all_blocks.copy()
    if isinstance(node, MatchAll):
        return all_blocks.copy()
    if isinstance(node, And):
        out = all_blocks.copy()
        for child in node.children:
            out &= eval_blocks(child, term_blocks, all_blocks, indexable)
            if not out:
                break
        return out
    if isinstance(node, Or):
        out = Bitmap()
        for child in node.children:
            out |= eval_blocks(child, term_blocks, all_blocks, indexable)
        return out
    if isinstance(node, Not):
        # at block granularity NOT cannot prune: a block containing the
        # negated word may still hold documents without it
        return all_blocks.copy()
    if isinstance(node, ScopeTerm):
        # blocks are doc-id-modular and path-blind, so the path dimension
        # cannot prune here; the CAS index prunes at doc granularity
        return all_blocks.copy()
    if isinstance(node, DirRef):
        raise TypeError("DirRef reached the block index; the evaluator "
                        "must resolve directory references first")
    raise TypeError(f"unknown query node: {type(node).__name__}")


def estimate_docs(node: Node, df: Callable[[str], int], total: int,
                  scope_count: Optional[Callable[[str], int]] = None) -> int:
    """Upper-bound-ish estimate of matching documents for *node*.

    *df(term)* is the exact document frequency, *total* the corpus size.
    *scope_count(prefix)* is the exact count of indexed documents under a
    path prefix (the CAS index's path-dimension selectivity); without it
    scope terms pessimistically estimate the whole corpus.  Everything
    else the index cannot bound (Approx, Not, MatchAll, DirRef)
    estimates the whole corpus too.  Module-level so the cluster
    coordinator can run the identical estimator over summed per-shard
    frequencies — document frequencies, corpus sizes, and per-shard
    scope counts are additive over a partition, so the coordinator's
    estimates (and hence the planner's stable sort) match the monolithic
    engine exactly.
    """
    if isinstance(node, Term):
        return df(node.word)
    if isinstance(node, FieldTerm):
        return df(f"{node.field}:{node.value}")
    if isinstance(node, Phrase):
        if not node.words:
            return total
        return min(df(w) for w in node.words)
    if isinstance(node, ScopeTerm):
        return total if scope_count is None else scope_count(node.prefix)
    if isinstance(node, And):
        if not node.children:
            return total
        return min(estimate_docs(c, df, total, scope_count)
                   for c in node.children)
    if isinstance(node, Or):
        return min(total, sum(estimate_docs(c, df, total, scope_count)
                              for c in node.children))
    return total


class GlimpseIndex:
    """Block-level inverted index over bags of terms.

    *indexable* is the rule the caller's tokenizer kept terms by (the
    default is :func:`~repro.cba.tokenizer.index_terms`'s own)."""

    def __init__(self, num_blocks: int = DEFAULT_NUM_BLOCKS,
                 counters: Optional[Counters] = None,
                 indexable: Callable[[str], bool] = default_indexable):
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self.num_blocks = num_blocks
        self.indexable = indexable
        self._stats = (counters or Counters()).scoped("glimpse")
        self.lexicon = Lexicon()
        #: term-id → bitmap of block ids
        self._postings: Dict[int, Bitmap] = {}
        #: block id → {term-id: docs-in-block-containing-term}
        self._block_counts: Dict[int, Dict[int, int]] = {}
        #: doc id → term-id set (needed for exact removal)
        self._doc_terms: Dict[int, Set[int]] = {}
        #: block id → bitmap of member doc ids
        self._block_docs: Dict[int, Bitmap] = {}
        #: term-id → bitmap of doc ids — the exact doc-level postings
        #: term queries are answered from.  An in-memory structure, not
        #: part of the paper's two-level on-disk index: it is not
        #: persisted (rebuilt from ``_doc_terms`` on restore) and not
        #: counted in :meth:`index_size_bytes`.
        self._doc_postings: Dict[int, Bitmap] = {}
        self._all_docs = Bitmap()
        self._all_blocks = Bitmap()
        #: exact count of indexed docs under a path prefix — wired by the
        #: owning engine (its CAS index) so scope terms get real
        #: selectivity in :meth:`estimate_docs`
        self.scope_counter: Optional[Callable[[str], int]] = None

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def block_of(self, doc_id: int) -> int:
        return doc_id % self.num_blocks

    def add(self, doc_id: int, terms: Iterable[str]) -> bool:
        """Index a new document given its distinct terms.

        Returns True when the mutation may have *raised* some query's
        block candidacy — the block gained a term it lacked, or went from
        empty to occupied.  Block candidacy is monotone in those inputs
        (``Not`` nominates every block without consulting its child), so
        a False return lets the engine skip recomputing candidate blocks
        for its cached results.
        """
        if doc_id in self._doc_terms:
            raise ValueError(f"doc {doc_id} already indexed")
        block = self.block_of(doc_id)
        grew = block not in self._all_blocks
        term_ids: Set[int] = set()
        counts = self._block_counts.setdefault(block, {})
        for term in terms:
            tid = self.lexicon.add_occurrence(term)
            term_ids.add(tid)
            counts[tid] = counts.get(tid, 0) + 1
            posting = self._postings.get(tid)
            if posting is None:
                posting = self._postings[tid] = Bitmap()
            if block not in posting:
                posting.add(block)
                grew = True
        for tid in term_ids:
            docs = self._doc_postings.get(tid)
            if docs is None:
                docs = self._doc_postings[tid] = Bitmap()
            docs.add(doc_id)
        self._doc_terms[doc_id] = term_ids
        self._block_docs.setdefault(block, Bitmap()).add(doc_id)
        self._all_docs.add(doc_id)
        self._all_blocks.add(block)
        self._stats.add("docs_added")
        return grew

    def install(self, terms: Sequence[str],
                docs: Iterable[Tuple[int, Iterable[int]]]) -> None:
        """Bulk-load this empty index with *docs*, ``(doc id, term ids)``
        pairs whose ids index *terms* — a restore's folded rows.  The
        result is what one :meth:`add` per document builds, made by term
        id in one pass over the (doc, term) pairs: the doc postings and
        per-block counts first, then the block postings per (block, term)
        and the lexicon per term (ids as given, document frequency read
        off the doc postings)."""
        if self._doc_terms:
            raise ValueError("install needs an empty index")
        num_blocks, doc_terms = self.num_blocks, self._doc_terms
        doc_bits: Dict[int, int] = {}
        members: Dict[int, List[int]] = {}
        for doc_id, tids in docs:
            tids = doc_terms[doc_id] = set(tids)
            bit = 1 << doc_id
            for tid in tids:
                doc_bits[tid] = doc_bits.get(tid, 0) | bit
            members.setdefault(doc_id % num_blocks, []).append(doc_id)
        block_bits: Dict[int, int] = {}
        for block, doc_ids in members.items():
            counts = self._block_counts[block] = dict(Counter(
                chain.from_iterable(map(doc_terms.__getitem__, doc_ids))))
            bit = 1 << block
            for tid in counts:
                block_bits[tid] = block_bits.get(tid, 0) | bit
            self._block_docs[block] = Bitmap(doc_ids)
        self._postings = {tid: Bitmap.from_int(bits)
                          for tid, bits in block_bits.items()}
        self._doc_postings = {tid: Bitmap.from_int(bits)
                              for tid, bits in doc_bits.items()}
        self.lexicon = Lexicon.from_obj({
            terms[tid]: [tid, bits.bit_count()]
            for tid, bits in doc_bits.items()})
        self._all_docs = Bitmap(doc_terms)
        self._all_blocks = Bitmap(members)

    def remove(self, doc_id: int) -> bool:
        """Withdraw a document, pruning postings that empty out.

        Returns False always: a removal only clears block bits, and block
        candidacy is monotone in them, so no query's candidacy can rise
        (see :meth:`add`)."""
        term_ids = self._doc_terms.pop(doc_id, None)
        if term_ids is None:
            raise KeyError(f"doc {doc_id} not indexed")
        block = self.block_of(doc_id)
        counts = self._block_counts[block]
        for tid in term_ids:
            term = self.lexicon.term(tid)
            counts[tid] -= 1
            if counts[tid] <= 0:
                del counts[tid]
                self._postings[tid].discard(block)
                if not self._postings[tid]:
                    del self._postings[tid]
            docs = self._doc_postings.get(tid)
            if docs is not None:
                docs.discard(doc_id)
                if not docs:
                    del self._doc_postings[tid]
            self.lexicon.drop_occurrence(term)
        block_docs = self._block_docs[block]
        block_docs.discard(doc_id)
        if not block_docs:
            del self._block_docs[block]
            self._block_counts.pop(block, None)
            self._all_blocks.discard(block)
        self._all_docs.discard(doc_id)
        self._stats.add("docs_removed")
        return False

    def update(self, doc_id: int, terms: Iterable[str]) -> bool:
        """Re-tokenise a document in place.

        Returns True when the update may have raised some query's block
        candidacy (see :meth:`add`): the new version carries a term its
        block lacked before the update.  Comparing against the
        *pre-remove* state keeps churn cheap — a doc re-adding the terms
        it already held (the common reindex case) reports False even when
        it was its block's sole holder of some of them.
        """
        block = self.block_of(doc_id)
        new_terms = list(terms)
        pre = set()
        for term in new_terms:
            tid = self.lexicon.lookup(term)
            if tid is not None and block in self._postings.get(tid, ()):
                pre.add(term)
        self.remove(doc_id)
        self.add(doc_id, new_terms)
        self._stats.add("docs_updated")
        return any(term not in pre for term in new_terms)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._doc_terms

    def __len__(self) -> int:
        return len(self._doc_terms)

    # ------------------------------------------------------------------
    # block-level query evaluation (the coarse filter)
    # ------------------------------------------------------------------

    def candidate_blocks(self, query: Node) -> Bitmap:
        """Blocks that *may* contain matches; never misses a true match."""
        self._stats.add("block_lookups")
        blocks = self._blocks(query)
        # "blocks scanned vs skipped": how much of the occupied index the
        # coarse filter ruled out for this query (observability metric)
        self._stats.add("blocks_nominated", len(blocks))
        self._stats.add("blocks_skipped",
                        max(0, len(self._all_blocks) - len(blocks)))
        return blocks

    def _blocks(self, node: Node) -> Bitmap:
        return eval_blocks(node, self.blocks_with_term, self._all_blocks,
                           self.indexable)

    def blocks_with_term(self, term: str) -> Bitmap:
        """Blocks whose member documents carry *term* (a fresh bitmap;
        empty when the term is unknown).  The per-term granularity the
        cluster coordinator unions across shards."""
        tid = self.lexicon.lookup(term)
        if tid is None:
            return Bitmap()
        return self._postings[tid].copy()

    def occupied_blocks(self) -> Bitmap:
        """Copy of the occupied block set."""
        return self._all_blocks.copy()

    def docs_in_blocks(self, blocks: Bitmap) -> Bitmap:
        """Union of member documents across *blocks*."""
        out = Bitmap()
        for block in blocks:
            docs = self._block_docs.get(block)
            if docs is not None:
                out |= docs
        return out

    def all_docs(self) -> Bitmap:
        return self._all_docs.copy()

    # ------------------------------------------------------------------
    # doc-level postings
    # ------------------------------------------------------------------

    def docs_with_term(self, term: str) -> Bitmap:
        """Exact document set containing *term*."""
        tid = self.lexicon.lookup(term)
        if tid is None:
            return Bitmap()
        docs = self._doc_postings.get(tid)
        return docs.copy() if docs is not None else Bitmap()

    # ------------------------------------------------------------------
    # selectivity estimation (query planner)
    # ------------------------------------------------------------------

    def estimate_docs(self, node: Node) -> int:
        """Upper-bound-ish estimate of matching documents for *node*.

        Term/FieldTerm read exact document frequencies from the lexicon
        (see module-level :func:`estimate_docs`).  Only used for ordering
        conjunctions — never for answering queries — so coarseness is fine.
        """
        return estimate_docs(node, self.lexicon.df, len(self._doc_terms),
                             self.scope_counter)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        """Approximate on-disk footprint of the two-level index."""
        postings = sum(bm.nbytes for bm in self._postings.values())
        counts = sum(6 * len(c) for c in self._block_counts.values())
        membership = sum(bm.nbytes for bm in self._block_docs.values())
        return self.lexicon.approximate_bytes() + postings + counts + membership

    def block_sizes(self) -> Dict[int, int]:
        """Documents per block — the partition-skew diagnostic."""
        return {block: len(docs) for block, docs in self._block_docs.items()}

    # ------------------------------------------------------------------
    # persistence (the ".glimpse index files" of the real tool)
    # ------------------------------------------------------------------

    def to_obj(self):
        """Dump to primitives; numeric collections are packed as raw
        ``array('I')`` bytes so the record codec handles a few large blobs
        instead of tens of thousands of small integers (recovery speed)."""
        from array import array

        return {
            "num_blocks": self.num_blocks,
            "lexicon": self.lexicon.to_obj(),
            "postings": {str(tid): bm.to_bytes()
                         for tid, bm in self._postings.items()},
            "block_counts": {
                str(b): array("I", [x for t, c in sorted(counts.items())
                                    for x in (t, c)]).tobytes()
                for b, counts in self._block_counts.items()},
            "doc_terms": {str(doc): array("I", sorted(tids)).tobytes()
                          for doc, tids in self._doc_terms.items()},
            "block_docs": {str(b): bm.to_bytes()
                           for b, bm in self._block_docs.items()},
        }

    @classmethod
    def from_obj(cls, obj, counters: Optional[Counters] = None,
                 indexable: Callable[[str], bool] = default_indexable
                 ) -> "GlimpseIndex":
        from array import array

        def unpack(raw):
            arr = array("I")
            arr.frombytes(raw)
            return arr

        idx = cls(obj["num_blocks"], counters, indexable)
        idx.lexicon = Lexicon.from_obj(obj["lexicon"])
        idx._postings = {int(t): Bitmap.from_bytes(raw)
                         for t, raw in obj["postings"].items()}
        idx._block_counts = {}
        for b, raw in obj["block_counts"].items():
            flat = unpack(raw)
            idx._block_counts[int(b)] = {flat[i]: flat[i + 1]
                                         for i in range(0, len(flat), 2)}
        idx._doc_terms = {int(d): set(unpack(raw))
                          for d, raw in obj["doc_terms"].items()}
        idx._block_docs = {int(b): Bitmap.from_bytes(raw)
                           for b, raw in obj["block_docs"].items()}
        for doc in idx._doc_terms:
            idx._all_docs.add(doc)
        for block in idx._block_docs:
            idx._all_blocks.add(block)
        # doc postings are not persisted (an in-memory structure);
        # rebuild from the removal map we already keep
        for doc, tids in idx._doc_terms.items():
            for tid in tids:
                docs = idx._doc_postings.get(tid)
                if docs is None:
                    docs = idx._doc_postings[tid] = Bitmap()
                docs.add(doc)
        return idx

"""The CBA engine facade — what HAC's narrow CBA API talks to.

The engine owns the document registry (opaque keys → dense doc ids), the
Glimpse block index, and the verification scanner.  HAC gives it a *loader*
callback to fetch document text on demand, so the engine never stores
contents: like real Glimpse, verification re-reads the files it scans
(charging the simulated block device through whatever the loader does).

The paper argues its CBA API is general enough to host any search system;
ours is correspondingly small: ``index_document`` / ``remove_document`` /
``update_document`` / ``reindex`` for maintenance, ``search`` for content
queries over an optional scope bitmap, ``extract`` for ``sact``-style
match-line retrieval.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.util.bitmap import Bitmap
from repro.util.stats import Counters
from repro.cba import agrep, planner
from repro.cba.cas import CASIndex
from repro.cba.glimpse import DEFAULT_NUM_BLOCKS, GlimpseIndex
from repro.cba.incremental import ReindexPlan, execute_reindex
from repro.cba.queryast import (
    And,
    FieldTerm,
    MatchAll,
    Node,
    Not,
    Or,
    ScopeTerm,
    Term,
    has_field_terms,
    has_scope_terms,
    required_scope_prefixes,
)
from repro.cba.registry import DocRegistry, Document
from repro.cba.segments import SegmentRow, SegmentStore
from repro.cba.tokenizer import DEFAULT_STOPWORDS, index_terms
from repro.cba.transducers import Transducer

#: verification-memo entries kept before the memo is wholesale dropped —
#: bounds memory on corpora with many distinct (doc, query) pairs
MEMO_CAPACITY = 100_000


class _CacheEntry(NamedTuple):
    """A cached query result plus the candidate blocks it was computed
    from, so invalidation can reason at block granularity."""

    result: Bitmap
    blocks: Bitmap


class IndexOp(NamedTuple):
    """One primary-engine mutation, as shipped to read replicas.

    Ops carry the *term set the primary computed* and the *text it
    indexed*, so replica catch-up never re-tokenises and never re-reads
    the live tree — replay is pure index manipulation against frozen
    inputs.  Emitted only while at least one replica is attached (the op
    buffer stays empty otherwise, keeping ``publish`` free for eager
    mode's per-write drains).
    """

    kind: str                       # 'index' | 'update' | 'remove' | 'rename'
    doc_id: int
    key: Hashable
    path: str
    mtime: float
    terms: Optional[Set[str]] = None
    text: Optional[str] = None


class CBAEngine(DocRegistry):
    """Glimpse-style content-based access over externally stored documents.

    :param loader: ``loader(key) -> str`` fetches a document's current text.
    :param num_blocks: Glimpse block count (index size / scan cost knob).
    """

    def __init__(self, loader: Callable[[Hashable], str],
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 min_term_length: int = 2,
                 stopwords: Optional[Set[str]] = None,
                 transducer: Optional[Transducer] = None,
                 cache_size: int = 64,
                 counters: Optional[Counters] = None,
                 segmented: bool = False):
        self.loader = loader
        self.counters = counters if counters is not None else Counters()
        self._stats = self.counters.scoped("engine")
        #: observability hooks (wired by the owning HacFileSystem);
        #: both default to shared disabled instances
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.index = GlimpseIndex(num_blocks=num_blocks, counters=self.counters)
        self.min_term_length = min_term_length
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else stopwords
        #: optional SFS-style attribute extractor; enables field:value terms
        self.transducer = transducer
        self._init_registry()
        # SFS-style result cache (§5: SFS "caches the contents of different
        # virtual directories to save query processing costs").  Keyed by
        # (query, scope).  Invalidation is block-exact: a mutation of doc d
        # only evicts entries whose stored candidate blocks — or whose
        # freshly recomputed candidate blocks — contain d's block; every
        # other entry provably still holds (a doc's postings live in exactly
        # one block, so no other block's candidacy can change).
        self._cache: "OrderedDict[tuple, _CacheEntry]" = OrderedDict()
        self._cache_capacity = cache_size
        self._generation = 0
        #: docs mutated since construction (diagnostic; benchmarks read it)
        self._dirty = Bitmap()
        #: doc id → {query node: (mtime, verdict)} — scan verdicts are pure
        #: functions of (text, pairs), so they survive until the doc mutates
        self._verify_memo: Dict[int, Dict[Node, Tuple[float, bool]]] = {}
        self._memo_entries = 0
        # serving tier: the published snapshot version, attached read
        # replicas, and the op log replicas replay at publish time (empty
        # while no replica is attached — see IndexOp)
        self._published_version = 0
        self._replicas: List = []
        self._pending_ops: List[IndexOp] = []
        self._route_rr = 0
        # segmented storage plane (LSM-style memtable + frozen segments);
        # the in-memory aggregates above still answer every query, so the
        # toggle cannot change a single search result — it changes how
        # mutations are persisted, published, and recovered
        self.segments: Optional[SegmentStore] = (
            SegmentStore(counters=self.counters) if segmented else None)
        # Content-and-Structure index: the path dimension interleaved
        # with the term dimension, maintained in lockstep with the
        # registry by the mutation funnels below.
        self.cas = CASIndex(counters=self.counters)
        self.index.scope_counter = self.scope_count

    # ------------------------------------------------------------------
    # registry (state and accessors: DocRegistry)
    # ------------------------------------------------------------------

    def all_docs(self) -> Bitmap:
        return self.index.all_docs()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _terms_of(self, text: str, path: str = "") -> Set[str]:
        # tokenisation passes are the unit of maintenance work the batched
        # scheduler saves; Ablation K asserts on this counter
        self._stats.add("tokenisations")
        terms = index_terms(text, min_length=self.min_term_length,
                            stopwords=self.stopwords)
        if self.transducer is not None:
            terms |= {f"{field}:{value}"
                      for field, value in self.transducer(path, text)}
        return terms

    def index_document(self, key: Hashable, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        """Add a new document; returns its doc id.

        *doc_id* pins an externally assigned id instead of the dense
        default.  The cluster coordinator indexes each shard's documents
        under their *global* ids so block assignment (``doc_id %
        num_blocks``) — and with it every candidate-block computation —
        matches the monolithic engine bit-for-bit.
        """
        doc_id = self._claim_doc_id(key, doc_id)
        if text is None:
            text = self.loader(key)
        terms = self._terms_of(text, path)
        self._upsert(doc_id, key, path, mtime, len(text), terms)
        self._emit("index", doc_id, key, path, mtime, terms, text)
        self._stats.add("indexed")
        self._stats.add("indexed_bytes", len(text))
        return doc_id

    def remove_document(self, key: Hashable) -> int:
        """Withdraw a document; returns the freed doc id."""
        doc_id = self._indexed_id(key)
        doc = self._withdraw(doc_id)
        self._emit("remove", doc_id, key, doc.path, doc.mtime)
        self._stats.add("removed")
        return doc_id

    def update_document(self, key: Hashable, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        """Re-tokenise a changed document in place (doc id preserved)."""
        doc_id = self._indexed_id(key)
        if text is None:
            text = self.loader(key)
        terms = self._terms_of(text, path)
        self._upsert(doc_id, key, path, mtime, len(text), terms)
        self._emit("update", doc_id, key, path, mtime, terms, text)
        self._stats.add("updated")
        return doc_id

    def rename_document(self, key: Hashable, new_path: str) -> None:
        """Update the display path (contents unchanged, no retokenising)."""
        doc_id = self._indexed_id(key)
        doc = self._repath(doc_id, new_path)
        self._emit("rename", doc_id, key, new_path, doc.mtime)

    # -- mutation funnels ----------------------------------------------------
    #
    # Every way a document version reaches the index — a tokenised write,
    # a replica replaying ops or folding segments, a restore merging
    # persisted rows — lands in these three methods, so a new index
    # dimension is wired here once.

    def _upsert(self, doc_id: int, key: Hashable, path: str, mtime: float,
                size: int, terms: Iterable[str]) -> None:
        """Install one pre-tokenised document version (new or changed)."""
        if doc_id in self.index:
            grew = self.index.update(doc_id, terms)
        else:
            grew = self.index.add(doc_id, terms)
        self._put(doc_id, key, path, mtime, size)
        self.cas.upsert(doc_id, path, terms)
        self._note_mutation(doc_id, grew)

    def _withdraw(self, doc_id: int) -> Document:
        """Drop one document from every index dimension; returns its row."""
        doc = self._drop(doc_id)
        self.index.remove(doc_id)
        self.cas.remove(doc_id)
        self._note_mutation(doc_id, grew=False)
        return doc

    def _repath(self, doc_id: int, new_path: str) -> Document:
        """Move one document's registered path; contents are untouched."""
        doc = self._move(doc_id, new_path)
        self.cas.set_path(doc_id, new_path)
        # transduced pairs and scope-term verdicts can depend on the path,
        # so memoised verdicts for this doc — and cached results of
        # scope-bearing queries — may no longer hold even though its
        # mtime is unchanged
        self._purge_memo(doc_id)
        self._purge_scope_cache()
        return doc

    def _adopt(self, index_obj, docs: Iterable[Document],
               next_doc_id: int) -> None:
        """Install a persisted (or copied) block index and registry
        wholesale — no loader read, no tokenisation — and derive the CAS
        index from them."""
        self.index = GlimpseIndex.from_obj(index_obj, counters=self.counters)
        self.index.scope_counter = self.scope_count
        self._load(docs, next_doc_id)
        self.rebuild_cas()

    def rebase_paths(self, old_prefix: str, new_prefix: str) -> int:
        """Directory rename: re-root every registered path under
        *old_prefix* in one pass — the same one-pass rebase the path map
        performs — and rebase the CAS index's prefix keys alongside.
        Contents are untouched: no loader read, no retokenisation, just
        registry path rewrites, per-doc rename emission (so segments and
        replicas follow), and scope-sensitive cache eviction.  Returns
        documents moved.
        """
        moved = self._rebase_rows(old_prefix, new_prefix)
        for doc in moved:
            self._purge_memo(doc.doc_id)
            self._emit("rename", doc.doc_id, doc.key, doc.path, doc.mtime)
        self.cas.rebase_prefix(old_prefix, new_prefix)
        if moved:
            self._purge_scope_cache()
            self._stats.add("paths_rebased", len(moved))
        return len(moved)

    def reindex(self, current: Iterable[Tuple[Hashable, str, float]],
                previous: Optional[Dict[Hashable, float]] = None) -> ReindexPlan:
        """Bring the index in line with *current* ``(key, path, mtime)`` files.

        :param previous: restricts the comparison baseline — pass the subset
            of :meth:`mtime_snapshot` covering the subtree being reindexed,
            so documents outside it are not treated as removed (HAC's
            "reindex any part of the file system", §2.4).

        Returns the executed :class:`ReindexPlan` so callers can report how
        much work the lazy data-consistency policy saved.
        """
        return execute_reindex(self, current, previous)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _note_mutation(self, doc_id: int, grew: bool = True) -> None:
        """Record that *doc_id*'s index entry changed (add/remove/update).

        Invalidation is block-exact rather than wholesale: a doc's postings
        live in exactly one block, so a mutation can only change (a) results
        whose stored candidate blocks contain that block, or (b) results
        whose candidate blocks — recomputed against the mutated index — now
        contain it (a term the doc introduced can make its block newly
        candidate).  Every other cached entry provably still holds and
        survives.  Must be called *after* the index mutation so (b) sees the
        new postings.

        *grew* comes from the index mutation: block candidacy is monotone
        in a block's term membership, so when the mutation added no term
        its block lacked (pure removals, churn that re-adds the same
        terms) no entry's candidate blocks can have gained the block, and
        the per-entry recompute behind (b) — the expensive half of the
        sweep — is skipped wholesale.
        """
        self._generation += 1
        self._dirty.add(doc_id)
        self._purge_memo(doc_id)
        if not self._cache:
            return
        block = self.index.block_of(doc_id)
        survivors = 0
        for key in list(self._cache):
            entry = self._cache[key]
            if block in entry.blocks or \
                    (grew and block in self.index.candidate_blocks(key[0])):
                del self._cache[key]
            else:
                survivors += 1
        if survivors:
            self._stats.add("cache_survivals", survivors)

    def _purge_memo(self, doc_id: int) -> None:
        dropped = self._verify_memo.pop(doc_id, None)
        if dropped:
            self._memo_entries -= len(dropped)

    def _purge_scope_cache(self) -> None:
        """Evict cached results of scope-bearing queries: a path move
        changes their answers without touching any block's postings, so
        the block-exact invalidation in :meth:`_note_mutation` cannot
        see it."""
        if not self._cache:
            return
        for key in [k for k in self._cache if has_scope_terms(k[0])]:
            del self._cache[key]

    def _memoize(self, doc_id: int, query: Node, mtime: float,
                 verdict: bool) -> None:
        if self._memo_entries >= MEMO_CAPACITY:
            self._verify_memo.clear()
            self._memo_entries = 0
        per_doc = self._verify_memo.setdefault(doc_id, {})
        if query not in per_doc:
            self._memo_entries += 1
        per_doc[query] = (mtime, verdict)

    def dirty_docs(self) -> Bitmap:
        """Docs mutated since the engine was built (benchmark diagnostic)."""
        return self._dirty.copy()

    def clear_query_cache(self) -> None:
        """Drop cached query results and memoised scan verdicts (benchmarks
        use this to measure cold costs — the real Glimpse binary starts cold
        on every invocation)."""
        self._cache.clear()
        self._verify_memo.clear()
        self._memo_entries = 0

    # -- the path dimension (CAS) -------------------------------------------

    def scope_docs(self, prefix: str) -> Bitmap:
        """Exact set of indexed documents whose registered path lies
        at-or-below *prefix*: one CAS probe."""
        self._stats.add("cas_scope_probes")
        return self.cas.docs_under(prefix)

    def scope_count(self, prefix: str) -> int:
        """Path-dimension selectivity for the planner (exact)."""
        return len(self.scope_docs(prefix))

    def rebuild_cas(self) -> None:
        """Repopulate the CAS index from the registry and the block
        index's removal map — zero loader reads, zero tokenisations.
        Wholesale adoption (:meth:`_adopt`) and fsck repair land here
        because they bypass the per-mutation funnels."""
        self.cas.clear()
        lexicon = self.index.lexicon
        for doc_id, doc in sorted(self._docs.items()):
            terms = [lexicon.term(tid)
                     for tid in self.index._doc_terms.get(doc_id, ())]
            self.cas.upsert(doc_id, doc.path, terms)

    # -- postings answering ---------------------------------------------------

    def _indexable(self, word: str) -> bool:
        return len(word) >= self.min_term_length and word not in self.stopwords

    def _postings_answerable(self, node: Node, conj: bool = True) -> bool:
        """Can *node* be answered exactly from doc-level postings?

        ``Term`` leaves must be indexable — a stopword/short token never
        reaches the index, yet the scanner can still see it on candidate
        docs nominated by *other* operands, so in general a non-indexable
        leaf diverges.  The one sound exemption is a leaf on the pure-And
        spine from the root (*conj*): there its empty block nomination is
        intersected into the root candidate set, so both paths reach the
        empty result.  That argument breaks the moment any other operator
        intervenes: under ``Or`` the union keeps other branches' candidate
        blocks alive, and block collocation lets the scanner match a doc
        through the non-indexable branch the postings path evaluated as
        empty; under ``Not`` the divergence inverts into all-docs.  So
        *conj* goes false through both, and a non-indexable leaf there
        forces the scan path.  ``Phrase``/``Approx`` need token order /
        fuzzy matching the postings cannot express.
        """
        if isinstance(node, Term):
            return conj or self._indexable(node.word)
        if isinstance(node, FieldTerm):
            return True
        if isinstance(node, ScopeTerm):
            # the CAS index answers the path dimension exactly in any
            # position — scope terms never force a scan
            return True
        if isinstance(node, MatchAll):
            return True
        if isinstance(node, And):
            return all(self._postings_answerable(c, conj=conj)
                       for c in node.children)
        if isinstance(node, Or):
            return all(self._postings_answerable(c, conj=False)
                       for c in node.children)
        if isinstance(node, Not):
            return self._postings_answerable(node.child, conj=False)
        return False

    def _postings_eval(self, node: Node) -> Bitmap:
        """Exact doc set for an answerable *node*, unclamped by scope."""
        if isinstance(node, Term):
            return self.index.docs_with_term(node.word)
        if isinstance(node, FieldTerm):
            return self.index.docs_with_term(f"{node.field}:{node.value}")
        if isinstance(node, ScopeTerm):
            return self.scope_docs(node.prefix)
        if isinstance(node, MatchAll):
            return self.index.all_docs()
        if isinstance(node, And):
            out = None
            children = list(node.children)
            if len(children) >= 2 and \
                    isinstance(children[0], ScopeTerm) and \
                    isinstance(children[1], Term):
                # the planner costed the path dimension cheapest, so
                # answer scope+term with one interleaved CAS probe —
                # both dimensions pruned together — instead of two
                # posting lookups and an intersection
                self._stats.add("cas_interleaved_probes")
                out = self.cas.probe(children[0].prefix, children[1].word)
                children = children[2:]
            for child in children:
                docs = self._postings_eval(child)
                out = docs if out is None else out & docs
                if not out:
                    break
            return out if out is not None else self.index.all_docs()
        if isinstance(node, Or):
            out = Bitmap()
            for child in node.children:
                out |= self._postings_eval(child)
            return out
        if isinstance(node, Not):
            return self.index.all_docs() - self._postings_eval(node.child)
        raise TypeError(f"not postings-answerable: {type(node).__name__}")

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """Evaluate a *content-only* query; returns matching doc ids.

        The query is first run through the planner (normalisation +
        selectivity-ordered conjunctions).  The block index then nominates
        candidate blocks, exactly as in Glimpse; queries the doc-level
        postings can answer exactly are answered from them with no loader
        fetch at all, and every other candidate document (restricted to
        *scope* when given) is fetched through the loader and verified by
        the agrep scanner, verdicts memoised per (doc, query) until the doc
        mutates.  ``MatchAll`` short-circuits without scanning.  Answers
        reflect index state — content written after the last (re)index is
        invisible until the next one, the paper's §2.4 lazy
        data-consistency policy.

        Results are cached per ``(query, scope)`` until a mutation whose
        block intersects the entry's candidate blocks — SFS's
        virtual-directory caching with block-exact invalidation, valid here
        because content changes only become visible at reindex time anyway
        (§2.4).
        """
        self._stats.add("searches")
        if scope is not None and not scope:
            return Bitmap()
        with self.tracer.span("cba.search") as span:
            universe = self.index.all_docs() if scope is None else scope
            query, answer = planner.settle(
                query, self.index,
                (self.index.lexicon.df, self._indexable, self.scope_count),
                universe, self._stats, span, self.tracer.span("cba.plan"))
            if answer is not None:
                return answer
            cache_key = None
            if self._cache_capacity > 0:
                cache_key = (query, None if scope is None else scope.to_bytes())
                cached = self._cache.get(cache_key)
                if cached is not None:
                    self._cache.move_to_end(cache_key)
                    self._stats.add("cache_hits")
                    span.set(mode="cached", hits=len(cached.result))
                    return cached.result.copy()
            blocks = self.index.candidate_blocks(query)
            self.metrics.observe("cba.candidate_blocks", len(blocks))
            result = self._verify(query, blocks, universe, span)
            if cache_key is not None:
                self._cache[cache_key] = _CacheEntry(result.copy(), blocks)
                if len(self._cache) > self._cache_capacity:
                    self._cache.popitem(last=False)
            return result

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        """Verify an externally planned *query* against externally
        nominated candidate *blocks* — the shard half of the cluster's
        scatter-gather protocol.

        The coordinator has already normalised and selectivity-ordered the
        query and evaluated candidate blocks *globally* (over the union of
        every shard's term→block postings), so this entry point must not
        replan and must not substitute this shard's own, narrower block
        candidacy: a term absent from this shard can still make one of its
        blocks a candidate through a collocated document on another shard,
        and the quirky stopword-region semantics depend on exactly that
        collocation.  Results are not cached here — the answer depends on
        *blocks*, which the coordinator owns.
        """
        self._stats.add("shard_searches")
        if scope is not None and not scope:
            return Bitmap()
        with self.tracer.span("cba.search_blocks") as span:
            universe = self.index.all_docs() if scope is None else scope
            if isinstance(query, MatchAll):
                span.set(mode="matchall", hits=len(universe))
                return universe.copy()
            return self._verify(query, blocks, universe, span)

    def _verify(self, query: Node, blocks: Bitmap, universe: Bitmap,
                span) -> Bitmap:
        """Second level of the two-level evaluation: the documents of the
        candidate *blocks*, clamped to *universe*, answered from postings
        when that is exact and by the scanner otherwise."""
        candidates = self.index.docs_in_blocks(blocks)
        candidates &= universe
        if self._postings_answerable(query):
            # answered exactly from the doc-level postings: no loader
            # fetch, no agrep scan, for any of the candidate docs
            with self.tracer.span("cba.postings"):
                result = self._postings_eval(query) & universe
            self._stats.add("postings_answers")
            self._stats.add("docs_scan_avoided", len(candidates))
            span.set(mode="postings")
        else:
            # every match lies under each required scope prefix, so prune
            # by them before any loader fetch; the scanner applies the
            # same registry-path predicate to whatever survives
            for prefix in required_scope_prefixes(query):
                if not candidates:
                    break
                candidates &= self.cas.docs_under(prefix)
            with self.tracer.span("cba.scan", candidates=len(candidates)):
                result = self._scan(query, candidates)
            span.set(mode="scan")
            self.metrics.observe("cba.scan_docs", len(candidates))
        span.set(blocks=len(blocks), candidates=len(candidates),
                 hits=len(result))
        return result

    def _scan(self, query: Node, candidates: Bitmap) -> Bitmap:
        """Verify *candidates* against *query*, memo-skipping unchanged docs."""
        needs_pairs = self.transducer is not None and has_field_terms(query)
        result = Bitmap()
        for doc_id in candidates:
            doc = self._docs.get(doc_id)
            if doc is None:
                continue
            hit = self._verify_memo.get(doc_id, {}).get(query)
            if hit is not None and hit[0] == doc.mtime:
                self._stats.add("docs_scan_avoided")
                verdict = hit[1]
            else:
                verdict = self._agrep_doc(doc, query, needs_pairs)
                self._memoize(doc_id, query, doc.mtime, verdict)
            if verdict:
                result.add(doc_id)
        return result

    def _agrep_doc(self, doc: Document, query: Node,
                   needs_pairs: bool) -> bool:
        """Fetch one document through the loader and verify it."""
        text = self.loader(doc.key)
        self._stats.add("docs_scanned")
        self._stats.add("bytes_scanned", len(text))
        pairs = (frozenset(self.transducer(doc.path, text))
                 if needs_pairs else agrep.NO_PAIRS)
        return agrep.matches(text, query, pairs, path=doc.path)

    def naive_search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """Scan every document in scope, bypassing the block index.

        Exists to cross-check the index (property tests) and to quantify what
        the two-level structure buys (ablation B).
        """
        universe = self.index.all_docs() if scope is None else scope
        needs_pairs = self.transducer is not None and has_field_terms(query)
        result = Bitmap()
        for doc_id in universe:
            doc = self._docs.get(doc_id)
            if doc is None:
                continue
            self._stats.add("naive_docs_scanned")
            text = self.loader(doc.key)
            pairs = (frozenset(self.transducer(doc.path, text))
                     if needs_pairs else agrep.NO_PAIRS)
            if agrep.matches(text, query, pairs, path=doc.path):
                result.add(doc_id)
        return result

    def extract(self, key: Hashable, query: Node) -> List[str]:
        """Match-carrying lines of one document (HAC's ``sact``)."""
        return agrep.matching_lines(self.loader(key), query)

    def estimate_docs(self, node: Node) -> int:
        """Planner selectivity estimate (upper bound on hits)."""
        return self.index.estimate_docs(node)

    # ------------------------------------------------------------------
    # serving tier: published snapshots and read replicas
    #
    # Queries that can tolerate as-of-last-publish answers read from an
    # attached ReadReplica instead of the live engine, so they never
    # trigger (or wait on) a maintenance drain.  The scheduler publishes
    # once per drained batch; ``publish`` with no replicas attached is a
    # bare version bump, so eager mode pays nothing for the machinery.
    # ------------------------------------------------------------------

    def _emit(self, kind: str, doc_id: int, key: Hashable, path: str,
              mtime: float, terms: Optional[Set[str]] = None,
              text: Optional[str] = None) -> None:
        if self.segments is not None:
            # the memtable subsumes the op log: replicas catch up from
            # sealed segments, persistence folds them, so every mutation
            # is noted regardless of whether a replica is attached
            self.segments.note(kind, doc_id, key, path, mtime, terms, text)
        elif self._replicas:
            self._pending_ops.append(
                IndexOp(kind, doc_id, key, path, mtime, terms, text))

    def publish(self) -> int:
        """Publish the current index state as the next snapshot version.

        Replicas that are not deliberately lagged replay the buffered op
        log and stamp the new version; the fully-applied prefix of the
        buffer is then truncated (lagged replicas pin their suffix).
        With the segmented store, the memtable is sealed (an exact
        snapshot cut) and replicas are handed the frozen segments
        appended since their cursor instead of replaying ops — the
        sealed log is truncated at the min cursor the same way.
        Returns the new version.
        """
        self._published_version += 1
        version = self._published_version
        if self._replicas and self.segments is not None:
            self.segments.seal()
            log = self.segments.sealed_log
            upto = len(log)
            for replica in self._replicas:
                if replica.lag > 0:
                    replica.lag -= 1
                    continue
                replica.apply_segments(log, upto, version)
            low = min(r.cursor for r in self._replicas)
            if low:
                self.segments.truncate_log(low)
                for replica in self._replicas:
                    replica.cursor -= low
        elif self.segments is not None:
            # nobody consumes the sealed log without replicas; drop it
            # (a later attach starts its cursor at the log tail anyway)
            self.segments.truncate_log(len(self.segments.sealed_log))
        elif self._replicas:
            upto = len(self._pending_ops)
            for replica in self._replicas:
                if replica.lag > 0:
                    replica.lag -= 1
                    continue
                replica.apply(self._pending_ops, upto, version)
            low = min(r.cursor for r in self._replicas)
            if low:
                del self._pending_ops[:low]
                for replica in self._replicas:
                    replica.cursor -= low
        self._stats.add("publishes")
        return version

    def attach_replica(self, replica_id: Optional[str] = None, lag: int = 0):
        """Attach (and hydrate) a new read replica.

        Hydration copies the engine's current state — between drains the
        engine is at rest at the last published version, so the replica
        starts consistent with it; its op-log cursor starts at the
        buffer's tail so the next publish replays only what it missed.
        """
        from repro.cba.snapshot import ReadReplica

        if replica_id is None:
            replica_id = f"r{len(self._replicas)}"
        replica = ReadReplica(replica_id, self)
        replica.hydrate(self, self._published_version)
        if self.segments is not None:
            # hydration copies live state, which includes the memtable's
            # unsealed rows — the replica is current past the whole log
            replica.cursor = len(self.segments.sealed_log)
        else:
            replica.cursor = len(self._pending_ops)
        replica.lag = lag
        self._replicas.append(replica)
        self._stats.add("replicas_attached")
        return replica

    @property
    def replicas(self) -> List:
        return list(self._replicas)

    def snapshot_view(self):
        """The freshest attached replica — the zero-barrier read path.

        Attaches a first replica lazily, so callers opt into snapshot
        serving simply by asking.  Ties between equally fresh replicas
        rotate round-robin (the freshness-aware routing half of the
        serving tier: a lagged replica is never chosen over a fresh one).
        """
        if not self._replicas:
            self.attach_replica()
        freshest = max(r.version for r in self._replicas)
        candidates = [r for r in self._replicas if r.version == freshest]
        self._route_rr += 1
        self._stats.add("snapshot_reads")
        return candidates[self._route_rr % len(candidates)]

    def snapshot_info(self) -> Dict[str, object]:
        """Published version, buffered op count, and per-replica state.

        Under the segmented store "pending" counts memtable rows plus
        sealed rows some replica has yet to apply, and the live frozen
        segment count is reported alongside.
        """
        info = {
            "version": self._published_version,
            "pending_ops": len(self._pending_ops),
            "replicas": [{"id": r.replica_id, "version": r.version,
                          "lag": r.lag} for r in self._replicas],
        }
        if self.segments is not None:
            info["pending_ops"] = (
                len(self.segments.memtable)
                + sum(len(s) for s in self.segments.sealed_log))
            info["segments"] = len(self.segments.frozen)
        return info

    def set_replica_lag(self, replica_id: str, publishes: int) -> None:
        """Make one replica skip the next *publishes* publishes."""
        for replica in self._replicas:
            if replica.replica_id == replica_id:
                replica.lag = publishes
                return
        raise KeyError(f"no such replica: {replica_id!r}")

    # ------------------------------------------------------------------
    # degradation surface (SearchBackend protocol)
    #
    # A monolithic engine has no shards, so these are the trivial
    # implementations: no owner, nothing ever missing, empty health.
    # Having them lets the consistency cascade and the shell run one
    # unconditional code path against either back-end.
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        return self.index.num_blocks

    @property
    def missing_shards(self) -> Set[str]:
        return set()

    def shard_of(self, key: Hashable) -> None:
        return None

    def reset_missing_shards(self) -> Set[str]:
        return set()

    def health(self) -> Dict[str, str]:
        return {}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        """Approximate index footprint, including the registry."""
        registry = sum(len(str(doc.path)) + 40 for doc in self._docs.values())
        return self.index.index_size_bytes() + registry

    # ------------------------------------------------------------------
    # persistence (Glimpse writes its index files to disk; so can we)
    # ------------------------------------------------------------------

    def to_obj(self):
        """Dump index + registry to plain primitives.

        Document keys are assumed to be ``(str, int)`` pairs — the
        ``(fsid, ino)`` keys HAC uses; generic callers with other key
        shapes should persist their own registry.
        """
        return {
            "index": self.index.to_obj(),
            "docs": [[doc.doc_id, list(doc.key), doc.path, doc.mtime,
                      doc.size] for doc in self._docs.values()],
            "next": self._next_doc_id,
        }

    @classmethod
    def from_obj(cls, obj, loader: Callable[[Hashable], str],
                 **config) -> "CBAEngine":
        """Rebuild an engine from :meth:`to_obj` output without re-reading
        or re-tokenising a single document; *config* is any constructor
        keyword but ``num_blocks``, which the persisted index fixes.  With
        ``segmented``, the fresh store is seeded with a base segment
        covering the restored documents, so later compactions and segment
        restores have an upsert row for every live document.  The CAS
        index is derived state (registry paths x index terms) and is
        rebuilt, not persisted."""
        engine = cls(loader, num_blocks=obj["index"]["num_blocks"], **config)
        engine._adopt(obj["index"],
                      (Document(doc_id, (raw_key[0], raw_key[1]), path, mtime,
                                size)
                       for doc_id, raw_key, path, mtime, size in obj["docs"]),
                      obj["next"])
        if engine.segments is not None:
            engine.segments.seed_base(engine.doc_rows())
        engine._stats.add("restored_docs", len(engine._docs))
        return engine

    def doc_rows(self) -> Dict[Hashable, "SegmentRow"]:
        """Synthesize upsert :class:`SegmentRow`\\ s for every live
        document from the index's removal map (term ids → strings via the
        lexicon) — no loader read, no tokenisation.  Text is omitted;
        rows built here seed base segments, never replica catch-up."""
        lexicon = self.index.lexicon
        rows: Dict[Hashable, SegmentRow] = {}
        for doc_id, doc in self._docs.items():
            terms = frozenset(lexicon.term(tid)
                              for tid in self.index._doc_terms.get(doc_id, ()))
            rows[doc.key] = SegmentRow("upsert", doc_id, doc.key, doc.path,
                                       doc.mtime, doc.size, terms, None)
        return rows

    @classmethod
    def from_segments(cls, store: SegmentStore,
                      loader: Callable[[Hashable], str],
                      next_doc_id: int = 0, **config) -> "CBAEngine":
        """Rebuild an engine by folding *store*'s frozen segments —
        reindex-as-merge.  Each document's newest upsert row carries the
        term set the original engine computed, so the rebuild is pure
        index insertion: zero loader reads, zero tokenisations (the
        counter Ablation N's merge-vs-rebuild guard compares).  *config*
        is any constructor keyword; ``segmented`` is implied."""
        engine = cls(loader, **dict(config, segmented=True))
        engine.segments = store
        rows = store.live_rows()
        for key, row in sorted(rows.items(), key=lambda kv: kv[1].doc_id):
            engine._upsert(row.doc_id, key, row.path, row.mtime, row.size,
                           row.terms)
        engine._burn_ids(next_doc_id)
        engine._stats.add("restored_docs", len(engine._docs))
        engine._stats.add("merged_rows", len(rows))
        return engine

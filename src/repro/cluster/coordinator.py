"""The scatter-gather coordinator over K partitioned Glimpse shards.

The cluster keeps the paper's CBA contract — the coordinator implements the
same engine protocol :class:`~repro.cba.engine.CBAEngine` exposes to HAC
(maintenance, ``search`` over a scope bitmap, ``extract``, persistence) —
while the index itself is partitioned across shards by rendezvous hashing
(:mod:`repro.cluster.shardmap`) and queried over simulated RPC
(:mod:`repro.cluster.shard`).

Bit-identical answers are the design invariant, and three decisions carry
it:

* **Global doc ids.**  The coordinator owns the authoritative registry and
  assigns every document a global id; shards index under that id with the
  same ``num_blocks``, so block assignment (``doc_id % num_blocks``) — and
  with it every candidate-block computation — matches the monolith exactly.

* **Plan once, globally.**  The query is planned at the coordinator with
  document frequencies *summed* across shards (df and corpus size are
  additive over a partition), so the planner's stable sort produces the
  identical planned AST.  Candidate blocks are then evaluated once over
  the *union* of per-term block postings gathered in a probe phase — the
  union must happen per term, because block candidacy does not distribute
  over ``And``/``Phrase`` at whole-query granularity — and the resulting
  global block set is shipped to every shard.  Candidacy only narrows
  the scan (a word the index does not hold nominates every block), so a
  verdict is the scanner's on one document's own text.

* **Gather by masked union.**  Per-shard result bitmaps are already in the
  global id space, so the merge is a union masked by each shard's member
  bitmap — the doc-id translation table degenerates to the identity, which
  is the point of global ids.

Degradation is partial, never fatal: a shard whose transport fails (with
:class:`~repro.errors.ShardUnavailable`, or whose breaker is open —
:class:`~repro.errors.CircuitOpen`; both are
:class:`~repro.errors.BackendUnavailable`) is skipped in both phases, its
id lands in :attr:`ShardedSearchCluster.missing_shards`, and the query
returns exactly the union of the surviving shards' answers.  HAC reads and
resets the flag around each semantic-directory re-evaluation and surfaces
it the way PR 2 surfaces ``degraded_remote``.
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Dict, Hashable, Iterable, List, NamedTuple,
                    Optional, Set, Tuple)

from repro.errors import BackendUnavailable, ShardUnavailable
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NOOP_SPAN, NULL_TRACER
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.cba import agrep, planner
from repro.cba.engine import CBAEngine, Document
from repro.cba.glimpse import DEFAULT_NUM_BLOCKS, eval_blocks, estimate_docs
from repro.cba.incremental import ReindexPlan, execute_reindex, plan_reindex
from repro.cba.queryast import (
    And,
    FieldTerm,
    Node,
    Not,
    Or,
    Phrase,
    ScopeTerm,
    Term,
)
from repro.cba.registry import DocRegistry
from repro.cba.segments import SegmentStore, fold
from repro.cba.tokenizer import DEFAULT_STOPWORDS, indexable
from repro.cba.transducers import Transducer
from repro.remote.rpc import CircuitBreaker, RpcTransport
from repro.cluster.shard import SearchShard, ShardProbe, probe_index
from repro.cluster.shardmap import Move, ShardMap

#: default shard breaker: trips fast (queries hit every shard, so a dead
#: one fails often) and cools down on the shared virtual clock
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 30.0


def _probe_terms(node: Node, out: Set[str],
                 indexable: Callable[[str], bool]) -> None:
    """Every string :func:`~repro.cba.glimpse.eval_blocks` may look up —
    exactly the postings the probe phase must fetch from each shard (a
    word the index does not hold has none)."""
    if isinstance(node, Term):
        if indexable(node.word):
            out.add(node.word)
    elif isinstance(node, FieldTerm):
        out.add(f"{node.field}:{node.value}")
    elif isinstance(node, Phrase):
        out.update(filter(indexable, node.words))
    elif isinstance(node, (And, Or)):
        for child in node.children:
            _probe_terms(child, out, indexable)
    elif isinstance(node, ScopeTerm):
        pass  # the path dimension has no term postings: blocks are
        # path-blind, so a scope nominates every occupied block and the
        # pruning happens per shard through each engine's CAS index
    elif isinstance(node, Not):
        _probe_terms(node.child, out, indexable)
    # Approx / MatchAll consult no term postings


class _SummedSelectivity:
    """Planner-facing statistics summed over the members of a partition.

    df, corpus size and scope counts are additive over a partition, so
    estimates — and the planner's stable sort — match the monolithic
    engine exactly.  *parts* yields the current members on each call: live
    shard engines for the cluster (a real deployment would ship these
    statistics on shard heartbeats; here the coordinator reads them
    directly, off the query path), the chosen replicas for a snapshot cut,
    which therefore plans exactly as the live path would have *at the
    publish point*.
    """

    def __init__(self, parts: Callable[[], Iterable]):
        self._parts = parts

    def df(self, term: str) -> int:
        return sum(part.index.lexicon.df(term) for part in self._parts())

    def scope_count(self, prefix: str) -> int:
        return sum(part.scope_count(prefix) for part in self._parts())

    def estimate_docs(self, node: Node) -> int:
        return estimate_docs(node, self.df,
                             sum(len(part) for part in self._parts()),
                             self.scope_count)


class _Part(NamedTuple):
    """One member of a partition of the corpus, as the scatter-gather
    algebra sees it: a live shard behind its transport, or one replica of
    a snapshot cut.  *probe* and *verify* may raise
    :class:`~repro.errors.BackendUnavailable`."""

    sid: str
    #: global doc ids living on this member
    members: Bitmap
    #: ``probe(terms) -> ShardProbe`` — phase 1
    probe: Callable[[List[str]], ShardProbe]
    #: ``verify(query, blocks, scope) -> Bitmap`` — phase 2
    verify: Callable[[Node, Bitmap, Optional[Bitmap]], Bitmap]


def _gather(query: Node, blocks: Bitmap, scope: Optional[Bitmap],
            parts: Iterable[_Part], missing: Set[str], stats, tracer,
            metrics,
            occupied_by: Optional[Dict[str, Bitmap]] = None) -> Bitmap:
    """Phase 2: every part verifies the planned *query* against the
    global candidate *blocks*; the merge is a union masked by membership.

    A part holding nothing in *scope* is skipped (no RPC); one that fails
    lands in *missing* and the union of the survivors stands.  With
    *occupied_by* (the probe phase's per-part occupied blocks) each
    part's share of the candidate blocks is counted.
    """
    result = Bitmap()
    for part in parts:
        part_scope = None if scope is None else scope & part.members
        if part_scope is not None and not part_scope:
            continue
        if occupied_by is not None:
            part_blocks = len(blocks & occupied_by[part.sid])
            stats.add(f"shard.{part.sid}.candidate_blocks", part_blocks)
            metrics.observe(f"cluster.shard.{part.sid}.candidate_blocks",
                            part_blocks)
        try:
            with tracer.span("cluster.scatter", shard=part.sid):
                hits = part.verify(query, blocks, part_scope)
        except BackendUnavailable:
            missing.add(part.sid)
            continue
        result |= hits & part.members
    return result


def _scatter_gather(query: Node, scope: Optional[Bitmap],
                    parts: Iterable[_Part], missing: Set[str],
                    indexable: Callable[[str], bool], stats,
                    tracer, metrics) -> Tuple[Bitmap, Bitmap]:
    """Both phases over *parts*; returns ``(hits, candidate blocks)``.

    Phase 1 (*probe*) gathers each reachable part's per-term block
    postings and occupied blocks, unions them per term — block candidacy
    does not distribute over ``And``/``Phrase`` at whole-query
    granularity — and evaluates the candidate-block algebra once,
    globally.  Phase 2 is :func:`_gather` over the parts that answered.
    Live shards and the replicas of a snapshot cut are two views of one
    partition, so this is the only copy of the algebra.
    """
    terms: Set[str] = set()
    _probe_terms(query, terms, indexable)
    wanted = sorted(terms)
    term_blocks: Dict[str, Bitmap] = {}
    occupied = Bitmap()
    occupied_by: Dict[str, Bitmap] = {}
    reachable: List[_Part] = []
    for part in parts:
        try:
            with tracer.span("cluster.probe", shard=part.sid):
                probe = part.probe(wanted)
        except BackendUnavailable:
            missing.add(part.sid)
            continue
        reachable.append(part)
        occupied |= probe.occupied
        occupied_by[part.sid] = probe.occupied
        for term, blocks in probe.term_blocks.items():
            seen = term_blocks.get(term)
            if seen is None:
                term_blocks[term] = blocks
            else:
                seen |= blocks

    def lookup(term: str) -> Bitmap:
        found = term_blocks.get(term)
        return found.copy() if found is not None else Bitmap()

    blocks = eval_blocks(query, lookup, occupied, indexable)
    metrics.observe("cluster.candidate_blocks", len(blocks))
    metrics.observe("cluster.fanout", len(reachable))
    return _gather(query, blocks, scope, reachable, missing, stats, tracer,
                   metrics, occupied_by), blocks


class ClusterSnapshotView:
    """A consistent cut across per-shard read replicas.

    Construction is the routing step: for every shard the freshest
    attached replica is chosen (the shard engine's own freshness-aware
    rotation), and the cut's ``version`` is the *minimum* replica version
    — with lockstep publishes and no injected lag every replica agrees,
    and ``skew`` is 0.  Queries then run the coordinator's two-phase
    algebra (:func:`_scatter_gather`) entirely in-process, with the chosen
    replicas as the partition members.  Same invariants (global ids,
    plan-once, union-per-term), same bits — as of the cut — with no RPC,
    no drain, and no shared engine state touched.
    """

    def __init__(self, cluster: "ShardedSearchCluster"):
        self._cluster = cluster
        self.replicas = {sid: shard.engine.snapshot_view()
                         for sid, shard in cluster.shards.items()}
        versions = [r.version for r in self.replicas.values()]
        self.version = min(versions) if versions else 0
        self.skew = (max(versions) - self.version) if versions else 0
        self.counters = cluster.counters
        self.index = _SummedSelectivity(self.replicas.values)

    def all_docs(self) -> Bitmap:
        out = Bitmap()
        for replica in self.replicas.values():
            out |= replica.all_docs()
        return out

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        for replica in self.replicas.values():
            doc = replica.doc_by_id(doc_id)
            if doc is not None:
                return doc
        return None

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        for replica in self.replicas.values():
            doc = replica.doc_by_key(key)
            if doc is not None:
                return doc
        return None

    def paths_of(self, hits: Bitmap) -> List[str]:
        """Paths of *hits* as of the cut, each replica answering for its
        own slice: grouped by shard, doc-id order within each."""
        return [path for replica in self.replicas.values()
                for path in replica.paths_of(hits & replica.all_docs())]

    def estimate_docs(self, node: Node) -> int:
        return self.index.estimate_docs(node)

    def __len__(self) -> int:
        return sum(len(replica) for replica in self.replicas.values())

    def _parts(self) -> List[_Part]:
        """The cut as a partition: each replica's own index, no transport."""
        return [_Part(sid, replica.all_docs(),
                      partial(probe_index, sid, replica.index),
                      replica.search_blocks)
                for sid, replica in self.replicas.items()]

    def search(self, query: Node, scope: Optional[Bitmap] = None) -> Bitmap:
        """The zero-barrier scatter-gather, replayed over the cut."""
        cluster = self._cluster
        cluster._stats.add("snapshot_searches")
        if scope is not None and not scope:
            return Bitmap()
        with cluster._tracer.span("cluster.snapshot_search",
                                  version=self.version,
                                  skew=self.skew) as span:
            query, answer = planner.settle(
                query, self.index,
                (self.index.df, cluster._indexable, self.index.scope_count),
                self.all_docs() if scope is None else scope,
                cluster._stats, span, NOOP_SPAN)
            if answer is not None:
                return answer
            # no transport in front of a replica: nothing can go missing,
            # and the cut stays out of the live path's spans and histograms
            result, blocks = _scatter_gather(
                query, scope, self._parts(), set(), cluster._indexable,
                cluster._stats, NULL_TRACER, NULL_METRICS)
            span.set(blocks=len(blocks), hits=len(result))
            return result

    def __repr__(self) -> str:
        return (f"ClusterSnapshotView(version={self.version}, "
                f"skew={self.skew}, docs={len(self)})")


class RebalancePlan(NamedTuple):
    """The deterministic work a shard-set change implies."""

    #: documents changing owners, in global-doc-id order
    moves: List[Move]
    #: per affected shard, the §2.4 reindex plan executed on it
    shard_plans: Dict[str, ReindexPlan]

    @property
    def docs_moved(self) -> int:
        return len(self.moves)


class ShardedSearchCluster(DocRegistry):
    """K :class:`CBAEngine` shards behind one engine-protocol facade.

    Drop-in for a single engine everywhere HAC talks to one: semantic
    directories, the consistency cascade, ``ssync``/reindex, persistence.
    """

    def __init__(self, loader: Callable[[Hashable], str],
                 shard_ids: Iterable[str] = ("shard0", "shard1", "shard2"),
                 *,
                 num_blocks: int = DEFAULT_NUM_BLOCKS,
                 min_term_length: int = 2,
                 stopwords: Optional[Set[str]] = None,
                 transducer: Optional[Transducer] = None,
                 counters: Optional[Counters] = None,
                 clock: Optional[VirtualClock] = None,
                 latency: float = 0.05,
                 seed: int = 0,
                 breaker_factory: Optional[
                     Callable[[str], CircuitBreaker]] = None,
                 replicas_per_shard: int = 1,
                 segmented: bool = False):
        self.loader = loader
        self.counters = counters if counters is not None else Counters()
        self._stats = self.counters.scoped("cluster")
        self.clock = clock if clock is not None else VirtualClock()
        self.num_blocks = num_blocks
        self.min_term_length = min_term_length
        self.stopwords = DEFAULT_STOPWORDS if stopwords is None else stopwords
        self._indexable = partial(indexable, min_length=min_term_length,
                                  stopwords=self.stopwords)
        self.transducer = transducer
        #: shard engines keep segmented (memtable + frozen segment)
        #: storage, so per-shard publishes hand replicas segment lists
        self.segmented = segmented
        self.latency = latency
        self.seed = seed
        self._breaker_factory = breaker_factory
        self._tracer = NULL_TRACER
        self._metrics = NULL_METRICS
        #: serving tier: cluster-wide published version (shard engines are
        #: published in lockstep, seeded at build so versions agree) and
        #: how many read replicas each shard attaches on first snapshot use
        self._published_version = 0
        self.replicas_per_shard = replicas_per_shard
        self.shardmap = ShardMap(shard_ids)
        self.shards: Dict[str, SearchShard] = {
            sid: self._build_shard(sid) for sid in self.shardmap.shard_ids}
        #: planner selectivity source (same attribute name as the engine's
        #: block index, so ``evaluator`` and ``planner`` code is agnostic)
        self.index = _SummedSelectivity(
            lambda: (shard.engine for shard in self.shards.values()))
        self._init_registry()
        self._owners: Dict[int, str] = {}
        self._members: Dict[str, Bitmap] = {
            sid: Bitmap() for sid in self.shardmap.shard_ids}
        self._all = Bitmap()
        self._dirty = Bitmap()
        #: shards skipped since the last :meth:`reset_missing_shards` —
        #: the degradation flag HAC turns into per-directory staleness
        self.missing_shards: Set[str] = set()

    def _shard_config(self) -> Dict[str, object]:
        """Constructor keywords every shard engine shares."""
        return dict(min_term_length=self.min_term_length,
                    stopwords=self.stopwords, transducer=self.transducer,
                    cache_size=0,  # answers depend on shipped blocks
                    counters=self.counters, segmented=self.segmented)

    def _build_shard(self, shard_id: str) -> SearchShard:
        engine = CBAEngine(self.loader, num_blocks=self.num_blocks,
                           **self._shard_config())
        engine.tracer = self._tracer
        engine.metrics = self._metrics
        # a shard added mid-life starts at the cluster's published version,
        # so lockstep publishes keep every shard's version equal
        engine._published_version = self._published_version
        breaker = (self._breaker_factory(shard_id) if self._breaker_factory
                   else CircuitBreaker(failure_threshold=BREAKER_THRESHOLD,
                                       cooldown=BREAKER_COOLDOWN,
                                       counters=self.counters,
                                       name=f"shard.{shard_id}"))
        transport = RpcTransport(name=f"shard.{shard_id}", clock=self.clock,
                                 latency=self.latency, seed=self.seed,
                                 counters=self.counters, breaker=breaker,
                                 tracer=self._tracer,
                                 error_cls=ShardUnavailable)
        return SearchShard(shard_id, engine, transport)

    # ------------------------------------------------------------------
    # observability plumbing (HacFileSystem assigns these attributes)
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value
        for shard in self.shards.values():
            shard.engine.tracer = value
            shard.transport.tracer = value
            if shard.transport.breaker is not None:
                shard.transport.breaker.tracer = value

    @property
    def metrics(self):
        return self._metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self._metrics = value
        for shard in self.shards.values():
            shard.engine.metrics = value

    # ------------------------------------------------------------------
    # registry (authoritative; shard registries are routing copies —
    # state and accessors: DocRegistry)
    # ------------------------------------------------------------------

    def all_docs(self) -> Bitmap:
        return self._all.copy()

    def shard_of(self, key: Hashable) -> str:
        """Current owner of *key* (placement for unindexed keys)."""
        doc_id = self._by_key.get(key)
        if doc_id is not None:
            return self._owners[doc_id]
        return self.shardmap.owner(key)

    def members(self, shard_id: str) -> Bitmap:
        """Global doc ids living on *shard_id*."""
        return self._members[shard_id].copy()

    # ------------------------------------------------------------------
    # maintenance — applied synchronously; only queries cross the network
    # (a dead shard is a partition in front of an index that stays
    # current, so revival needs no resync — see repro.cluster.shard)
    # ------------------------------------------------------------------

    def index_document(self, key: Hashable, path: str, mtime: float,
                       text: Optional[str] = None,
                       doc_id: Optional[int] = None) -> int:
        doc_id = self._claim_doc_id(key, doc_id)
        if text is None:
            text = self.loader(key)
        owner = self.shardmap.owner(key)
        self.shards[owner].engine.index_document(key, path, mtime, text=text,
                                                 doc_id=doc_id)
        self._put(doc_id, key, path, mtime, len(text))
        self._owners[doc_id] = owner
        self._members[owner].add(doc_id)
        self._all.add(doc_id)
        self._dirty.add(doc_id)
        self._stats.add("indexed")
        return doc_id

    def remove_document(self, key: Hashable) -> int:
        doc_id = self._indexed_id(key)
        owner = self._owners.pop(doc_id)
        self.shards[owner].engine.remove_document(key)
        self._drop(doc_id)
        self._members[owner].discard(doc_id)
        self._all.discard(doc_id)
        self._dirty.add(doc_id)
        self._stats.add("removed")
        return doc_id

    def update_document(self, key: Hashable, path: str, mtime: float,
                        text: Optional[str] = None) -> int:
        doc_id = self._indexed_id(key)
        if text is None:
            text = self.loader(key)
        self.shards[self._owners[doc_id]].engine.update_document(
            key, path, mtime, text=text)
        self._put(doc_id, key, path, mtime, len(text))
        self._dirty.add(doc_id)
        self._stats.add("updated")
        return doc_id

    def rename_document(self, key: Hashable, new_path: str) -> None:
        doc_id = self._indexed_id(key)
        self.shards[self._owners[doc_id]].engine.rename_document(key, new_path)
        self._move(doc_id, new_path)

    def rebase_paths(self, old_prefix: str, new_prefix: str) -> int:
        """Directory rename: each shard re-keys its own CAS partitions and
        rows, and the authoritative registry rewrites exactly the global
        ids the shards report as moved.  Maintenance-side like all
        mutations — no RPC.  Returns documents moved."""
        old = pathutil.normalize(old_prefix)
        new = pathutil.normalize(new_prefix)
        moved = [doc.doc_id for shard in self.shards.values()
                 for doc in shard.engine._rebase(old, new)]
        self._rebase_rows(moved, old, new)
        if moved:
            self._stats.add("paths_rebased", len(moved))
        return len(moved)

    # ------------------------------------------------------------------
    # the path dimension (per-shard CAS indexes, merged by global ids)
    # ------------------------------------------------------------------

    def scope_docs(self, prefix: str) -> Bitmap:
        """Global ids registered under *prefix*: union of per-shard
        probes (the coordinator holds no CAS index of its own; shard
        answers are already global doc ids, so the merge is exact).  Read
        directly off the shard engines like the planner
        statistics — scope resolution is maintenance-side, not a query
        RPC, so it stays whole while shards are partitioned off."""
        out = Bitmap()
        for shard in self.shards.values():
            out |= shard.engine.scope_docs(prefix)
        return out

    def scope_count(self, prefix: str) -> int:
        """Documents under *prefix*, summed across shards (additive over
        a partition, exactly like document frequency)."""
        return self.index.scope_count(prefix)

    def reindex(self, current: Iterable[Tuple[Hashable, str, float]],
                previous: Optional[Dict[Hashable, float]] = None) -> ReindexPlan:
        """Same contract as :meth:`CBAEngine.reindex`, routed per owner."""
        return execute_reindex(self, current, previous)

    def dirty_docs(self) -> Bitmap:
        return self._dirty.copy()

    def clear_query_cache(self) -> None:
        for shard in self.shards.values():
            shard.engine.clear_query_cache()

    # ------------------------------------------------------------------
    # the scatter-gather query path
    # ------------------------------------------------------------------

    def search(self, query: Node, scope: Optional[Bitmap] = None,
               cache: bool = True) -> Bitmap:
        """Two-phase distributed evaluation; bit-identical to the monolith
        (which alone caches answers: *cache* is moot here).

        Plans once with summed statistics, then runs
        :func:`_scatter_gather` over the live shards.  A planned ``MatchAll`` short-circuits from the coordinator's own
        registry without touching the network — which also means it stays
        whole while shards are down, exactly like the monolith's
        registry-only answer.

        Shards unreachable in either phase are recorded in
        :attr:`missing_shards` and the result is the union of the
        survivors' answers — partial, never an exception.
        """
        self._stats.add("searches")
        if scope is not None and not scope:
            return Bitmap()
        with self._tracer.span("cluster.search") as span:
            query, answer = planner.settle(
                query, self.index,
                (self.index.df, self._indexable, self.index.scope_count),
                self._all if scope is None else scope,
                self._stats, span, self._tracer.span("cluster.plan"))
            if answer is not None:
                return answer
            missing: Set[str] = set()
            result, blocks = _scatter_gather(
                query, scope, self._parts(), missing, self._indexable,
                self._stats, self._tracer, self._metrics)
            self._note_missing(missing)
            span.set(blocks=len(blocks), hits=len(result),
                     shards=len(self.shards), missing=sorted(missing))
            return result

    def search_blocks(self, query: Node, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        """Phase 2 only: verify *query* against caller-nominated candidate
        *blocks* (the :class:`~repro.cba.backend.SearchBackend` entry
        point; :meth:`search` probes for its own candidates first).
        Unreachable shards degrade to partial results, like any scatter."""
        self._stats.add("block_searches")
        if scope is not None and not scope:
            return Bitmap()
        with self._tracer.span("cluster.search_blocks") as span:
            missing: Set[str] = set()
            result = _gather(query, blocks, scope, self._parts(), missing,
                             self._stats, self._tracer, self._metrics)
            self._note_missing(missing)
            span.set(blocks=len(blocks), hits=len(result),
                     missing=sorted(missing))
            return result

    def _parts(self) -> List[_Part]:
        """The live partition: each shard behind its transport."""
        return [_Part(sid, self._members[sid], shard.probe, shard.search)
                for sid, shard in self.shards.items()]

    def _note_missing(self, missing: Set[str]) -> None:
        if missing:
            self.missing_shards |= missing
            self._stats.add("partial_results")

    def reset_missing_shards(self) -> Set[str]:
        """Clear and return the accumulated degradation flag (callers
        bracket a unit of work — e.g. one semantic-dir re-evaluation —
        with reset-before / read-after)."""
        missing, self.missing_shards = self.missing_shards, set()
        return missing

    def estimate_docs(self, node: Node) -> int:
        """Planner selectivity over the summed per-shard statistics."""
        return self.index.estimate_docs(node)

    def extract(self, key: Hashable, query: Node) -> List[str]:
        return agrep.matching_lines(self.loader(key), query)

    # ------------------------------------------------------------------
    # serving tier: lockstep shard publishes and the consistent-cut view
    # ------------------------------------------------------------------

    def publish(self) -> int:
        """Publish every shard engine in lockstep; returns the new
        cluster-wide version.

        Maintenance is coordinator-side and synchronous, so at publish
        time every shard engine is at rest at the same logical point —
        one version bump per shard yields per-shard versions that always
        agree with the cluster's (replica versions can trail only through
        deliberate lag injection).
        """
        with self._tracer.span("cluster.publish") as span:
            self._published_version += 1
            for shard in self.shards.values():
                shard.engine.publish()
            span.set(version=self._published_version,
                     shards=len(self.shards))
        self._stats.add("publishes")
        return self._published_version

    def _ensure_replicas(self) -> None:
        for sid, shard in self.shards.items():
            engine = shard.engine
            while len(engine.replicas) < self.replicas_per_shard:
                engine.attach_replica(f"{sid}:r{len(engine.replicas)}")

    def snapshot_view(self) -> ClusterSnapshotView:
        """A consistent cut over the freshest replica of every shard."""
        self._ensure_replicas()
        self._stats.add("snapshot_reads")
        return ClusterSnapshotView(self)

    def snapshot_info(self) -> Dict[str, object]:
        """Cluster version, buffered op counts, and the flat replica list
        (replica ids are ``<shard>:<replica>``)."""
        replicas: List[Dict[str, object]] = []
        shard_versions: Dict[str, int] = {}
        pending = 0
        for sid, shard in self.shards.items():
            info = shard.engine.snapshot_info()
            shard_versions[sid] = info["version"]
            pending += info["pending_ops"]
            replicas.extend(info["replicas"])
        return {
            "version": self._published_version,
            "pending_ops": pending,
            "replicas": replicas,
            "shards": shard_versions,
        }

    def set_replica_lag(self, shard_id: str, publishes: int,
                        replica_id: Optional[str] = None) -> None:
        """Lag one shard's replicas (or one specific replica) by
        *publishes* publishes — the staleness-injection control."""
        engine = self.shards[shard_id].engine
        if replica_id is not None:
            engine.set_replica_lag(replica_id, publishes)
            return
        for replica in engine.replicas:
            replica.lag = publishes

    # ------------------------------------------------------------------
    # fault controls and health (tests, shell, benchmarks)
    # ------------------------------------------------------------------

    def kill_shard(self, shard_id: str) -> None:
        """Partition *shard_id* off: every RPC to it fails until revival.
        Its index silently stays current (maintenance is coordinator-side),
        so revival restores whole answers with no resync."""
        transport = self.shards[shard_id].transport
        transport.fail_on = None
        transport.failure_rate = 1.0
        self._stats.add("kills")

    def revive_shard(self, shard_id: str) -> None:
        transport = self.shards[shard_id].transport
        transport.fail_on = None
        transport.failure_rate = 0.0
        if transport.breaker is not None:
            transport.breaker.record_success()
        self._stats.add("revivals")

    def breakers(self) -> Dict[str, CircuitBreaker]:
        """Shard id → its transport's breaker (only monitored shards)."""
        return {sid: shard.transport.breaker
                for sid, shard in self.shards.items()
                if shard.transport.breaker is not None}

    def health(self) -> Dict[str, str]:
        """Shard id → ``down`` / breaker state / ``unmonitored``."""
        out: Dict[str, str] = {}
        for sid, shard in self.shards.items():
            transport = shard.transport
            if transport.failure_rate >= 1.0:
                out[sid] = "down"
            elif transport.breaker is not None:
                out[sid] = transport.breaker.state
            else:
                out[sid] = "unmonitored"
        return out

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def add_shard(self, shard_id: str) -> RebalancePlan:
        new_map = self.shardmap.with_shard(shard_id)
        self.shards[shard_id] = self._build_shard(shard_id)
        self._members[shard_id] = Bitmap()
        return self._rebalance(new_map)

    def remove_shard(self, shard_id: str) -> RebalancePlan:
        new_map = self.shardmap.without_shard(shard_id)
        plan = self._rebalance(new_map)  # drains the doomed shard
        del self.shards[shard_id]
        del self._members[shard_id]
        self.missing_shards.discard(shard_id)
        return plan

    def _rebalance(self, new_map: ShardMap) -> RebalancePlan:
        """Move exactly the documents whose rendezvous owner changed.

        The moved-doc list is deterministic (global-doc-id order) and the
        per-shard work is expressed as §2.4 reindex plans — each source
        shard sees its outgoing documents as removals, each destination
        its incoming ones as additions — so the fan-out reuses the same
        incremental machinery as any ``ssync``.  Moves re-read document
        text through the loader, like any reindex addition.
        """
        with self._tracer.span("cluster.rebalance") as span:
            keys = [doc.key for _doc_id, doc in sorted(self._docs.items())]
            moves = self.shardmap.moves(new_map, keys)
            outgoing: Dict[str, Dict[Hashable, float]] = {}
            incoming: Dict[str, Dict[Hashable, float]] = {}
            for move in moves:
                mtime = self.doc_by_key(move.key).mtime
                outgoing.setdefault(move.source, {})[move.key] = mtime
                incoming.setdefault(move.dest, {})[move.key] = mtime
            shard_plans = {
                sid: plan_reindex(outgoing.get(sid, {}), incoming.get(sid, {}))
                for sid in sorted(set(outgoing) | set(incoming))}
            for move in moves:
                doc = self.doc_by_key(move.key)
                doc_id = doc.doc_id
                text = self.loader(move.key)
                self.shards[move.source].engine.remove_document(move.key)
                self.shards[move.dest].engine.index_document(
                    move.key, doc.path, doc.mtime, text=text, doc_id=doc_id)
                self._owners[doc_id] = move.dest
                self._members[move.source].discard(doc_id)
                self._members[move.dest].add(doc_id)
            self.shardmap = new_map
            self._stats.add("rebalances")
            self._stats.add("docs_moved", len(moves))
            span.set(moves=len(moves), shards=len(new_map))
            plan = RebalancePlan(moves=moves, shard_plans=shard_plans)
        # topology changes republish so attached replicas pick up the
        # cross-shard moves as one atomic version step
        self.publish()
        return plan

    # ------------------------------------------------------------------
    # reporting and persistence
    # ------------------------------------------------------------------

    def index_size_bytes(self) -> int:
        """Shard index footprints plus the coordinator's routing registry
        (shard-side registry copies are counted by the shards)."""
        registry = sum(len(str(doc.path)) + 48 for doc in self._docs.values())
        return registry + sum(shard.engine.index_size_bytes()
                              for shard in self.shards.values())

    def to_obj(self):
        """Shards + registry as plain primitives (:meth:`CBAEngine.to_obj`);
        nothing persists it: a saved index is segments."""
        return {
            "num_blocks": self.num_blocks,
            "shard_ids": list(self.shardmap.shard_ids),
            "shards": {sid: shard.engine.to_obj()
                       for sid, shard in self.shards.items()},
            "docs": [[doc.doc_id, list(doc.key), doc.path, doc.mtime,
                      doc.size, self._owners[doc.doc_id]]
                     for doc in self._docs.values()],
            "next": self._next_doc_id,
        }

    @classmethod
    def from_obj(cls, obj, loader: Callable[[Hashable], str],
                 **config) -> "ShardedSearchCluster":
        """Inverse of :meth:`to_obj`, reading and tokenising nothing;
        *config* is any constructor keyword but ``num_blocks`` and
        ``shard_ids``, which the dump fixes."""
        cluster = cls(loader, obj["shard_ids"],
                      num_blocks=obj.get("num_blocks", DEFAULT_NUM_BLOCKS),
                      **config)
        for sid, shard in cluster.shards.items():
            shard.engine = CBAEngine.from_obj(obj["shards"][sid], loader,
                                              **cluster._shard_config())
        for doc_id, raw_key, path, mtime, size, owner in obj["docs"]:
            key = (raw_key[0], raw_key[1])
            cluster._put(doc_id, key, path, mtime, size)
            cluster._owners[doc_id] = owner
            cluster._members[owner].add(doc_id)
            cluster._all.add(doc_id)
        cluster._burn_ids(obj["next"])
        cluster._stats.add("restored_docs", len(cluster._docs))
        return cluster

    @classmethod
    def from_segments(cls, store: SegmentStore,
                      loader: Callable[[Hashable], str],
                      next_doc_id: int = 0,
                      **config) -> "ShardedSearchCluster":
        """Install each shard engine from its shard-map entry's segments
        (:meth:`CBAEngine._install`); doc ids are global, so the registry
        is the shards' rows and a row's owner the shard that holds it."""
        segs = {seg.seg_id: seg for seg in store.frozen}
        cluster = cls(loader, **dict(config, shard_ids=list(store.shards)))
        for sid, ids in store.shards.items():
            seg = fold([segs[seg_id] for seg_id in ids])
            cluster.shards[sid].engine._install(seg, next_doc_id)
            cluster._owners.update(dict.fromkeys(seg.doc_ids, sid))
            cluster._members[sid] = Bitmap(seg.doc_ids)
            cluster._all |= cluster._members[sid]
        cluster._load(sorted(doc for shard in cluster.shards.values()
                             for doc in shard.engine._docs.values()),
                      next_doc_id)
        return cluster

    def __repr__(self) -> str:
        return (f"ShardedSearchCluster(shards={list(self.shardmap.shard_ids)}, "
                f"docs={len(self._docs)})")

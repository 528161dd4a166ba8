"""Immutable published snapshots: the read side of the serving tier.

PR 5's batched maintenance keeps queries consistent with a *pre-query
barrier* — every read first drains the pending batch.  That couples read
latency to write volume: at mail-arrival rate, a query's p99 is the cost
of whoever's batch it happened to flush.  This module decouples them with
the classic publish discipline (compare the index-reconstruction designs
in PAPERS.md): the primary engine keeps mutating, and queries are served
from an immutable **published snapshot** — the engine state as of the last
:meth:`~repro.cba.engine.CBAEngine.publish`, which the scheduler calls
once per drained batch.

A snapshot is materialised as a :class:`ReadReplica`: a full private
:class:`~repro.cba.engine.CBAEngine` (same block count, same tokeniser)
over a replica-local text store, so snapshot reads touch **no shared
state at all** — no scheduler drain, no live-tree loader, no device
charges against the primary.  Replicas catch up from the primary's
log — :class:`~repro.cba.engine.IndexOp` replay, or, under the segmented
store, publication cuts: the rows noted between two publishes,
coalesced per key (:meth:`~repro.cba.segments.SegmentStore.cut`).
Either way:

* **No re-tokenisation.**  Ops ship the term set the primary computed, so
  replica catch-up never runs the tokenizer (``engine.tokenisations``
  stays a pure write-side cost, which the Ablation K guards rely on).
* **Frozen text.**  Ops ship the document text the primary indexed; the
  replica engine's loader reads it from the replica's own dict.  A scan
  on the snapshot path therefore verifies against the text *as of the
  publish*, even while the live file is being rewritten.
* **Ops are ground truth.**  The log records mutations the primary
  *actually performed* (emitted after the index change lands), so replay
  converges even across a failed-and-retried batch: the scheduler's
  reconciliation re-derives idempotent ops, and the replica applies the
  same sequence the primary did.

Replicas attach lazily: an engine with no replicas buffers nothing and
:meth:`~repro.cba.engine.CBAEngine.publish` is a version bump — eager
mode publishes on every drain without paying anything for it.  Nor does
a replica change persistence: a cut never seals, so the segment records
a drain writes are the same with or without one.  A replica's ``lag``
knob makes it skip publishes (the freshness-injection control the
cluster's routing tests use); a lagged replica's cursor into the shared
log is preserved, so catch-up applies everything it missed.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.util.bitmap import Bitmap
from repro.util.stats import Counters
from repro.cba.engine import CBAEngine, Document, IndexOp

__all__ = ["IndexOp", "ReadReplica"]


class ReadReplica:
    """One immutable-until-published serving copy of a primary engine.

    The replica owns a private :class:`CBAEngine` (and private
    :class:`Counters` — replica reads never pollute the primary's
    deterministic write-side counters) whose loader resolves document
    text from :attr:`_texts`, the replica-local store frozen at each
    publish.  Query callers treat the replica like an engine: it forwards
    the read surface (``search``/``search_blocks``/``all_docs``/
    ``doc_by_id``/``estimate_docs``) plus the attributes the evaluator
    and planner touch (``index``, ``counters``).
    """

    def __init__(self, replica_id: str, primary: CBAEngine):
        self.replica_id = replica_id
        self.counters = Counters()
        self._texts: Dict[Hashable, str] = {}
        self.engine = CBAEngine(loader=self._load,
                                num_blocks=primary.num_blocks,
                                min_term_length=primary.min_term_length,
                                stopwords=primary.stopwords,
                                transducer=primary.transducer,
                                cache_size=0,  # snapshots are short-lived
                                counters=self.counters)
        #: last published version this replica has applied
        self.version = 0
        #: index into the primary's shared log (entries before it are applied)
        self.cursor = 0
        #: publishes to skip (staleness injection; catch-up replays them)
        self.lag = 0
        self._stats = self.counters.scoped("replica")

    # ------------------------------------------------------------------
    # hydration and catch-up (called by the primary's publish machinery)
    # ------------------------------------------------------------------

    def _load(self, key: Hashable) -> str:
        return self._texts.get(key, "")

    def hydrate(self, primary: CBAEngine, version: int) -> None:
        """Bootstrap from the primary's current state.

        The index travels as its ``to_obj`` primitives and the registry
        dicts are copied directly (``Document`` rows are immutable), so
        hydration never re-tokenises; text is read once through the
        primary's loader — the only moment a replica touches the live
        tree, and the same text an eager scan would have read right now.
        """
        engine = self.engine
        engine._adopt(primary.index.to_obj(), primary._docs.values(),
                      primary._next_doc_id)
        self._texts = {doc.key: primary.loader(doc.key)
                       for doc in primary._docs.values()}
        self.version = version
        self._stats.add("hydrations")
        self._stats.add("hydrated_docs", len(engine._docs))

    def apply(self, ops: List[IndexOp], upto: int, version: int) -> int:
        """Replay ``ops[self.cursor:upto]`` and stamp *version*.

        Replay is direct index manipulation — shipped term sets, no
        tokenizer, no loader — through the same engine funnels the
        primary's mutation methods use (including the block-exact
        cache/memo invalidation).  Returns ops applied.
        """
        engine = self.engine
        applied = 0
        for op in ops[self.cursor:upto]:
            if op.kind in ("index", "update"):
                text = op.text or ""
                engine._upsert(op.doc_id, op.key, op.path, op.mtime,
                               len(text), op.terms)
                self._texts[op.key] = text
            elif op.kind == "remove":
                engine._withdraw(op.doc_id)
                self._texts.pop(op.key, None)
            elif op.kind == "rename":
                if op.doc_id in engine._docs:
                    engine._repath(op.doc_id, op.path)
            else:  # pragma: no cover - emission is closed over four kinds
                raise ValueError(f"unknown index op kind: {op.kind!r}")
            applied += 1
        self.cursor = upto
        self.version = version
        self._stats.add("ops_applied", applied)
        return applied

    def apply_segments(self, log, upto: int, version: int) -> int:
        """Catch up from ``log[self.cursor:upto]`` publication cuts.

        The segmented handoff: instead of replaying per-op deltas, the
        cuts' rows are folded newest-wins per document key and only
        each document's *final* state is applied — an index state is a
        pure function of the current per-document term sets, so the
        coalesced apply converges to exactly what replay would have
        built, in one index mutation per touched document.  Returns rows
        applied.
        """
        from repro.cba.segments import _coalesce

        engine = self.engine
        final = {}
        for seg in log[self.cursor:upto]:
            for row in seg.rows:
                final[row.key] = _coalesce(final.get(row.key), row)
        for key, row in final.items():
            old_id = engine._by_key.get(key)
            if row.kind == "upsert":
                if old_id is not None and old_id != row.doc_id:
                    # tombstone + revival coalesced across the window:
                    # retire the old incarnation before adding the new
                    engine._withdraw(old_id)
                engine._upsert(row.doc_id, key, row.path, row.mtime,
                               row.size, row.terms)
                self._texts[key] = row.text or ""
            elif row.kind == "remove":
                if old_id is not None:
                    engine._withdraw(old_id)
                self._texts.pop(key, None)
            elif old_id is not None:
                # a rename whose upsert predates this window
                engine._repath(old_id, row.path)
        self.cursor = upto
        self.version = version
        self._stats.add("segment_rows_applied", len(final))
        return len(final)

    # ------------------------------------------------------------------
    # the read surface (what the evaluator / shell / bench touch)
    # ------------------------------------------------------------------

    @property
    def index(self):
        return self.engine.index

    def search(self, query, scope: Optional[Bitmap] = None) -> Bitmap:
        return self.engine.search(query, scope)

    def search_blocks(self, query, blocks: Bitmap,
                      scope: Optional[Bitmap] = None) -> Bitmap:
        return self.engine.search_blocks(query, blocks, scope)

    def estimate_docs(self, node) -> int:
        return self.engine.estimate_docs(node)

    def scope_docs(self, prefix: str) -> Bitmap:
        return self.engine.scope_docs(prefix)

    def scope_count(self, prefix: str) -> int:
        return self.engine.scope_count(prefix)

    def all_docs(self) -> Bitmap:
        return self.engine.all_docs()

    def doc_by_id(self, doc_id: int) -> Optional[Document]:
        return self.engine.doc_by_id(doc_id)

    def paths_of(self, hits: Bitmap) -> List[str]:
        return self.engine.paths_of(hits)

    def doc_by_key(self, key: Hashable) -> Optional[Document]:
        return self.engine.doc_by_key(key)

    def __len__(self) -> int:
        return len(self.engine)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.engine

    def __repr__(self) -> str:
        return (f"ReadReplica({self.replica_id!r}, version={self.version}, "
                f"docs={len(self.engine)})")

"""One search shard: a private Glimpse engine behind a simulated network.

A shard is exactly the paper's CBA substrate — a :class:`CBAEngine` over a
slice of the corpus — reachable only through an :class:`RpcTransport`, so
every scatter-gather query charges latency, counts traffic, and can be
fault-injected per shard (deterministic schedules, rate-based kills, retry
policies, circuit breakers: the PR-2 machinery, now load-bearing).

Only the *query path* crosses the simulated network (``probe`` for the
per-term block postings, ``search`` for block-verified answers).  Index
maintenance is applied synchronously by the coordinator, which owns the
authoritative document registry: a "dead" shard models a partition between
the coordinator and an intact remote index, so queries degrade to partial
results while the shard's index silently stays current — and answers are
whole again the moment the link heals, with no resync step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.util.bitmap import Bitmap
from repro.cba.engine import CBAEngine
from repro.cba.queryast import Node
from repro.remote.rpc import RpcTransport


class ShardProbe(NamedTuple):
    """Phase-1 scatter answer: this shard's slice of the block index."""

    shard_id: str
    #: term → bitmap of *global* block ids whose members carry the term
    term_blocks: Dict[str, Bitmap]
    #: occupied global block ids on this shard
    occupied: Bitmap


def probe_index(shard_id: str, index, terms: List[str]) -> ShardProbe:
    """Phase-1 answer read off one block *index* (a live shard engine's,
    or a snapshot replica's): per-term block postings plus occupied blocks."""
    return ShardProbe(
        shard_id=shard_id,
        term_blocks={t: index.blocks_with_term(t) for t in terms},
        occupied=index.occupied_blocks())


class SearchShard:
    """A :class:`CBAEngine` plus the transport guarding its query path."""

    def __init__(self, shard_id: str, engine: CBAEngine,
                 transport: RpcTransport):
        self.shard_id = shard_id
        self.engine = engine
        self.transport = transport

    # -- the scatter-gather protocol (goes over "the network") ----------------

    def probe(self, terms: List[str]) -> ShardProbe:
        """Phase 1: per-term block postings plus the occupied block set.

        The coordinator unions these across shards and evaluates candidate
        blocks *once*, globally — the union must happen per term, because
        block candidacy does not distribute over ``And``/``Phrase`` at
        whole-query granularity.
        """
        return self.transport.call(
            "probe",
            lambda: probe_index(self.shard_id, self.engine.index, terms))

    def search(self, query: Node, blocks: Bitmap,
               scope: Optional[Bitmap] = None) -> Bitmap:
        """Phase 2: verify the coordinator-planned *query* against the
        globally nominated candidate *blocks* (see
        :meth:`CBAEngine.search_blocks`)."""
        return self.transport.call(
            "search", lambda: self.engine.search_blocks(query, blocks, scope))

    # -- convenience ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.engine)

    def __repr__(self) -> str:
        return f"SearchShard({self.shard_id!r}, docs={len(self.engine)})"

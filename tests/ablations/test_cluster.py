"""Ablation J — sharded scatter-gather vs the monolithic engine.

The cluster coordinator plans each query once, probes every shard for
per-term candidate blocks, evaluates the block-level boolean exactly as
the monolith would, then scatters the planned AST with the *global*
candidate blocks to each shard and ORs the per-shard answers.  The cost
model to verify, on deterministic counters: answers stay bit-identical,
each document is tokenised exactly once no matter how many shards exist,
and the duplicated work of fanning one query out to K shards is bounded
by K× the monolith's scan work (each shard verifies only its own members
of the shared blocks).
"""

import random

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cluster import ShardedSearchCluster
from repro.util.stats import Counters

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "theta", "iota", "kappa", "needleword", "commonword"]
K = 3
NUM_BLOCKS = 64

QUERIES = ["needleword", "commonword", "commonword AND needleword",
           "(alpha OR beta) AND NOT gamma", '"delta epsilon"',
           "commonword AND NOT needleword"]


def build_corpus():
    rng = random.Random(23)
    texts = {}
    for i in range(300):
        words = [rng.choice(WORDS[:10]) for _ in range(40)]
        if rng.random() < 0.5:
            words.append("commonword")
        if rng.random() < 0.03:
            words.append("needleword")
        texts[("bench", i)] = " ".join(words)
    return texts


def indexed(engine, counters, texts):
    """*engine* with every text indexed, and the bytes that tokenised;
    *counters* are reset after, so they count the queries alone."""
    for key in sorted(texts):
        engine.index_document(key, path=f"/{key[1]}", mtime=1.0)
    tokenised = counters.get("engine.indexed_bytes")
    counters.reset()
    return engine, tokenised


def test_scatter_gather_fanout():
    texts = build_corpus()
    asts = [parse_query(q) for q in QUERIES]
    mono_counters, cluster_counters = Counters(), Counters()
    mono, mono_indexed = indexed(
        CBAEngine(loader=lambda k: texts.get(k, ""), num_blocks=NUM_BLOCKS,
                  counters=mono_counters), mono_counters, texts)
    cluster, cluster_indexed = indexed(
        ShardedSearchCluster(lambda k: texts.get(k, ""),
                             [f"s{i}" for i in range(K)],
                             num_blocks=NUM_BLOCKS, counters=cluster_counters,
                             latency=0.0), cluster_counters, texts)
    mono_answers = [mono.search(ast).to_bytes() for ast in asts]
    cluster_answers = [cluster.search(ast).to_bytes() for ast in asts]

    # --- correctness: the merge is bit-identical ------------------------
    assert cluster_answers == mono_answers

    # --- deterministic guards -------------------------------------------
    assert cluster_indexed == mono_indexed, \
        "sharding must tokenise each document exactly once"
    mono_scanned = mono_counters.get("engine.docs_scanned")
    cluster_scanned = cluster_counters.get("engine.docs_scanned")
    assert cluster_scanned <= K * max(mono_scanned, 1), (
        f"K={K} fan-out must stay within K x the monolith's scan work: "
        f"{cluster_scanned:g} vs {mono_scanned:g}")
    assert cluster_counters.get("engine.bytes_scanned") \
        <= K * max(mono_counters.get("engine.bytes_scanned"), 1)
    assert all(cluster_counters.get(f"cluster.shard.{sid}.candidate_blocks")
               > 0 for sid in cluster.shardmap.shard_ids), \
        "every shard must have contributed candidate blocks"

    # --- degradation smoke: one dead shard, queries still answer --------
    cluster.kill_shard("s1")
    degraded = [cluster.search(ast) for ast in asts]
    assert not any(cluster.members("s1").intersects(hits)
                   for hits in degraded)
    assert cluster.missing_shards == {"s1"}

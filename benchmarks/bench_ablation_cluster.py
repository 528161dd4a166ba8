"""Ablation J — sharded scatter-gather vs the monolithic engine.

The cluster coordinator plans each query once, probes every shard for
per-term candidate blocks, evaluates the block-level boolean exactly as
the monolith would, then scatters the planned AST with the *global*
candidate blocks to each shard and ORs the per-shard answers.  The cost
model to verify: answers stay bit-identical, each document is tokenised
exactly once no matter how many shards exist, and the duplicated work of
fanning one query out to K shards is bounded by K× the monolith's scan
work (each shard verifies only its own members of the shared blocks).

Wall times are report-only; every asserted guard reads deterministic
counters.
"""

import random

import pytest

from repro.bench.harness import BenchResult, report, time_call
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


def build_corpus(scale):
    rng = random.Random(23)
    texts = {}
    for i in range(300 * scale):
        words = [rng.choice(WORDS[:10]) for _ in range(40)]
        if rng.random() < 0.5:
            words.append("commonword")
        if rng.random() < 0.03:
            words.append("needleword")
        texts[("bench", i)] = " ".join(words)
    return texts


def build_mono(texts):
    counters = Counters()
    engine = CBAEngine(loader=lambda k: texts.get(k, ""),
                       num_blocks=NUM_BLOCKS, counters=counters)
    for key in sorted(texts):
        engine.index_document(key, path=f"/{key[1]}", mtime=1.0)
    return engine, counters


def build_cluster(texts):
    counters = Counters()
    cluster = ShardedSearchCluster(lambda k: texts.get(k, ""),
                                   [f"s{i}" for i in range(K)],
                                   num_blocks=NUM_BLOCKS, counters=counters,
                                   latency=0.0)
    for key in sorted(texts):
        cluster.index_document(key, path=f"/{key[1]}", mtime=1.0)
    return cluster, counters


@pytest.mark.benchmark(group="ablation-cluster")
def test_scatter_gather_fanout(benchmark, record_report, scale):
    texts = build_corpus(scale)
    asts = [parse_query(q) for q in QUERIES]

    def run():
        mono, mono_counters = build_mono(texts)
        cluster, cluster_counters = build_cluster(texts)
        # tokenisation happens at indexing time: snapshot before the reset
        indexed = (mono_counters.get("engine.indexed_bytes"),
                   cluster_counters.get("engine.indexed_bytes"))
        mono_counters.reset()
        cluster_counters.reset()
        mono_secs, mono_answers = time_call(
            lambda: [mono.search(ast).to_bytes() for ast in asts])
        cluster_secs, cluster_answers = time_call(
            lambda: [cluster.search(ast).to_bytes() for ast in asts])
        return (mono, mono_counters, mono_secs, mono_answers, indexed,
                cluster, cluster_counters, cluster_secs, cluster_answers)

    (mono, mono_counters, mono_secs, mono_answers, indexed, cluster,
     cluster_counters, cluster_secs, cluster_answers) = \
        benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)

    # --- correctness: the merge is bit-identical ------------------------
    assert cluster_answers == mono_answers

    # --- deterministic guards -------------------------------------------
    mono_indexed, cluster_indexed = indexed
    assert cluster_indexed == mono_indexed, \
        "sharding must tokenise each document exactly once"
    mono_scanned = mono_counters.get("engine.docs_scanned")
    cluster_scanned = cluster_counters.get("engine.docs_scanned")
    assert cluster_scanned <= K * max(mono_scanned, 1), (
        f"K={K} fan-out must stay within K x the monolith's scan work: "
        f"{cluster_scanned:g} vs {mono_scanned:g}")
    mono_bytes = mono_counters.get("engine.bytes_scanned")
    cluster_bytes = cluster_counters.get("engine.bytes_scanned")
    assert cluster_bytes <= K * max(mono_bytes, 1)

    rpc_calls = sum(cluster_counters.get(f"rpc.shard.{sid}.calls")
                    for sid in cluster.shardmap.shard_ids)
    per_shard = {sid: cluster_counters.get(
        f"cluster.shard.{sid}.candidate_blocks")
        for sid in cluster.shardmap.shard_ids}
    assert all(blocks > 0 for blocks in per_shard.values()), \
        "every shard must have contributed candidate blocks"

    # --- degradation smoke: one dead shard, queries still answer --------
    cluster.kill_shard("s1")
    degraded = [cluster.search(ast) for ast in asts]
    assert not any(cluster.members("s1").intersects(hits)
                   for hits in degraded)
    assert cluster.missing_shards == {"s1"}

    results = [
        BenchResult("corpus docs", len(texts)),
        BenchResult("queries", len(QUERIES)),
        BenchResult("monolith search s", mono_secs, unit="s"),
        BenchResult(f"cluster (K={K}) search s", cluster_secs, unit="s"),
        BenchResult("monolith docs scanned", mono_scanned),
        BenchResult("cluster docs scanned", cluster_scanned),
        BenchResult("scan amplification (<= K)",
                    cluster_scanned / max(mono_scanned, 1)),
        BenchResult("monolith bytes scanned", mono_bytes),
        BenchResult("cluster bytes scanned", cluster_bytes),
        BenchResult("shard RPCs (probe + scatter)", rpc_calls),
        BenchResult("degraded queries answered", len(degraded)),
    ]
    results.extend(
        BenchResult(f"candidate blocks [{sid}]", blocks)
        for sid, blocks in sorted(per_shard.items()))
    record_report(report("Ablation J: sharded scatter-gather", results))

"""Seeded grammar fuzz for the sharded search cluster.

Reuses the PR 3 query fuzzer to check the coordinator's scatter-gather
against the monolithic engine:

* **equivalence** — for every fuzzed query (including scopes and real
  stopwords) the cluster's merged answer serialises byte-for-byte equal
  (``Bitmap.to_bytes``) to the single-engine answer, for K ∈ {1, 3, 8};
* **degradation** — killing any single shard yields exactly the union of
  the surviving shards' answers, tagged with ``missing_shards``;
* **rebalancing** — growing and shrinking the cluster mid-life never
  changes an answer.

``CLUSTER_SEED`` and ``CLUSTER_K`` environment knobs let CI sweep seeds
and shard counts without editing the file.
"""

import os
import random

from repro.cba import planner
from repro.cba.queryast import MatchAll
from repro.cba.tokenizer import DEFAULT_STOPWORDS
from repro.cluster import ShardedSearchCluster
from repro.util.bitmap import Bitmap

from tests.properties.test_query_fuzz import (CONTENT_KINDS, QueryFuzzer,
                                              build_engine, random_corpus)

SEED = int(os.environ.get("CLUSTER_SEED", "0"))
KS = [int(x) for x in os.environ.get("CLUSTER_K", "1,3,8").split(",")]


def build_cluster(texts, k, num_blocks=4, **kwargs):
    store = dict(enumerate(texts))
    cluster = ShardedSearchCluster(lambda key: store.get(key, ""),
                                   [f"s{i}" for i in range(k)],
                                   num_blocks=num_blocks, latency=0.0,
                                   **kwargs)
    for key in store:
        cluster.index_document(key, path=f"/{key}", mtime=0.0)
    return cluster


def test_fuzz_cluster_bit_identical_to_monolith():
    """Indexable-only config: the naive scan is the oracle, and every K
    must serialise byte-for-byte equal to it and to the fast monolith."""
    rng = random.Random(1000 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(30):
        texts = random_corpus(rng, rng.randint(0, 14))
        num_blocks = rng.choice([1, 3, 8])
        mono = build_engine(texts, num_blocks, min_term_length=1,
                            stopwords=set())
        clusters = [build_cluster(texts, k, num_blocks, min_term_length=1,
                                  stopwords=set()) for k in KS]
        for _ in range(3):
            ast = fuzz.node()
            want = mono.search(ast)
            assert want.to_bytes() == mono.naive_search(ast).to_bytes(), ast
            for k, cluster in zip(KS, clusters):
                got = cluster.search(ast)
                assert got.to_bytes() == want.to_bytes(), (k, ast)


def test_fuzz_cluster_matches_monolith_under_stopwords():
    """Real stopwords + min length: the scan-verified monolith is the
    oracle; per-term block unions must preserve the answerability gate."""
    rng = random.Random(7000 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(25):
        texts = random_corpus(rng, rng.randint(0, 12))
        num_blocks = rng.choice([1, 2, 6])
        mono = build_engine(texts, num_blocks, min_term_length=2,
                            stopwords=set(DEFAULT_STOPWORDS))
        clusters = [build_cluster(texts, k, num_blocks, min_term_length=2,
                                  stopwords=set(DEFAULT_STOPWORDS))
                    for k in KS]
        for _ in range(3):
            ast = fuzz.node()
            want = mono.search(ast).to_bytes()
            for k, cluster in zip(KS, clusters):
                assert cluster.search(ast).to_bytes() == want, (k, ast)


def test_fuzz_cluster_scoped_search_equivalence():
    """Random scopes thread through the scatter (per-shard member masks)
    without changing the answer."""
    rng = random.Random(9900 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(25):
        texts = random_corpus(rng, rng.randint(0, 12))
        mono = build_engine(texts, min_term_length=1, stopwords=set())
        clusters = [build_cluster(texts, k, min_term_length=1,
                                  stopwords=set()) for k in KS]
        scope = Bitmap(doc for doc in range(len(texts))
                       if rng.random() < 0.6)
        ast = fuzz.node()
        want = mono.search(ast, scope).to_bytes()
        assert want == mono.naive_search(ast, scope).to_bytes(), ast
        for k, cluster in zip(KS, clusters):
            assert cluster.search(ast, scope).to_bytes() == want, (k, ast)


def test_fuzz_killing_one_shard_yields_union_of_survivors():
    """For every fuzzed query, a dead shard degrades the answer to exactly
    the union of the surviving shards' members — never an exception — and
    the coordinator tags the result with the missing shard."""
    rng = random.Random(4400 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(20):
        texts = random_corpus(rng, rng.randint(1, 14))
        mono = build_engine(texts, min_term_length=1, stopwords=set())
        for k in KS:
            if k < 2:
                continue  # killing the only shard leaves no survivors
            cluster = build_cluster(texts, k, min_term_length=1,
                                    stopwords=set())
            dead = f"s{rng.randrange(k)}"
            cluster.kill_shard(dead)
            for _ in range(3):
                ast = fuzz.node()
                planned = planner.plan(ast, mono.index)
                cluster.reset_missing_shards()
                got = cluster.search(ast)
                if isinstance(planned, MatchAll):
                    # answered whole from the coordinator's registry —
                    # no scatter, nothing missing
                    assert got == cluster.all_docs()
                    assert cluster.missing_shards == set()
                    continue
                if planner.provably_empty(planned, mono.index.lexicon.df,
                                          mono._indexable,
                                          mono.scope_count):
                    # answered whole from the coordinator's summed
                    # statistics — no scatter, nothing missing
                    assert got.to_bytes() == b"", (k, dead, ast)
                    assert cluster.missing_shards == set()
                    continue
                want = mono.search(ast) - cluster.members(dead)
                assert got.to_bytes() == want.to_bytes(), (k, dead, ast)
                assert cluster.missing_shards == {dead}
            cluster.revive_shard(dead)
            cluster.reset_missing_shards()
            ast = fuzz.node()
            assert cluster.search(ast).to_bytes() == \
                mono.search(ast).to_bytes(), (k, ast)
            assert cluster.missing_shards == set()


def test_fuzz_rebalancing_preserves_answers():
    """Adding then removing a shard (deterministic rendezvous moves +
    incremental reindex plans) never changes a fuzzed answer."""
    rng = random.Random(6600 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(10):
        texts = random_corpus(rng, rng.randint(1, 14))
        mono = build_engine(texts, min_term_length=1, stopwords=set())
        for k in KS:
            cluster = build_cluster(texts, k, min_term_length=1,
                                    stopwords=set())
            queries = [fuzz.node() for _ in range(3)]
            want = [mono.search(ast).to_bytes() for ast in queries]
            cluster.add_shard("grown")
            for ast, expected in zip(queries, want):
                assert cluster.search(ast).to_bytes() == expected, (k, ast)
            cluster.remove_shard(f"s{rng.randrange(k)}")
            for ast, expected in zip(queries, want):
                assert cluster.search(ast).to_bytes() == expected, (k, ast)

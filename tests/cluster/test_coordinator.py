"""ShardedSearchCluster: engine protocol, scatter-gather, degradation,
rebalancing, and persistence."""

import pytest

from repro.cba.backend import open_backend
from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.segments import SegmentStore
from repro.cba.transducers import default_transducer
from repro.cluster import RebalancePlan, ShardedSearchCluster, ShardMap
from repro.obs import Observability
from repro.obs.trace import NULL_TRACER
from repro.util.bitmap import Bitmap
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import BlockDevice

TEXTS = {
    ("fs", 0): "alpha beta gamma",
    ("fs", 1): "beta delta",
    ("fs", 2): "gamma epsilon alpha",
    ("fs", 3): "the quick brown fox",
    ("fs", 4): "alpha the zeta",
    ("fs", 5): "delta gamma beta",
    ("fs", 6): "zeta eta theta",
    ("fs", 7): "epsilon alpha beta",
}


@pytest.fixture
def store():
    return dict(TEXTS)


@pytest.fixture
def cluster(store):
    clu = ShardedSearchCluster(lambda k: store.get(k, ""), ["a", "b", "c"],
                               num_blocks=4)
    for key in sorted(store):
        clu.index_document(key, f"/f{key[1]}.txt", 1.0)
    return clu


@pytest.fixture
def mono(store):
    engine = CBAEngine(loader=lambda k: store.get(k, ""), num_blocks=4)
    for key in sorted(store):
        engine.index_document(key, f"/f{key[1]}.txt", 1.0)
    return engine


class TestRegistry:
    def test_global_ids_match_monolith(self, cluster, mono):
        for key in sorted(TEXTS):
            assert cluster.doc_id_of(key) == mono.doc_id_of(key)

    def test_members_partition_all_docs(self, cluster):
        union = Bitmap()
        total = 0
        for sid in cluster.shardmap.shard_ids:
            members = cluster.members(sid)
            assert not members.intersects(union)
            union |= members
            total += len(members)
        assert union == cluster.all_docs()
        assert total == len(cluster)

    def test_shard_registries_mirror_members(self, cluster):
        for sid, shard in cluster.shards.items():
            assert shard.engine.all_docs() == cluster.members(sid)

    def test_doc_lookup_roundtrip(self, cluster):
        doc = cluster.doc_by_key(("fs", 3))
        assert doc is not None
        assert cluster.doc_by_id(doc.doc_id) == doc
        assert ("fs", 3) in cluster
        assert ("fs", 99) not in cluster

    def test_duplicate_index_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.index_document(("fs", 0), "/dup", 2.0)

    def test_remove_and_update_unknown_rejected(self, cluster):
        with pytest.raises(KeyError):
            cluster.remove_document(("fs", 99))
        with pytest.raises(KeyError):
            cluster.update_document(("fs", 99), "/x", 1.0)
        with pytest.raises(KeyError):
            cluster.rename_document(("fs", 99), "/x")

    def test_update_remove_rename_route_to_owner(self, cluster, store):
        key = ("fs", 1)
        owner = cluster.shard_of(key)
        store[key] = "omega only"
        cluster.update_document(key, "/f1.txt", 2.0)
        assert cluster.doc_by_key(key).mtime == 2.0
        assert sorted(cluster.search(parse_query("omega"))) == \
            [cluster.doc_id_of(key)]
        cluster.rename_document(key, "/renamed.txt")
        assert cluster.doc_by_key(key).path == "/renamed.txt"
        assert cluster.shards[owner].engine.doc_by_key(key).path == \
            "/renamed.txt"
        doc_id = cluster.remove_document(key)
        assert cluster.doc_by_key(key) is None
        assert doc_id not in cluster.shards[owner].engine.all_docs()

    def test_mtime_snapshot_and_dirty(self, cluster):
        snap = cluster.mtime_snapshot()
        assert snap[("fs", 0)] == 1.0
        assert len(snap) == len(TEXTS)
        assert len(cluster.dirty_docs()) == len(TEXTS)

    def test_reindex_applies_plan(self, cluster, store):
        store[("fs", 8)] = "fresh iota"
        store[("fs", 0)] = "alpha mutated"
        del store[("fs", 6)]
        current = [(key, f"/f{key[1]}.txt", 2.0) for key in sorted(store)]
        plan = cluster.reindex(current)
        assert set(plan.added) == {("fs", 8)}
        assert set(plan.removed) == {("fs", 6)}
        assert set(plan.changed) == set(store) - {("fs", 8)}
        assert sorted(cluster.search(parse_query("iota"))) == \
            [cluster.doc_id_of(("fs", 8))]

    def test_reindex_path_drift_renames(self, cluster, store):
        current = [(key, f"/moved{key[1]}.txt", 1.0) for key in sorted(store)]
        plan = cluster.reindex(current)
        assert plan.is_noop
        assert cluster.doc_by_key(("fs", 0)).path == "/moved0.txt"

    def test_reindex_path_drift_with_transducer_retokenises(self, store):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""), ["a", "b"],
                                   transducer=default_transducer)
        for key in sorted(store):
            clu.index_document(key, f"/f{key[1]}.txt", 1.0)
        before = clu.counters.get("engine.updated")
        clu.reindex([(key, f"/moved{key[1]}.txt", 1.0)
                     for key in sorted(store)])
        assert clu.counters.get("engine.updated") > before

    def test_extract_and_sizes(self, cluster):
        lines = cluster.extract(("fs", 0), parse_query("alpha"))
        assert lines == ["alpha beta gamma"]
        assert cluster.index_size_bytes() > 0
        assert cluster.corpus_bytes() == sum(len(t) for t in TEXTS.values())

    def test_clear_query_cache_fans_out(self, cluster):
        cluster.search(parse_query("alpha"))
        cluster.clear_query_cache()  # must not raise; shards drop memos

    def test_repr(self, cluster):
        assert "docs=8" in repr(cluster)


class TestSearch:
    QUERIES = ["alpha", "alpha AND beta", "alpha OR delta", "NOT alpha",
               '"quick brown"', "alpha AND NOT beta", "the", "*", "quick~1",
               "(alpha OR delta) AND NOT gamma"]

    def test_bit_identical_to_monolith(self, cluster, mono):
        for text in self.QUERIES:
            ast = parse_query(text)
            assert cluster.search(ast).to_bytes() == \
                mono.search(ast).to_bytes(), text

    def test_scoped_search_matches_monolith(self, cluster, mono):
        scope = Bitmap([0, 2, 3, 5, 7])
        for text in self.QUERIES:
            ast = parse_query(text)
            assert cluster.search(ast, scope).to_bytes() == \
                mono.search(ast, scope).to_bytes(), text

    def test_empty_scope_short_circuits_without_rpc(self, cluster):
        calls = [s.transport.calls for s in cluster.shards.values()]
        assert not cluster.search(parse_query("alpha"), Bitmap())
        assert [s.transport.calls for s in cluster.shards.values()] == calls

    def test_scatter_skips_shards_outside_scope(self, cluster):
        sid = cluster.shardmap.shard_ids[0]
        other = [s for s in cluster.shardmap.shard_ids if s != sid]
        scope = Bitmap()
        for o in other:
            scope |= cluster.members(o)
        before = cluster.shards[sid].transport.calls
        cluster.search(parse_query("alpha"), scope)
        # probed (blocks are global) but never scattered to
        assert cluster.shards[sid].transport.calls == before + 1

    def test_matchall_answers_from_registry_without_scatter(self, cluster):
        calls = [s.transport.calls for s in cluster.shards.values()]
        result = cluster.search(parse_query("*"))
        assert result == cluster.all_docs()
        assert [s.transport.calls for s in cluster.shards.values()] == calls

    def test_per_shard_candidate_block_counters(self, cluster):
        cluster.search(parse_query("alpha AND beta"))
        total = sum(cluster.counters.get(
            f"cluster.shard.{sid}.candidate_blocks")
            for sid in cluster.shardmap.shard_ids)
        assert total > 0

    def test_latency_charged_per_shard_call(self, store):
        clock = VirtualClock()
        clu = ShardedSearchCluster(lambda k: store.get(k, ""), ["a", "b"],
                                   clock=clock, latency=0.1)
        for key in sorted(store):
            clu.index_document(key, f"/f{key[1]}", 1.0)
        clu.search(parse_query("alpha"))
        # 2 probes + 2 scatters
        assert clock.now == pytest.approx(0.4)


class TestFieldTerms:
    def test_field_queries_probe_the_right_postings(self, store):
        from repro.cba.transducers import default_transducer
        store[("fs", 10)] = "From: alice\nSubject: budget\n\nnumbers\n"
        store[("fs", 11)] = "From: bob\nSubject: lunch\n\nnoon?\n"
        mono = CBAEngine(loader=lambda k: store.get(k, ""),
                         transducer=default_transducer)
        clu = ShardedSearchCluster(lambda k: store.get(k, ""),
                                   ["a", "b", "c"],
                                   transducer=default_transducer)
        for key in sorted(store):
            mono.index_document(key, f"/f{key[1]}.txt", 1.0)
            clu.index_document(key, f"/f{key[1]}.txt", 1.0)
        for text in ["from:alice", "from:alice AND budget",
                     "from:bob OR alpha"]:
            ast = parse_query(text)
            assert clu.search(ast).to_bytes() == \
                mono.search(ast).to_bytes(), text


class TestShardFacade:
    def test_len_and_repr(self, cluster):
        sid = cluster.shardmap.shard_ids[0]
        shard = cluster.shards[sid]
        assert len(shard) == len(shard.engine)
        assert sid in repr(shard) and "docs=" in repr(shard)

    def test_shard_of_unindexed_key_uses_placement(self, cluster):
        key = ("fs", 777)
        assert cluster.shard_of(key) == cluster.shardmap.owner(key)


class TestDegradation:
    def test_killed_shard_yields_union_of_survivors(self, cluster, mono):
        full = mono.search(parse_query("alpha OR delta"))
        cluster.kill_shard("b")
        got = cluster.search(parse_query("alpha OR delta"))
        assert got == full - cluster.members("b")
        assert cluster.missing_shards == {"b"}

    def test_reset_missing_shards_returns_and_clears(self, cluster):
        cluster.kill_shard("a")
        cluster.search(parse_query("alpha"))
        assert cluster.reset_missing_shards() == {"a"}
        assert cluster.missing_shards == set()

    def test_revive_restores_whole_answers_without_resync(self, cluster,
                                                          mono, store):
        cluster.kill_shard("b")
        cluster.search(parse_query("alpha"))
        # maintenance while partitioned still lands on the shard's index
        store[("fs", 8)] = "alpha resurrect"
        cluster.index_document(("fs", 8), "/f8.txt", 2.0)
        mono.index_document(("fs", 8), "/f8.txt", 2.0)
        cluster.revive_shard("b")
        cluster.reset_missing_shards()
        ast = parse_query("alpha")
        assert cluster.search(ast).to_bytes() == mono.search(ast).to_bytes()
        assert cluster.missing_shards == set()

    def test_health_reports_down_and_breaker_state(self, cluster):
        assert cluster.health() == {"a": "closed", "b": "closed",
                                    "c": "closed"}
        cluster.kill_shard("c")
        assert cluster.health()["c"] == "down"
        cluster.revive_shard("c")
        assert cluster.health()["c"] == "closed"

    def test_breaker_opens_and_still_degrades_cleanly(self, cluster, mono):
        cluster.kill_shard("a")
        ast = parse_query("alpha OR delta")
        expected = mono.search(ast) - cluster.members("a")
        for _ in range(6):  # enough failures to trip the breaker
            assert cluster.search(ast) == expected
        assert cluster.health()["a"] == "down"
        assert cluster.shards["a"].transport.breaker.state == "open"
        # breaker-open rejections count as missing too (CircuitOpen is a
        # RemoteUnavailable), never an exception
        assert cluster.missing_shards == {"a"}

    def test_scatter_phase_failure_degrades_like_probe_failure(self, cluster,
                                                               mono):
        # probe (this shard's call 0) succeeds, scatter (call 1) fails:
        # the shard must still end up in missing with its members dropped
        sid = "b"
        cluster.shards[sid].transport.fail_on = frozenset({1})
        ast = parse_query("alpha OR delta")
        got = cluster.search(ast)
        assert got == mono.search(ast) - cluster.members(sid)
        assert cluster.missing_shards == {sid}

    def test_breakerless_shards_report_unmonitored(self, store):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""), ["a", "b"],
                                   breaker_factory=lambda sid: None)
        assert clu.health() == {"a": "unmonitored", "b": "unmonitored"}

    def test_partial_results_counter(self, cluster):
        cluster.kill_shard("a")
        cluster.search(parse_query("alpha"))
        assert cluster.counters.get("cluster.partial_results") == 1


class TestRebalance:
    def test_add_shard_moves_only_to_new_shard(self, store):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""),
                                   [f"s{i}" for i in range(3)])
        keys = [("fs", i) for i in range(40)]
        for i, key in enumerate(keys):
            store.setdefault(key, f"word{i} alpha")
            clu.index_document(key, f"/f{i}", 1.0)
        before = {key: clu.shard_of(key) for key in keys}
        plan = clu.add_shard("s3")
        assert isinstance(plan, RebalancePlan)
        assert plan.docs_moved == len(plan.moves)
        assert all(m.dest == "s3" for m in plan.moves)
        moved = {m.key for m in plan.moves}
        for key in keys:
            expected = "s3" if key in moved else before[key]
            assert clu.shard_of(key) == expected
        # per-shard plans: sources see removals, the destination additions
        added = [k for p in plan.shard_plans.values() for k in p.added]
        removed = [k for p in plan.shard_plans.values() for k in p.removed]
        assert sorted(added) == sorted(moved)
        assert sorted(removed) == sorted(moved)

    def test_remove_shard_drains_it(self, store):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""),
                                   ["s0", "s1", "s2"])
        keys = [("fs", i) for i in range(40)]
        for i, key in enumerate(keys):
            store.setdefault(key, f"word{i} beta")
            clu.index_document(key, f"/f{i}", 1.0)
        owned = [k for k in keys if clu.shard_of(k) == "s1"]
        plan = clu.remove_shard("s1")
        assert sorted(m.key for m in plan.moves) == sorted(owned)
        assert "s1" not in clu.shards
        assert "s1" not in clu.shardmap
        assert len(clu) == len(keys)

    def test_rebalance_preserves_answers(self, store, mono):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""),
                                   ["s0", "s1", "s2"], num_blocks=4)
        for key in sorted(TEXTS):
            clu.index_document(key, f"/f{key[1]}.txt", 1.0)
        ast = parse_query("alpha OR delta")
        want = mono.search(ast).to_bytes()
        clu.add_shard("s3")
        assert clu.search(ast).to_bytes() == want
        clu.remove_shard("s0")
        assert clu.search(ast).to_bytes() == want
        assert clu.counters.get("cluster.rebalances") == 2

    def test_cannot_remove_last_or_add_duplicate(self, store):
        clu = ShardedSearchCluster(lambda k: store.get(k, ""), ["only"])
        with pytest.raises(ValueError):
            clu.remove_shard("only")
        with pytest.raises(ValueError):
            clu.add_shard("only")


class TestPersistence:
    def test_roundtrip_is_bit_identical(self, cluster, mono, store):
        obj = cluster.to_obj()
        again = ShardedSearchCluster.from_obj(obj,
                                              lambda k: store.get(k, ""))
        for text in TestSearch.QUERIES:
            ast = parse_query(text)
            assert again.search(ast).to_bytes() == \
                mono.search(ast).to_bytes(), text
        assert len(again) == len(cluster)
        assert again.shardmap.shard_ids == cluster.shardmap.shard_ids
        for sid in again.shardmap.shard_ids:
            assert again.members(sid) == cluster.members(sid)

    def test_restored_cluster_accepts_maintenance(self, cluster, store):
        again = ShardedSearchCluster.from_obj(cluster.to_obj(),
                                              lambda k: store.get(k, ""))
        store[("fs", 8)] = "omega arrival"
        doc_id = again.index_document(("fs", 8), "/f8.txt", 2.0)
        assert doc_id == len(TEXTS)  # next id restored
        assert sorted(again.search(parse_query("omega"))) == [doc_id]

    def test_factory_builds_and_restores(self, store):
        factory = open_backend("cluster", shards=2, latency=0.0)
        counters = Counters()
        clu = factory(lambda k: store.get(k, ""), counters=counters,
                      num_blocks=4)
        assert clu.shardmap.shard_ids == ("shard0", "shard1")
        for key in sorted(store):
            clu.index_document(key, f"/f{key[1]}", 1.0)
        # the save a store-less engine makes: one segment per shard
        device, saved = BlockDevice(), SegmentStore()
        saved.freeze_live(clu)
        saved.sync(device, clu._next_doc_id, NULL_TRACER)
        loaded, next_doc = SegmentStore.load(device, Counters())
        again = factory.from_segments(
            loaded, loader=lambda k: store.get(k, ""), next_doc_id=next_doc,
            num_blocks=4)
        assert again.shardmap.shard_ids == ("shard0", "shard1")
        assert again._owners == clu._owners
        ast = parse_query("alpha AND beta")
        assert again.search(ast).to_bytes() == clu.search(ast).to_bytes()


class TestObservability:
    def test_tracer_and_metrics_propagate(self, cluster):
        obs = Observability()
        obs.enable()
        cluster.tracer = obs.trace
        cluster.metrics = obs.metrics
        for shard in cluster.shards.values():
            assert shard.engine.tracer is obs.trace
            assert shard.transport.tracer is obs.trace
            assert shard.transport.breaker.tracer is obs.trace
            assert shard.engine.metrics is obs.metrics
        cluster.search(parse_query("alpha AND beta"))
        names = {s.name for s in obs.trace.spans()}
        assert {"cluster.search", "cluster.plan", "cluster.probe",
                "cluster.scatter", "rpc.call"} <= names
        hist = obs.metrics.histogram("cluster.candidate_blocks")
        assert hist is not None and hist.count == 1

    def test_shardmap_reachable_via_cluster(self, cluster):
        assert isinstance(cluster.shardmap, ShardMap)
        assert cluster.shard_of(("fs", 0)) in cluster.shardmap

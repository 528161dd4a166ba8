"""Unit tests for read replicas and the engine's publish/serve surface."""

import pytest

from repro.cba.engine import CBAEngine, IndexOp
from repro.cba.queryparser import parse_query
from repro.cba.snapshot import ReadReplica

CORPUS = {
    "a": "the fingerprint matching system for the fbi",
    "b": "image processing of fingerprint images",
    "c": "banana bread recipe",
    "d": "notes on the murder case with fingerprint evidence",
}
QUERIES = ["fingerprint", "banana AND bread", "fingerprint AND NOT images"]


def build_engine(**kwargs):
    store = dict(CORPUS)
    eng = CBAEngine(loader=lambda k: store.get(k, ""), **kwargs)
    eng.store = store  # test hook
    for key in sorted(store):
        eng.index_document(key, path=f"/{key}.txt", mtime=1.0)
    return eng


def answers(backend):
    return {q: backend.search(parse_query(q)).to_bytes() for q in QUERIES}


@pytest.fixture
def engine():
    return build_engine()


class TestBufferDiscipline:
    def test_no_replicas_means_no_buffer(self, engine):
        """Publishing is free until somebody actually reads snapshots:
        without replicas the op log must stay empty."""
        engine.store["e"] = "late arrival"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        assert engine.snapshot_info()["pending_ops"] == 0
        assert engine.publish() == 1
        assert engine.publish() == 2

    def test_mutations_buffer_once_a_replica_exists(self, engine):
        engine.attach_replica()
        engine.store["e"] = "late arrival"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        engine.remove_document("c")
        info = engine.snapshot_info()
        assert info["pending_ops"] == 2
        engine.publish()
        assert engine.snapshot_info()["pending_ops"] == 0

    def test_lagged_replica_pins_the_buffer(self, engine):
        fresh = engine.attach_replica("fresh")
        engine.attach_replica("slow", lag=1)
        engine.store["e"] = "late arrival"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        engine.publish()
        # the slow replica has not replayed the op, so it cannot be dropped
        assert engine.snapshot_info()["pending_ops"] == 1
        assert fresh.version > [r for r in engine.replicas
                                if r.replica_id == "slow"][0].version
        engine.publish()  # lag expires, both catch up, buffer truncates
        assert engine.snapshot_info()["pending_ops"] == 0
        assert len({r.version for r in engine.replicas}) == 1


class TestSegmentedBufferDiscipline(TestBufferDiscipline):
    """The same discipline over the segmented store, whose log holds
    publication cuts instead of ops."""

    @pytest.fixture
    def engine(self):
        return build_engine(segmented=True)

    def test_attach_closes_the_cut(self, engine):
        """Rows noted before an attach are in the new replica's hydrated
        state, so it applies exactly the rows noted after — while a
        replica attached earlier still gets the earlier ones."""
        first = engine.attach_replica("first")
        engine.store["e"] = "late arrival"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        second = engine.attach_replica("second")
        engine.store["f"] = "later still"
        engine.index_document("f", path="/f.txt", mtime=3.0)
        engine.remove_document("c")
        assert engine.snapshot_info()["pending_ops"] == 3
        engine.publish()
        applied = "replica.segment_rows_applied"
        assert first.counters.get(applied) == 3
        assert second.counters.get(applied) == 2
        assert answers(first) == answers(second) == answers(engine)
        assert engine.snapshot_info()["pending_ops"] == 0

    def test_publishing_never_seals(self, engine):
        engine.attach_replica()
        engine.store["e"] = "late arrival"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        engine.publish()
        assert engine.segments.frozen == []
        assert len(engine.segments.memtable) == 5
        assert engine.counters.get("segments.seals") == 0


class TestHydrationAndReplay:
    def test_attach_matches_primary_bit_for_bit(self, engine):
        replica = engine.attach_replica()
        assert answers(replica) == answers(engine)
        assert len(replica) == len(engine)
        assert replica.all_docs().to_bytes() == engine.all_docs().to_bytes()

    def test_replica_is_isolated_until_publish(self, engine):
        replica = engine.attach_replica()
        before = answers(engine)
        engine.store["c"] = "now fingerprint themed"
        engine.update_document("c", path="/c.txt", mtime=2.0)
        assert answers(replica) == before
        version = engine.publish()
        assert replica.version == version
        assert answers(replica) == answers(engine)

    def test_every_op_kind_replays(self, engine):
        replica = engine.attach_replica()
        engine.store["e"] = "brand new banana notes"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        engine.store["a"] = "rewritten without the magic word"
        engine.update_document("a", path="/a.txt", mtime=2.0)
        engine.remove_document("d")
        engine.rename_document("b", "/moved/b.txt")
        engine.publish()
        assert answers(replica) == answers(engine)
        assert replica.doc_by_key("b").path == "/moved/b.txt"
        assert replica.doc_by_key("d") is None
        assert replica.doc_by_id(engine.doc_id_of("e")).key == "e"
        # replayed ids keep the allocator in step with the primary
        assert replica.engine._next_doc_id == engine._next_doc_id

    def test_replica_work_is_charged_to_replica_counters(self, engine):
        replica = engine.attach_replica()
        searched = engine.counters.get("engine.searches")
        replica.search(parse_query("fingerprint"))
        assert engine.counters.get("engine.searches") == searched
        assert replica.counters.get("engine.searches") > 0


class TestRoutingAndControls:
    def test_view_attaches_lazily_and_prefers_freshest(self, engine):
        assert engine.replicas == []
        view = engine.snapshot_view()
        assert isinstance(view, ReadReplica)
        engine.attach_replica("slow", lag=1)
        engine.store["e"] = "fresh fingerprint"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        engine.publish()
        # the lagged replica is never routed to over a fresh one
        for _ in range(4):
            assert engine.snapshot_view().replica_id != "slow"

    def test_equally_fresh_replicas_rotate(self, engine):
        engine.attach_replica("r0")
        engine.attach_replica("r1")
        seen = {engine.snapshot_view().replica_id for _ in range(4)}
        assert seen == {"r0", "r1"}

    def test_set_replica_lag_unknown_id(self, engine):
        engine.attach_replica("r0")
        with pytest.raises(KeyError):
            engine.set_replica_lag("nope", 1)

    def test_snapshot_info_shape(self, engine):
        engine.attach_replica("r0", lag=2)
        info = engine.snapshot_info()
        assert info["version"] == 0
        assert info["replicas"] == [{"id": "r0", "version": 0, "lag": 2}]

    def test_op_log_entries_are_self_contained(self, engine):
        """Shipped ops carry terms and frozen text — replay must never
        consult the primary's loader (that is what keeps replicas off the
        live tree)."""
        engine.attach_replica()
        engine.store["e"] = "ephemeral banana"
        engine.index_document("e", path="/e.txt", mtime=2.0)
        op = engine._pending_ops[0]
        assert isinstance(op, IndexOp)
        assert op.terms and op.text == "ephemeral banana"
        del engine.store["e"]  # primary text gone; replay still works
        engine.publish()
        replica = engine.snapshot_view()
        assert replica.doc_by_key("e") is not None
        assert "banana" in replica.engine.loader("e")

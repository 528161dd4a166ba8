"""Unit tests for the segmented index store: memtable, seal, compaction,
replica handoff, and zero-tokenisation restore."""

import pytest

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.segments import (
    Segment,
    SegmentRow,
    SegmentStore,
    _coalesce,
)
from repro.cba.transducers import default_transducer
from repro.errors import CorruptRecord
from repro.obs.trace import NULL_TRACER
from repro.util import serialization
from repro.util.stats import Counters
from repro.vfs.blockdev import BlockDevice


def row(kind, doc_id, key, path="/f", mtime=1.0, terms=None, text=None):
    if kind == "upsert":
        return SegmentRow("upsert", doc_id, key, path, mtime,
                          len(text or ""), frozenset(terms or ()), text)
    return SegmentRow(kind, doc_id, key, path, mtime, 0)


class TestCoalesce:
    def test_upsert_replaces(self):
        a = row("upsert", 1, ("f", 1), terms={"x"})
        b = row("upsert", 1, ("f", 1), terms={"y"})
        assert _coalesce(a, b) is b

    def test_remove_replaces_upsert(self):
        a = row("upsert", 1, ("f", 1), terms={"x"})
        b = row("remove", 1, ("f", 1))
        assert _coalesce(a, b) is b

    def test_rename_folds_into_upsert(self):
        a = row("upsert", 1, ("f", 1), path="/old", terms={"x"}, text="x")
        b = row("rename", 1, ("f", 1), path="/new", mtime=2.0)
        merged = _coalesce(a, b)
        assert merged.kind == "upsert"
        assert merged.path == "/new"
        assert merged.mtime == 2.0
        assert merged.terms == frozenset({"x"})

    def test_rename_after_remove_keeps_tombstone(self):
        a = row("remove", 1, ("f", 1))
        b = row("rename", 1, ("f", 1), path="/new")
        assert _coalesce(a, b) is a

    def test_rename_with_no_prior_stands_alone(self):
        b = row("rename", 1, ("f", 1), path="/new")
        assert _coalesce(None, b) is b

    def test_rename_after_rename_keeps_the_newer_path(self):
        """A directory moved there and back inside one seal window: the
        row that waits for its upsert must carry where the document is."""
        a = row("rename", 1, ("f", 1), path="/there")
        b = row("rename", 1, ("f", 1), path="/back")
        assert _coalesce(a, b) is b


class TestRowAndSegmentSerialization:
    def test_roundtrip_drops_text_keeps_terms(self):
        r = row("upsert", 3, ("fsid", 7), path="/a", mtime=2.5,
                terms={"b", "a"}, text="a b")
        revived = SegmentRow.from_obj(r.to_obj())
        assert revived.text is None          # never serialized
        assert revived.terms == frozenset({"a", "b"})
        assert revived.size == 3             # captured at note time
        assert (revived.kind, revived.doc_id, revived.key, revived.path,
                revived.mtime) == ("upsert", 3, ("fsid", 7), "/a", 2.5)

    def test_segment_roundtrip(self):
        seg = Segment("s000001", (row("upsert", 1, ("f", 1), terms={"t"}),
                                  row("remove", 2, ("f", 2))))
        revived = Segment.from_obj(seg.to_obj())
        assert revived.seg_id == "s000001"
        assert len(revived) == 2
        assert revived.rows[0].kind == "upsert"
        assert "s000001" in repr(seg)


class TestSegmentStore:
    def test_note_coalesces_per_key(self):
        counters = Counters()
        store = SegmentStore(counters=counters)
        store.note("index", 1, ("f", 1), "/a", 1.0, {"x"}, "x")
        store.note("update", 1, ("f", 1), "/a", 2.0, {"y"}, "y")
        assert len(store.memtable) == 1
        assert store.memtable[("f", 1)].terms == frozenset({"y"})
        assert counters.get("segments.noted") == 2

    def test_note_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SegmentStore().note("mystery", 1, ("f", 1), "/a", 1.0)

    def test_seal_thresholds_and_ordering(self):
        store = SegmentStore(seal_threshold=2)
        assert store.seal() is None          # empty memtable: idempotent
        store.note("index", 5, ("f", 5), "/e", 1.0, {"e"}, "e")
        assert not store.should_seal
        store.note("index", 2, ("f", 2), "/b", 1.0, {"b"}, "b")
        assert store.should_seal
        seg = store.seal()
        assert [r.doc_id for r in seg.rows] == [2, 5]  # doc-id sorted
        assert store.memtable == {}
        assert store.frozen == [seg]
        assert store.sealed_log == [seg]

    def test_compact_folds_newest_wins_and_drops_tombstones(self):
        counters = Counters()
        store = SegmentStore(counters=counters, compact_threshold=1)
        store.note("index", 1, ("f", 1), "/a", 1.0, {"old"}, "old")
        store.note("index", 2, ("f", 2), "/b", 1.0, {"b"}, "b")
        store.seal()
        store.note("update", 1, ("f", 1), "/a", 2.0, {"new"}, "new")
        store.note("remove", 2, ("f", 2), "/b", 2.0)
        store.note("index", 3, ("f", 3), "/c", 2.0, {"c"}, "c")
        store.seal()
        assert store.should_compact
        merged, dropped = store.compact()
        assert dropped == ["s000000", "s000001"]
        assert store.frozen == [merged]
        by_key = {r.key: r for r in merged.rows}
        assert by_key[("f", 1)].terms == frozenset({"new"})
        assert ("f", 2) not in by_key        # tombstone dropped
        assert ("f", 3) in by_key
        assert counters.get("segments.compactions") == 1
        # one segment left: nothing further to merge
        assert store.compact() is None

    def test_live_rows_folds_rename_across_segments(self):
        store = SegmentStore()
        store.note("index", 1, ("f", 1), "/a", 1.0, {"x"}, "x")
        store.seal()
        store.note("rename", 1, ("f", 1), "/moved", 2.0)
        store.seal()
        live = store.live_rows()
        assert live[("f", 1)].path == "/moved"
        assert live[("f", 1)].terms == frozenset({"x"})

    def test_truncate_log_keeps_frozen(self):
        store = SegmentStore()
        store.note("index", 1, ("f", 1), "/a", 1.0, {"x"}, "x")
        store.seal()
        store.note("index", 2, ("f", 2), "/b", 1.0, {"y"}, "y")
        store.seal()
        store.truncate_log(1)
        assert len(store.sealed_log) == 1
        assert len(store.frozen) == 2        # compaction never touches it
        store.truncate_log(0)                # no-op
        assert len(store.sealed_log) == 1

    def test_manifest_roundtrip(self):
        store = SegmentStore()
        store.note("index", 1, ("f", 1), "/a", 1.0, {"x"}, "x")
        dev = BlockDevice()
        store.sync(dev, 2, NULL_TRACER, force_seal=True)
        assert sorted(dev.record_keys()) == ["seg:s000000", "segmanifest"]
        revived, next_doc_id = SegmentStore.load(dev, Counters())
        assert next_doc_id == 2
        assert [seg.seg_id for seg in revived.frozen] == ["s000000"]
        assert revived.live_rows().keys() == store.live_rows().keys()
        assert revived._next_seg == store._next_seg

    def test_seed_base_prepends(self):
        store = SegmentStore()
        store.note("remove", 1, ("f", 1), "/a", 2.0)
        store.seal()
        store.seed_base({("f", 1): row("upsert", 1, ("f", 1), terms={"x"}),
                         ("f", 2): row("upsert", 2, ("f", 2), terms={"y"})})
        # the base segment folds *under* the sealed tombstone
        live = store.live_rows()
        assert ("f", 1) not in live
        assert ("f", 2) in live
        store.seed_base({})                  # empty: no-op
        assert len(store.frozen) == 2
        assert "memtable" in repr(store)


class TestDeviceRecords:
    """``sync`` / ``load`` / ``audit`` over a bare device: the store owns
    the ``seg:`` and manifest formats, the caller only supplies where."""

    def sealed(self, n=2, counters=None):
        store = SegmentStore(counters=counters)
        dev = BlockDevice()
        for i in range(n):
            store.note("index", i, ("f", i), f"/d{i}", 1.0, {f"t{i}"}, "x")
            store.sync(dev, i + 1, NULL_TRACER, force_seal=True)
        return store, dev

    def test_sync_policy_is_the_stores_own(self):
        store = SegmentStore(seal_threshold=2, compact_threshold=2)
        dev = BlockDevice()
        store.note("index", 0, ("f", 0), "/a", 1.0, {"x"}, "x")
        store.sync(dev, 1, NULL_TRACER)
        assert dev.record_keys() == []           # below the seal threshold
        store.note("index", 1, ("f", 1), "/b", 1.0, {"y"}, "y")
        store.sync(dev, 2, NULL_TRACER)
        assert sorted(dev.record_keys()) == ["seg:s000000", "segmanifest"]
        store.note("index", 2, ("f", 2), "/c", 1.0, {"z"}, "z")
        store.sync(dev, 3, NULL_TRACER, force_seal=True)
        assert len(store.frozen) == 2            # at the compact threshold
        store.note("index", 3, ("f", 3), "/d", 1.0, {"w"}, "w")
        store.sync(dev, 4, NULL_TRACER, force_seal=True)
        # past it: folded to one segment, the merged-away records deleted
        assert sorted(dev.record_keys()) == ["seg:s000003", "segmanifest"]
        assert SegmentStore.audit(dev) == []

    def test_sync_with_nothing_to_do_writes_nothing(self):
        store, dev = self.sealed()
        before = dev.record_write_index
        store.sync(dev, 2, NULL_TRACER)
        assert dev.record_write_index == before

    def test_the_store_keeps_no_device(self):
        store, dev = self.sealed()
        assert dev not in vars(store).values()

    def test_load_without_a_manifest(self):
        assert SegmentStore.load(BlockDevice(), Counters()) is None

    def test_missing_segment_is_unusable_and_counted(self):
        _store, dev = self.sealed()
        dev.delete_record("seg:s000001")
        counters = Counters()
        assert SegmentStore.load(dev, counters) is None
        assert counters.get("restore.segment_missing") == 1
        assert [(kind, key) for kind, key, _d in SegmentStore.audit(dev)] \
            == [("missing-segment", "seg:s000001")]

    def test_corrupt_segment_raises(self):
        _store, dev = self.sealed()
        dev.corrupt_record("seg:s000000")
        counters = Counters()
        with pytest.raises(CorruptRecord):
            SegmentStore.load(dev, counters)
        assert counters.get("restore.segment_corrupt") == 1

    def test_orphan_is_an_audit_finding_and_sync_deletes_it(self):
        store, dev = self.sealed()
        dev.write_record("seg:zz9999", serialization.dumps(["bogus"]))
        assert [(kind, key) for kind, key, _d in SegmentStore.audit(dev)] \
            == [("orphan-segment", "seg:zz9999")]
        store.sync(dev, 2, NULL_TRACER)
        assert "seg:zz9999" not in dev.record_keys()
        assert SegmentStore.audit(dev) == []

    def test_sync_heals_a_rollback_underneath_the_store(self):
        """A soft-failure rollback restores the device to its pre-intent
        records while the store has already compacted in memory: the
        merged record vanishes, the merged-away ones reappear.  The next
        sync re-derives what to write from the device and converges."""
        store, dev = self.sealed()
        before = {key: dev.read_record(key) for key in dev.record_keys()}
        store.sync(dev, 2, NULL_TRACER, force_compact=True)
        assert sorted(dev.record_keys()) == ["seg:s000002", "segmanifest"]
        for key in dev.record_keys():            # the rollback
            dev.delete_record(key)
        for key, data in before.items():
            dev.write_record(key, data)
        assert SegmentStore.audit(dev) == []     # consistent, but stale
        store.sync(dev, 2, NULL_TRACER)
        assert sorted(dev.record_keys()) == ["seg:s000002", "segmanifest"]
        revived, _next = SegmentStore.load(dev, Counters())
        assert revived.live_rows() == {
            key: r._replace(text=None) for key, r in store.live_rows().items()}


def build_engine(segmented=True):
    texts = {}
    eng = CBAEngine(loader=texts.__getitem__,
                    transducer=default_transducer, segmented=segmented)
    return eng, texts


def search_paths(eng, query):
    hits = eng.search(parse_query(query))
    return sorted(eng.doc_by_id(d).path for d in hits)


class TestEngineIntegration:
    def test_replica_catches_up_from_segments(self):
        eng, texts = build_engine()
        texts[("f", 1)] = "alpha beta"
        eng.index_document(("f", 1), path="/one", mtime=1.0,
                           text=texts[("f", 1)])
        replica = eng.attach_replica("r0")
        texts[("f", 2)] = "alpha gamma"
        eng.index_document(("f", 2), path="/two", mtime=2.0,
                           text=texts[("f", 2)])
        eng.remove_document(("f", 1))
        eng.publish()
        assert search_paths(replica.engine, "alpha") == ["/two"]
        assert replica.engine.doc_id_of(("f", 2)) == \
            eng.doc_id_of(("f", 2))

    def test_replica_handles_tombstone_then_revival(self):
        eng, texts = build_engine()
        texts[("f", 1)] = "alpha"
        eng.index_document(("f", 1), path="/one", mtime=1.0,
                           text=texts[("f", 1)])
        replica = eng.attach_replica("r0")
        eng.remove_document(("f", 1))
        eng.publish()
        assert search_paths(replica.engine, "alpha") == []
        # the key returns with a fresh doc id — the replica must retire
        # the old incarnation and adopt the new one
        texts[("f", 1)] = "alpha reborn"
        eng.index_document(("f", 1), path="/one", mtime=3.0,
                           text=texts[("f", 1)])
        eng.publish()
        assert search_paths(replica.engine, "reborn") == ["/one"]
        assert replica.engine.doc_id_of(("f", 1)) == \
            eng.doc_id_of(("f", 1))

    def test_from_segments_restores_without_tokenising(self):
        eng, texts = build_engine()
        for i, words in enumerate(["alpha beta", "beta gamma", "alpha"]):
            texts[("f", i)] = words
            eng.index_document(("f", i), path=f"/{i}", mtime=1.0,
                               text=words)
        eng.remove_document(("f", 2))
        eng.segments.seal()
        counters = Counters()
        revived = CBAEngine.from_segments(
            eng.segments, loader=texts.__getitem__,
            next_doc_id=eng._next_doc_id, transducer=default_transducer,
            counters=counters)
        for q in ("alpha", "beta AND NOT gamma", "gamma"):
            assert search_paths(revived, q) == search_paths(eng, q), q
        assert counters.get("engine.tokenisations") == 0
        assert counters.get("engine.restored_docs") == 2
        assert revived._next_doc_id == eng._next_doc_id

    def test_doc_rows_mirror_live_state(self):
        eng, texts = build_engine()
        texts[("f", 1)] = "alpha beta"
        eng.index_document(("f", 1), path="/one", mtime=1.5,
                           text=texts[("f", 1)])
        rows = eng.doc_rows()
        assert set(rows) == {("f", 1)}
        r = rows[("f", 1)]
        assert r.kind == "upsert"
        assert r.path == "/one"
        # the transducer adds field terms (name:...) beyond the body words
        assert frozenset({"alpha", "beta"}) <= r.terms
        assert r.text is None                # synthesized, not re-read

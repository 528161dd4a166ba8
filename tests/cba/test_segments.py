"""Unit tests for the segmented index store: memtable, seal, compaction,
replica handoff, and zero-tokenisation restore."""

import pytest

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.segments import (
    KINDS,
    Segment,
    SegmentRow,
    SegmentStore,
    _coalesce,
)
from repro.cba.transducers import default_transducer
from repro.errors import CorruptRecord
from repro.obs.trace import NULL_TRACER
from repro.util import pathutil, serialization
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
        [revived] = Segment.from_bytes(Segment("s", (r,)).to_bytes()).rows
        assert revived.text is None          # never serialized
        assert revived.terms == frozenset({"a", "b"})
        assert revived.size == 3             # captured at note time
        assert (revived.kind, revived.doc_id, revived.key, revived.path,
                revived.mtime) == ("upsert", 3, ("fsid", 7), "/a", 2.5)

    def test_segment_roundtrip(self):
        seg = Segment("s000001", (row("upsert", 1, ("f", 1), terms={"t"}),
                                  row("remove", 2, ("f", 2))))
        revived = Segment.from_bytes(seg.to_bytes())
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
        # sealing is persistence only: nothing reaches the publication log
        assert store.log == [] and store.unpublished is None

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

    def test_publication_cut_leaves_persistence_alone(self):
        store = SegmentStore(seal_threshold=1)
        store.note("index", 1, ("f", 1), "/a", 1.0, {"x"}, "x")
        assert store.unpublished is None     # nobody reads cuts yet
        assert store.cut() == 0              # empty: opens buffering only
        store.note("update", 1, ("f", 1), "/a", 2.0, {"y"}, "y")
        store.note("index", 2, ("f", 2), "/b", 1.0, {"z"}, "z")
        assert store.cut() == 1
        [cut] = store.log
        # coalesced per key, newest row winning
        assert [(r.doc_id, r.terms) for r in cut.rows] == \
            [(1, frozenset({"y"})), (2, frozenset({"z"}))]
        assert store.unpublished == {}
        # the memtable still holds every row for the next seal, and the
        # cut sealed nothing although the memtable is past its threshold
        assert len(store.memtable) == 2 and store.frozen == []
        assert store.should_seal
        assert store.cut() == 1              # nothing noted: no empty cut

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

    def test_resume_continues_above_the_device(self):
        """A store built before it knew the device (a rebuild reopen)
        seals above every id the device holds, so ``sync`` writes its
        segment instead of keeping a stale namesake."""
        dev = BlockDevice()
        old = SegmentStore()
        old.note("index", 1, ("f", 1), "/a", 1.0, {"stale"}, "x")
        old.sync(dev, 2, NULL_TRACER, force_seal=True)
        dev.write_record("seg:s000004", serialization.dumps(["orphan"]))
        store = SegmentStore.resume(dev)
        store.note("index", 1, ("f", 1), "/a", 2.0, {"fresh"}, "x")
        store.sync(dev, 2, NULL_TRACER, force_seal=True)
        assert [seg.seg_id for seg in store.frozen] == ["s000005"]
        assert sorted(dev.record_keys()) == ["seg:s000005", "segmanifest"]
        revived, _next = SegmentStore.load(dev, Counters())
        assert revived.live_rows()[("f", 1)].terms == frozenset({"fresh"})
        assert revived._next_seg == 6
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

    def test_frozen_segments_hold_no_text(self):
        """Seal and compaction keep terms, not the corpus: after a drained
        batch and a reindex no frozen row carries text, while a replica
        still verifies a snapshot scan against the text as of its
        publish."""
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem()
        hac.makedirs("/d")
        hac.watch("/d")
        hac.maintenance.set_mode("batched")
        hac.engine.snapshot_view()               # a replica reads the cuts
        for i in range(200):
            words = b"alpha beta\n" if i == 0 else b"beta gamma\n"
            hac.write_file(f"/d/f{i:03d}.txt", words * 40)
        hac.maintenance.drain()
        hac.reindex("/")
        frozen = hac.engine.segments.frozen
        assert sum(len(seg) for seg in frozen) == 200
        assert [r for seg in frozen for r in seg.rows if r.text is not None] \
            == []
        hac.write_file("/d/f000.txt", b"beta alpha\n")   # pending, unpublished
        assert hac.glimpse('"alpha beta"', "/d", "snapshot") == ["/d/f000.txt"]
        assert hac.glimpse('"alpha beta"', "/d") == []

    def test_doc_rows_mirror_live_state(self):
        eng, texts = build_engine()
        texts[("f", 1)] = "alpha beta"
        eng.index_document(("f", 1), path="/one", mtime=1.5,
                           text=texts[("f", 1)])
        rows = {row.key: row for row in eng.live_segment().rows}
        assert set(rows) == {("f", 1)}
        r = rows[("f", 1)]
        assert r.kind == "upsert"
        assert r.path == "/one"
        # the transducer adds field terms (name:...) beyond the body words
        assert frozenset({"alpha", "beta"}) <= r.terms
        assert r.text is None                # synthesized, not re-read


def _dirs_of(paths):
    """Every directory at or above a registered path."""
    out = {"/"}
    for path in paths:
        while path != "/":
            path = pathutil.dirname(path)
            out.add(path)
    return out


def engine_state(eng):
    """What a restored engine must reproduce exactly: per-term doc and
    block postings and document frequency, the documents under every
    directory, the registry, and the reported index size."""
    idx = eng.index
    df = dict(idx.lexicon.terms())
    return {
        "df": df,
        "docs": {t: idx.docs_with_term(t) for t in df},
        "blocks": {t: idx.blocks_with_term(t) for t in df},
        "under": {d: eng.cas.docs_under(d)
                  for d in _dirs_of(doc.path for doc in eng._docs.values())},
        "registry": dict(eng._docs),
        "next": eng._next_doc_id,
        "size": eng.index_size_bytes(),
    }


class TestRestoredEngineEquivalence:
    """``from_segments`` rebuilds exactly the engine that wrote the
    segments — for one merged segment, for several sealed ones carrying
    tombstones, rename rows and revived ids, and for a list cut short by
    a crash with rows still in the memtable — and the two stay equal
    under the same later mutations.  The install reads no document and
    tokenises nothing."""

    WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta",
             "kappa", "lambda", "omicron")

    def text(self, rng):
        return " ".join(rng.choice(self.WORDS)
                        for _ in range(rng.randint(1, 6)))

    def phases(self):
        """Three rounds of engine mutations, each ending in a seal."""
        import random

        rng = random.Random(0x5E6)
        dirs = ["/a", "/a/b", "/a/b/c", "/d"]

        def ingest(eng, texts):
            for i in range(40):
                texts[("f", i)] = self.text(rng)
                eng.index_document(("f", i), f"{dirs[i % 4]}/f{i}.txt",
                                   1.0, texts[("f", i)])

        def churn(eng, texts):
            for i in range(0, 8):
                eng.remove_document(("f", i))
            for i in range(8, 14):
                texts[("f", i)] = self.text(rng)
                eng.update_document(("f", i), eng.doc_by_key(("f", i)).path,
                                    2.0, texts[("f", i)])
            # a move within the name is a bare rename row; a new name
            # re-derives the transducer's terms
            eng.rename_document(("f", 14), "/d/f14.txt")
            eng.rename_document(("f", 15), "/d/renamed15.txt")
            eng.rebase_paths("/a/b", "/e/b")

        def revive(eng, texts):
            for i in (0, 1, 2):
                texts[("f", i)] = self.text(rng) + " reborn"
                eng.index_document(("f", i), f"/d/f{i}.txt", 3.0,
                                   texts[("f", i)])
            eng.remove_document(("f", 14))
            eng.rebase_paths("/e", "/a")

        # one rng stream per world: each phase draws as it runs
        return ingest, churn, revive

    def world(self, phases, synced, compact=False):
        """An engine after *phases* (each synced to its device when its
        index is below *synced*), and the device."""
        texts = {}
        eng = CBAEngine(loader=texts.__getitem__,
                        transducer=default_transducer, segmented=True)
        dev = BlockDevice()
        for n, phase in enumerate(phases):
            phase(eng, texts)
            if n < synced:
                eng.segments.sync(dev, eng._next_doc_id, NULL_TRACER,
                                  force_seal=True,
                                  force_compact=compact and n == synced - 1)
        return eng, texts, dev

    def restore(self, dev, texts):
        counters, reads = Counters(), []

        def loader(key):
            reads.append(key)
            return texts[key]

        store, next_doc_id = SegmentStore.load(dev, counters)
        restored = CBAEngine.from_segments(
            store, loader, next_doc_id=next_doc_id,
            transducer=default_transducer, counters=counters)
        assert counters.get("engine.tokenisations") == 0
        assert reads == []
        return restored

    def later(self, eng, texts):
        """The same remove, update and rename, applied to either engine."""
        eng.remove_document(("f", 20))
        texts[("f", 21)] = "omega alpha"
        eng.update_document(("f", 21), eng.doc_by_key(("f", 21)).path,
                            9.0, texts[("f", 21)])
        eng.rename_document(("f", 22), "/z/f22.txt")
        eng.rebase_paths("/d", "/y")

    def assert_twins(self, expected, texts, restored):
        assert engine_state(restored) == engine_state(expected)
        self.later(expected, texts)
        self.later(restored, dict(texts))
        assert engine_state(restored) == engine_state(expected)

    def test_one_merged_segment(self):
        eng, texts, dev = self.world(self.phases(), synced=3, compact=True)
        assert len(eng.segments.frozen) == 1
        self.assert_twins(eng, texts, self.restore(dev, texts))

    def test_sealed_segments_with_tombstones_renames_and_revivals(self):
        eng, texts, dev = self.world(self.phases(), synced=3)
        frozen = eng.segments.frozen
        assert len(frozen) == 3
        assert {KINDS[code] for seg in frozen for code in seg.kinds} == \
            set(KINDS)
        revived = [seg.doc_ids[i] for seg in frozen
                   for i, key in enumerate(seg.keys) if key == ("f", 0)]
        assert len(set(revived)) == 2        # the tombstoned id, then anew
        self.assert_twins(eng, texts, self.restore(dev, texts))

    def test_memtable_lost_at_a_crash(self):
        """The last phase never sealed: the restore equals the engine as
        of the last sync, which a world that stopped there still is."""
        eng, texts, dev = self.world(self.phases(), synced=2)
        assert len(eng.segments.memtable) > 0
        expected, expected_texts, _dev = self.world(self.phases()[:2],
                                                    synced=2)
        restored = self.restore(dev, texts)
        assert engine_state(restored) != engine_state(eng)
        self.assert_twins(expected, expected_texts, restored)

    @staticmethod
    def saved_and_restored(backend, monkeypatch):
        """A world on *backend* after churn and ``save_index``, and its
        reopen with every loader read recorded; returns the world, the
        reopen, the reopen's counters and the keys it read."""
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem(backend=backend)
        hac.makedirs("/d/e")
        for i in range(30):
            hac.write_file(f"/d{'/e' * (i % 2)}/f{i}.txt",
                           b"alpha beta %d\n" % i)
        hac.ssync("/")
        hac.unlink("/d/f0.txt")
        hac.rename("/d/e", "/d/g")
        hac.ssync("/")
        hac.save_index()
        reads = []
        load_doc = HacFileSystem._load_doc

        def counting(self, key):
            reads.append(key)
            return load_doc(self, key)

        monkeypatch.setattr(HacFileSystem, "_load_doc", counting)
        counters = Counters()
        restored = HacFileSystem.restore(hac.fs, counters=counters)
        return hac, restored, counters, reads

    def test_hac_restore_after_save_index_reads_and_tokenises_nothing(
            self, monkeypatch):
        hac, restored, counters, reads = self.saved_and_restored(
            "monolith", monkeypatch)
        assert counters.get("engine.tokenisations") == 0
        assert reads == []
        assert engine_state(restored.engine) == engine_state(hac.engine)

    def test_a_cluster_restore_after_save_index_reads_and_tokenises_nothing(
            self, monkeypatch):
        """Each shard installs its own segment; the coordinator's registry
        and owners are the shard rows'.  A shard's allocator comes back as
        the cluster's: the coordinator pins every id it hands a shard."""
        hac, restored, counters, reads = self.saved_and_restored(
            "cluster:3", monkeypatch)
        assert counters.get("engine.tokenisations") == 0
        assert counters.get("restore.index_from_segments") == 1
        assert reads == []
        old, new = hac.engine, restored.engine
        assert new._docs == old._docs and new._owners == old._owners
        assert new._next_doc_id == old._next_doc_id
        assert new.all_docs() == old.all_docs()
        for sid, shard in old.shards.items():
            assert new.members(sid) == old.members(sid)
            state = engine_state(new.shards[sid].engine)
            assert state.pop("next") == new._next_doc_id
            want = engine_state(shard.engine)
            want.pop("next")
            assert state == want, sid
        for path in ("/", "/d", "/d/g"):
            assert new.scope_docs(path) == old.scope_docs(path), path

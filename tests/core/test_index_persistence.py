"""Persisting the content index and fast recovery."""

import pytest

from repro.cba.backend import open_backend
from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.cba.transducers import default_transducer
from repro.core.hacfs import HacFileSystem


class TestEngineDump:
    def test_roundtrip_searches_identically(self):
        store = {"a": "alpha beta", "b": "From: alice\n\nalpha", "c": "gamma"}
        eng = CBAEngine(loader=store.__getitem__,
                        transducer=default_transducer)
        for key in sorted(store):
            eng.index_document(key, path=f"/{key}", mtime=1.0)
        # keys must look like (fsid, ino) for the dump; use tuples
        eng2_store = dict(store)
        dumped = CBAEngine(loader=lambda k: eng2_store.get(k[0], ""),
                           transducer=default_transducer)
        for i, key in enumerate(sorted(store)):
            dumped.index_document((key, i), path=f"/{key}", mtime=1.0,
                                  text=store[key])
        revived = CBAEngine.from_obj(dumped.to_obj(),
                                     loader=dumped.loader,
                                     transducer=default_transducer)
        for q in ("alpha", "from:alice", "alpha AND NOT gamma"):
            ast = parse_query(q)
            assert revived.search(ast) == dumped.search(ast), q
        assert len(revived) == len(dumped)
        assert revived.mtime_snapshot() == dumped.mtime_snapshot()

    def test_revived_engine_keeps_doc_ids(self):
        store = {("f", 1): "alpha", ("f", 2): "beta"}
        eng = CBAEngine(loader=store.__getitem__)
        for key in sorted(store):
            eng.index_document(key, path=f"/{key[1]}", mtime=0.0)
        revived = CBAEngine.from_obj(eng.to_obj(), loader=store.__getitem__)
        for key in store:
            assert revived.doc_id_of(key) == eng.doc_id_of(key)
        # new documents get fresh ids
        store[("f", 3)] = "gamma"
        new_id = revived.index_document(("f", 3), path="/3", mtime=0.0)
        assert new_id not in (eng.doc_id_of(k) for k in store if k != ("f", 3))


class TestHacRecovery:
    def test_save_and_restore_skips_retokenising(self, populated):
        populated.smkdir("/fp", "fingerprint")
        saved_bytes = populated.save_index()
        assert saved_bytes > 0

        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("engine.restored_docs") == 5
        # the incremental sync after restore had nothing to do
        assert revived.counters.get("engine.indexed") == 0
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_without_saved_index_merges_segments(self, populated):
        # no explicit save_index, but the segmented store persisted the
        # frozen segments at reindex time — restore folds them back with
        # zero tokenisation (reindex-as-merge) instead of rebuilding
        populated.smkdir("/fp", "fingerprint")
        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("restore.index_from_segments") == 1
        assert revived.counters.get("engine.restored_docs") == 5
        assert revived.counters.get("engine.indexed") == 0
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_without_segments_rebuilds(self, populated):
        populated.smkdir("/fp", "fingerprint")
        revived = HacFileSystem.restore(
            populated.fs, backend=open_backend("monolith", segmented=False))
        assert revived.counters.get("engine.restored_docs") == 0
        assert revived.counters.get("engine.indexed") == 5
        assert sorted(revived.links("/fp")) == sorted(populated.links("/fp"))

    def test_restore_catches_up_on_changes_since_save(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.save_index()
        populated.clock.tick()
        populated.write_file("/notes/late.txt", b"a late fingerprint note")
        populated.unlink("/mail/msg2.txt")
        revived = HacFileSystem.restore(populated.fs)
        assert revived.counters.get("engine.indexed") == 1   # only late.txt
        assert revived.counters.get("engine.removed") == 1   # only msg2
        assert "late.txt" in revived.listdir("/fp")

    def test_reuse_index_opt_out(self, populated):
        populated.save_index()
        revived = HacFileSystem.restore(populated.fs, reuse_index=False)
        assert revived.counters.get("engine.restored_docs") == 0
        assert len(revived.engine) == 5

    @pytest.mark.parametrize("backend", ["monolith", "cluster:3"])
    def test_restore_keeps_num_blocks_on_every_rebuild_path(self, backend):
        """Block placement is ``doc_id % num_blocks`` and the stopword-region
        semantics depend on collocation, so every way ``restore`` builds an
        engine — saved index, segment merge, fresh rebuild — must come back
        with the block count the original was constructed with."""
        hac = HacFileSystem(num_blocks=256, backend=backend)
        hac.makedirs("/notes")
        for i in range(6):
            hac.write_file(f"/notes/n{i}.txt", b"the fingerprint ridge %d" % i)
        hac.clock.tick()
        hac.ssync("/")
        query = parse_query('"the fingerprint"')
        want = hac.engine.search(query).to_bytes()
        for kwargs in (
                {"backend": backend},
                {"backend": backend, "reuse_index": False},
                {"backend": open_backend(backend, segmented=False)}):
            again = HacFileSystem.restore(hac.fs, **kwargs)
            assert again.engine.num_blocks == 256, (backend, kwargs)
            assert again.engine.search(query).to_bytes() == want
        hac.save_index()
        again = HacFileSystem.restore(hac.fs, backend=backend)
        assert again.counters.get("restore.index_restored") == 1
        assert again.engine.num_blocks == 256

    def test_restored_world_is_fsck_clean(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.unlink("/fp/msg1.txt")
        populated.save_index()
        revived = HacFileSystem.restore(populated.fs)
        assert [f for f in revived.fsck() if f.severity == "error"] == []

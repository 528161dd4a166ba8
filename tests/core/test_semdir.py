"""Unit tests for per-directory state and the MetaStore."""

import pytest

from repro.cba.queryparser import parse_query
from repro.core.links import Target
from repro.core.semdir import MetaStore, SemanticDirState
from repro.util.bitmap import Bitmap
from repro.vfs.blockdev import BlockDevice


class TestState:
    def test_fresh_state_is_plain(self):
        state = SemanticDirState(uid=5)
        assert not state.is_semantic
        assert state.query is None
        assert not state.links.all_targets()

    def test_becomes_semantic_with_query(self):
        state = SemanticDirState(uid=5)
        state.query = parse_query("fingerprint")
        assert state.is_semantic

    def test_obj_roundtrip(self):
        state = SemanticDirState(uid=5)
        state.query = parse_query("a AND NOT b")
        state.query_text = "a AND NOT b"
        state.links.add_permanent("p", Target.local("f", 1))
        state.links.add_transient("t", Target.remote("n", "d"))
        state.links.prohibit("t")
        state.result_cache = Bitmap([3, 99])
        state.parent, state.name = 2, "raw/five"
        restored = SemanticDirState.from_obj(state.to_obj())
        assert restored.uid == 5
        assert (restored.parent, restored.name) == (2, "raw/five")
        assert restored.query == state.query
        assert restored.query_text == "a AND NOT b"
        assert restored.links.permanent == state.links.permanent
        assert restored.links.prohibited == state.links.prohibited
        assert restored.result_cache == state.result_cache

    def test_plain_state_roundtrip(self):
        state = SemanticDirState(uid=1)
        restored = SemanticDirState.from_obj(state.to_obj())
        assert not restored.is_semantic

    def test_repr(self):
        assert "plain" in repr(SemanticDirState(uid=1))


@pytest.fixture
def store():
    return MetaStore(BlockDevice())


class TestMetaStore:
    def test_create_get_require(self, store):
        state = store.create(7, 0, "d7")
        assert store.get(7) is state
        assert store.require(7) is state
        assert store.get(8) is None
        with pytest.raises(KeyError):
            store.require(8)

    def test_duplicate_create_rejected(self, store):
        store.create(7, 0, "d7")
        with pytest.raises(ValueError):
            store.create(7, 0, "d7")

    def test_create_persists_immediately(self, store):
        store.create(7, 0, "d7")
        assert "semdir:7" in store.device.record_keys()
        store.reload_all()
        assert store.places() == {7: (0, "d7")}
        assert store.metadata_bytes() > 0

    def test_drop(self, store):
        store.create(7, 0, "d7")
        store.drop(7)
        assert store.get(7) is None
        assert "semdir:7" not in store.device.record_keys()
        store.drop(7)  # idempotent

    def test_flush_writes_current_state(self, store):
        state = store.create(7, 0, "d7")
        state.query = parse_query("x")
        state.query_text = "x"
        store.flush(7)
        store.reload_all()
        assert store.require(7).query_text == "x"

    def test_reload_all_rebuilds_everything(self, store):
        for uid in (1, 2, 3):
            state = store.create(uid, 0, f"d{uid}")
            state.links.add_permanent(f"n{uid}", Target.local("f", uid))
            store.flush(uid)
        store.reload_all()
        assert len(store) == 3
        assert store.require(2).links.target_of("n2") == Target.local("f", 2)

    def test_aux_records(self, store):
        store.flush_aux("engineconf", {"num_blocks": 8})
        assert store.load_aux("engineconf") == {"num_blocks": 8}
        assert store.load_aux("absent") is None

    def test_metadata_bytes_tracks_store(self, store):
        before = store.metadata_bytes()
        store.create(1, 0, "d1")
        assert store.metadata_bytes() > before

    def test_uids_and_contains(self, store):
        store.create(3, 0, "d3")
        assert list(store.uids()) == [3]
        assert 3 in store and 4 not in store

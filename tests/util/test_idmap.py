"""Unit tests for the global UID ↔ path map (the §2.5 rename fix)."""

import pytest

from repro.util.idmap import GlobalDirectoryMap


@pytest.fixture
def gm():
    m = GlobalDirectoryMap()
    m.register("/a")
    m.register("/a/b")
    m.register("/a/b/c")
    m.register("/x")
    return m


class TestRegistration:
    def test_root_preregistered(self):
        m = GlobalDirectoryMap()
        assert m.uid_of("/") == 0
        assert m.path_of(0) == "/"

    def test_register_allocates_fresh_uids(self, gm):
        uids = [gm.uid_of(p) for p in ("/a", "/a/b", "/a/b/c", "/x")]
        assert len(set(uids)) == 4
        assert all(u > 0 for u in uids)

    def test_duplicate_registration_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.register("/a")

    def test_unregister(self, gm):
        uid = gm.unregister("/x")
        assert gm.uid_of("/x") is None
        assert gm.path_of(uid) is None

    def test_uids_never_reused(self, gm):
        gone = gm.unregister("/x")
        fresh = gm.register("/y")
        assert fresh != gone

    def test_contains_and_len(self, gm):
        assert "/a/b" in gm
        assert "/nope" not in gm
        assert len(gm) == 5  # root + 4


class TestRename:
    def test_rename_updates_whole_subtree(self, gm):
        uid_b = gm.uid_of("/a/b")
        uid_c = gm.uid_of("/a/b/c")
        moved = gm.rename_subtree("/a/b", "/moved")
        assert {(u, old) for u, old, _new in moved} == {
            (uid_b, "/a/b"), (uid_c, "/a/b/c")}
        assert gm.path_of(uid_b) == "/moved"
        assert gm.path_of(uid_c) == "/moved/c"
        assert gm.uid_of("/a/b") is None

    def test_uids_stable_across_rename(self, gm):
        uid = gm.uid_of("/a/b/c")
        gm.rename_subtree("/a", "/z")
        assert gm.uid_of("/z/b/c") == uid

    def test_rename_root_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.rename_subtree("/", "/y")

    def test_rename_collision_rejected(self, gm):
        with pytest.raises(ValueError):
            gm.rename_subtree("/a/b", "/x")

    def test_prefix_sibling_untouched(self, gm):
        gm.register("/ab")
        gm.rename_subtree("/a", "/q")
        assert gm.uid_of("/ab") is not None


class TestSubtreeAndSnapshot:
    def test_subtree_uids(self, gm):
        subtree = set(gm.subtree_uids("/a"))
        assert subtree == {gm.uid_of("/a"), gm.uid_of("/a/b"), gm.uid_of("/a/b/c")}
        strict = set(gm.subtree_uids("/a", strict=True))
        assert gm.uid_of("/a") not in strict

    def test_snapshot_restore_roundtrip(self, gm):
        """What the records store — each directory's place — loads back
        into the very map that placed them."""
        places = {uid: gm.place_of(path) for uid, path in gm.items()
                  if uid != 0}
        assert places[gm.uid_of("/a/b/c")] == (gm.uid_of("/a/b"), "c")
        restored = GlobalDirectoryMap()
        restored.load_places(places, ())
        assert dict(restored.items()) == dict(gm.items())
        # the allocator must not clash with restored uids
        fresh = restored.register("/new")
        assert fresh not in places

    def test_restore_reinstates_root(self):
        restored = GlobalDirectoryMap()
        restored.load_places({5: (0, "only")}, ())
        assert restored.uid_of("/") == 0
        assert restored.path_of(5) == "/only"

    def test_reload_never_reuses_a_uid_a_query_still_names(self):
        restored = GlobalDirectoryMap()
        restored.load_places({1: (0, "a")}, {2, 7})
        assert restored.register("/new") == 8
        # an unplaceable record's uid is taken too: a record carries it
        restored.load_places({1: (0, "a"), 9: (4, "lost")}, ())
        assert restored.register("/new") == 10

    def test_reload_never_moves_the_allocator_back(self):
        gm = GlobalDirectoryMap()
        gm.load_places({1: (0, "a")}, ())
        assert gm.register("/b") == 2
        # /b was removed and its record is gone; its uid stays spent
        gm.load_places({1: (0, "a")}, ())
        assert gm.register("/c") == 3


class TestPlaces:
    """``load_places`` is the restore boundary: it ends, and gives one
    answer, on every input."""

    def test_place_below_an_unknown_directory(self, gm):
        assert gm.place_of("/a/raw/sub") == (gm.uid_of("/a"), "raw/sub")
        assert gm.place_of("/top") == (0, "top")
        restored = GlobalDirectoryMap()
        restored.load_places({1: (0, "a"), 2: (1, "raw/sub")}, ())
        assert restored.path_of(2) == "/a/raw/sub"

    def test_placed_before_its_parent_by_uid(self):
        restored = GlobalDirectoryMap()
        restored.load_places({1: (3, "old"), 3: (0, "young")}, ())
        assert restored.path_of(1) == "/young/old"

    @pytest.mark.parametrize("places", [
        {4: (99, "lost")},                 # missing parent
        {4: (4, "self")},                  # itself as its parent
        {4: (5, "x"), 5: (4, "y")},        # a cycle
        {4: (None, "none")},               # no parent, not the root
    ], ids=["missing", "self", "cycle", "none"])
    def test_unreachable_records_stay_out(self, places):
        restored = GlobalDirectoryMap()
        restored.load_places(places, ())
        assert dict(restored.items()) == {0: "/"}

    def test_two_claims_on_one_path_load_the_same_way(self):
        places = {7: (0, "a"), 3: (0, "a"), 8: (7, "child")}
        for order in (places, dict(reversed(list(places.items())))):
            restored = GlobalDirectoryMap()
            restored.load_places(order, ())
            # siblings in uid order: 3 is reached first; 7 and what it
            # holds stay out
            assert dict(restored.items()) == {0: "/", 3: "/a"}

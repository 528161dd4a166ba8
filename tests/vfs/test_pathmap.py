"""Unit tests for the path map: the tree folded into a hash table."""

import pytest

from repro.util.stats import Counters
from repro.vfs.filesystem import FileSystem
from repro.vfs.pathmap import STALE, PathMap


class Node:
    def __init__(self, name):
        self.name = name


class TestPathMapUnit:
    def test_miss_insert_hit(self):
        counters = Counters()
        pm = PathMap(counters=counters)
        node = Node("a")
        assert pm.lookup("/a") is None
        pm.insert("/a", node)
        assert pm.lookup("/a") is node
        assert counters.get("pathmap.miss") == 1
        assert counters.get("pathmap.insert") == 1
        assert counters.get("pathmap.hit") == 1
        assert len(pm) == 1

    def test_invalidate_tombstones_and_lookup_evicts(self):
        counters = Counters()
        pm = PathMap(counters=counters)
        pm.insert("/a", Node("a"))
        assert pm.invalidate("/a") == 1
        # detected, not trusted: the entry is a tombstone until a lookup
        assert pm.entry_generation("/a") == STALE
        assert pm.lookup("/a") is None
        assert counters.get("pathmap.stale") == 1
        assert pm.entry_generation("/a") is None  # evicted
        # invalidating an absent or already-dead entry touches nothing
        assert pm.invalidate("/a") == 0

    def test_invalidate_prefix_kills_subtree_only(self):
        pm = PathMap()
        for path in ("/a", "/a/b", "/a/b/c", "/ab", "/z"):
            pm.insert(path, Node(path))
        assert pm.invalidate_prefix("/a") == 3
        assert pm.lookup("/ab") is not None  # sibling, not a descendant
        assert pm.lookup("/z") is not None
        assert pm.lookup("/a/b/c") is None

    def test_rebase_prefix_moves_entries_in_one_pass(self):
        counters = Counters()
        pm = PathMap(counters=counters)
        nodes = {p: Node(p) for p in ("/a", "/a/b", "/a/b/c", "/ax")}
        for path, node in nodes.items():
            pm.insert(path, node)
        gen_before = pm.generation
        assert pm.rebase_prefix("/a", "/n") == 3
        # same nodes, new keys, fresh generation — servable immediately
        assert pm.lookup("/n") is nodes["/a"]
        assert pm.lookup("/n/b/c") is nodes["/a/b/c"]
        assert pm.lookup("/a/b") is None
        assert pm.lookup("/ax") is nodes["/ax"]
        assert pm.entry_generation("/n/b") > gen_before
        assert counters.get("pathmap.rebased") == 3

    def test_rebase_skips_tombstones(self):
        pm = PathMap()
        pm.insert("/a/b", Node("b"))
        pm.invalidate("/a/b")
        assert pm.rebase_prefix("/a", "/n") == 0
        assert pm.lookup("/n/b") is None

    def test_liveness_backstop(self):
        live = {"ok": True}
        pm = PathMap(is_live=lambda node: live[node.name])
        pm.insert("/a", Node("ok"))
        assert pm.lookup("/a") is not None
        live["ok"] = False
        # no invalidation ever named /a, but the node died: not served
        assert pm.lookup("/a") is None

    def test_clear_and_live_keys(self):
        pm = PathMap()
        pm.insert("/a", Node("a"))
        pm.insert("/b", Node("b"))
        pm.invalidate("/b")
        assert pm.live_keys() == ["/a"]
        assert pm.clear() == 2  # tombstones drop too
        assert len(pm) == 0
        assert "generation" in repr(pm)

    def test_generation_counts_events_not_entries(self):
        pm = PathMap()
        for path in ("/a", "/a/b", "/a/c"):
            pm.insert(path, Node(path))
        before = pm.generation
        pm.invalidate_prefix("/a")  # one event, three entries
        assert pm.generation == before + 1


class TestFileSystemIntegration:
    def test_second_stat_is_served_without_walking(self):
        fs = FileSystem()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.write_file("/a/b/f.txt", b"x")
        fs.stat("/a/b/f.txt")  # warm
        hits = fs.counters.get("pathmap.hit")
        steps = fs.counters.get("vfs.walk_steps")
        fs.stat("/a/b/f.txt")
        assert fs.counters.get("pathmap.hit") == hits + 1
        assert fs.counters.get("vfs.walk_steps") == steps  # no walk at all

    def test_unlink_invalidates_exactly(self):
        fs = FileSystem()
        fs.mkdir("/a")
        fs.write_file("/a/f.txt", b"x")
        fs.write_file("/a/g.txt", b"y")
        fs.stat("/a/f.txt")
        fs.stat("/a/g.txt")
        fs.unlink("/a/f.txt")
        pm = fs._pathmap
        assert "/a/f.txt" not in pm.live_keys()
        assert "/a/g.txt" in pm.live_keys()

    def test_dir_rename_rebases_descendants_one_pass(self):
        """Satellite regression: after a directory rename, a stat on a
        *descendant* is answered from the rebased map entry — no walk."""
        fs = FileSystem()
        fs.mkdir("/proj")
        fs.mkdir("/proj/src")
        fs.mkdir("/proj/src/deep")
        fs.write_file("/proj/src/deep/f.txt", b"x")
        # warm every level
        for p in ("/proj", "/proj/src", "/proj/src/deep",
                  "/proj/src/deep/f.txt"):
            fs.stat(p)
        rebased_before = fs.counters.get("pathmap.rebased")
        fs.rename("/proj", "/work")
        assert fs.counters.get("pathmap.rebased") - rebased_before == 4
        steps = fs.counters.get("vfs.walk_steps")
        st = fs.stat("/work/src/deep/f.txt")
        assert st.is_file
        assert fs.counters.get("vfs.walk_steps") == steps, \
            "post-rename descendant stat walked the tree"
        # the old keys are gone, not stale-served
        with pytest.raises(Exception):
            fs.stat("/proj/src/deep/f.txt")

    def test_symlink_resolution_is_never_cached(self):
        fs = FileSystem()
        fs.mkdir("/a")
        fs.write_file("/a/real.txt", b"x")
        fs.symlink("/a/real.txt", "/a/link")
        fs.stat("/a/link")  # follows the link: not literal
        assert "/a/link" not in fs._pathmap.live_keys()

    def test_dotdot_resolution_is_never_cached(self):
        fs = FileSystem()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.stat("/a/b/../b")
        assert all(".." not in k for k in fs._pathmap.live_keys())

    def test_mount_kills_covered_prefix(self):
        fs = FileSystem()
        fs.mkdir("/mnt")
        fs.mkdir("/mnt/sub")
        fs.stat("/mnt/sub")
        sub = FileSystem(name="sub")
        sub.write_file("/inner.txt", b"z")
        fs.mount("/mnt/sub", sub)
        assert "/mnt/sub" not in fs._pathmap.live_keys()
        # resolving across the mount is correct and uncached
        assert fs.read_file("/mnt/sub/inner.txt") == b"z"
        assert "/mnt/sub/inner.txt" not in fs._pathmap.live_keys()
        fs.unmount("/mnt/sub")
        assert fs.isdir("/mnt/sub")

    def test_walk_reference_never_touches_the_map(self):
        """``_walk`` is the map's miss path and the suites' reference: it
        resolves by components alone, neither probing nor filling the map."""
        fs = FileSystem()
        fs.mkdir("/a")
        fs.write_file("/a/f.txt", b"x")
        before = fs.counters.snapshot()
        owner, node, literal = fs._walk("/a/f.txt", follow_last=True)
        assert (owner, node, literal) == (fs, fs.resolve("/a/f.txt").node,
                                          True)
        after = fs.counters.diff(before)
        assert after.get("vfs.walk_steps") == 2
        assert not any(key.startswith("pathmap.") and key != "pathmap.hit"
                       for key in after), after
        assert after.get("pathmap.hit") == 1  # the resolve() above, only

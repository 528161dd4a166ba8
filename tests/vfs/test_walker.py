"""Unit tests for tree traversal helpers."""

import pytest

from repro.vfs.filesystem import FileSystem
from repro.vfs.walker import iter_files, iter_symlinks, walk


@pytest.fixture
def tree(fs):
    fs.makedirs("/a/b")
    fs.makedirs("/a/c")
    fs.write_file("/a/f1.txt", b"one")
    fs.write_file("/a/b/f2.txt", b"two")
    fs.symlink("/a/f1.txt", "/a/c/link")
    return fs


class TestWalk:
    def test_walk_yields_topdown_sorted(self, tree):
        out = list(walk(tree, "/"))
        assert out[0][0] == "/"
        paths = [d for d, _dn, _fn, _listed in out]
        assert paths == ["/", "/a", "/a/b", "/a/c"]

    def test_walk_lists_symlinks_as_files(self, tree):
        by_dir = {d: fn for d, _dn, fn, _listed in walk(tree, "/")}
        assert by_dir["/a/c"] == ["link"]

    def test_walk_pruning(self, tree):
        visited = []
        for dirpath, dirnames, _files, _listed in walk(tree, "/"):
            visited.append(dirpath)
            if dirpath == "/a":
                dirnames.remove("b")
        assert "/a/b" not in visited
        assert "/a/c" in visited

    def test_walk_non_dir_fails(self, tree):
        with pytest.raises(ValueError):
            list(walk(tree, "/a/f1.txt"))

    def test_walk_does_not_follow_symlink_cycles(self, fs):
        fs.mkdir("/d")
        fs.symlink("/d", "/d/self")
        assert len(list(walk(fs, "/"))) == 2  # "/", "/d" — no hang


@pytest.fixture
def mounted(tree):
    guest = FileSystem(name="g")
    guest.makedirs("/deep")
    guest.write_file("/inner.txt", b"g")
    guest.write_file("/deep/leaf.txt", b"gg")
    guest.symlink("/inner.txt", "/deep/glink")
    tree.mkdir("/mnt")
    tree.mount("/mnt", guest)
    return tree, guest


class TestListedDirectory:
    """``walk`` hands out the directory it lists (``os.fwalk``'s dirfd):
    ``dirnode.entries[name]`` is the node a path lookup would find."""

    def test_children_are_the_resolved_nodes(self, mounted):
        tree, _guest = mounted
        seen = 0
        for dirpath, _dirnames, filenames, (owner, dirnode) in walk(tree, "/"):
            assert tree.resolve(dirpath).node is dirnode
            for name in filenames:
                res = tree.resolve(dirpath + "/" + name, follow=False)
                assert dirnode.entries[name] is res.node
                assert owner is res.fs
                seen += 1
        # f1, f2, link + the guest's inner, leaf, glink
        assert seen == 6

    def test_owner_under_a_mount_is_the_mounted_fs(self, mounted):
        tree, guest = mounted
        owners = {d: owner for d, _dn, _fn, (owner, _n) in walk(tree, "/")}
        assert owners["/a"] is tree
        assert owners["/mnt"] is guest and owners["/mnt/deep"] is guest
        listed = {d: node for d, _dn, _fn, (_o, node) in walk(tree, "/")}
        assert listed["/mnt"] is guest.root  # the mount is already crossed

    def test_cross_mounts_false_skips_the_mount_point(self, mounted):
        tree, guest = mounted
        steps = list(walk(tree, "/", cross_mounts=False))
        assert all(owner is tree for _d, _dn, _fn, (owner, _n) in steps)
        assert "mnt" not in steps[0][1]

    def test_pruning_keeps_the_listed_pair_in_step(self, mounted):
        tree, _guest = mounted
        visited = []
        for dirpath, dirnames, _files, (_owner, dirnode) in walk(tree, "/"):
            visited.append(dirpath)
            assert tree.resolve(dirpath).node is dirnode
            if dirpath == "/mnt":
                del dirnames[:]
        assert "/mnt/deep" not in visited and "/a/b" in visited


class TestIterFiles:
    def test_iter_files(self, tree):
        # top-down: a directory's own files come before its subtrees'
        paths = [p for p, _n in iter_files(tree, "/")]
        assert paths == ["/a/f1.txt", "/a/b/f2.txt"]

    def test_iter_symlinks(self, tree):
        assert [p for p, _n in iter_symlinks(tree)] == ["/a/c/link"]

    def test_iter_nodes_are_the_resolved_nodes(self, mounted):
        tree, _guest = mounted
        for it in (iter_files, iter_symlinks):
            pairs = list(it(tree, "/"))
            assert len(pairs) == {iter_files: 4, iter_symlinks: 2}[it]
            for path, node in pairs:
                assert node is tree.resolve(path, follow=False).node

    def test_iter_files_crosses_mounts(self, tree):
        guest = FileSystem(name="g")
        guest.write_file("/inner.txt", b"g")
        tree.mkdir("/mnt")
        tree.mount("/mnt", guest)
        paths = [p for p, _n in iter_files(tree, "/")]
        assert "/mnt/inner.txt" in paths

    def test_iter_files_can_skip_mounts(self, tree):
        guest = FileSystem(name="g")
        guest.write_file("/inner.txt", b"g")
        tree.mkdir("/mnt")
        tree.mount("/mnt", guest)
        paths = [p for p, _n in iter_files(tree, "/", cross_mounts=False)]
        assert "/mnt/inner.txt" not in paths

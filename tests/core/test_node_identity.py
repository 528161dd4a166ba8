"""A name is not an identity: ``stat`` answers for the node a name reaches
now, whatever renames, aliases, writes or unmounts came between (§4).

The attribute cache holds ``(fsid, ino)`` keys, never attributes, so a hit
only saves the metadata read; the attributes always come from the node.
"""

import pytest

from repro.errors import FileNotFound
from repro.vfs.filesystem import FileSystem

from tests.properties.derived import assert_stat_is_the_nodes


class TestStatFollowsTheNode:
    def test_write_through_the_target_reaches_a_link(self, hacfs):
        hacfs.mkdir("/d")
        hacfs.write_file("/d/a.txt", b"hello")
        hacfs.symlink("/d/a.txt", "/l")
        assert hacfs.stat("/l").size == 5
        hacfs.write_file("/d/a.txt", b"hello, world")
        assert hacfs.stat("/l").size == 12
        assert_stat_is_the_nodes(hacfs, ["/l"])

    def test_renamed_target_breaks_the_link(self, hacfs):
        hacfs.mkdir("/d")
        hacfs.write_file("/d/b.txt", b"abc")
        hacfs.symlink("/d/b.txt", "/m")
        hacfs.stat("/m")
        hacfs.rename("/d/b.txt", "/d/c.txt")
        with pytest.raises(FileNotFound):
            hacfs.stat("/m")

    def test_unmount_ends_the_mounted_names(self, hacfs):
        other = FileSystem(name="other", clock=hacfs.clock)
        other.mkdir("/x")
        other.write_file("/x/f.txt", b"mounted")
        hacfs.mkdir("/mnt")
        hacfs.mount("/mnt", other)
        assert hacfs.stat("/mnt/x/f.txt").size == 7
        hacfs.unmount("/mnt")
        with pytest.raises(FileNotFound):
            hacfs.stat("/mnt/x/f.txt")

    def test_removed_directory_ends_its_alias(self, hacfs):
        hacfs.mkdir("/real")
        hacfs.symlink("/real", "/alias")
        assert hacfs.stat("/alias").is_dir
        hacfs.rmdir("/real")
        with pytest.raises(FileNotFound):
            hacfs.stat("/alias")

    def test_rename_over_a_directory_reaches_its_alias(self, hacfs):
        hacfs.mkdir("/r1")
        hacfs.write_file("/r1/one.txt", b"1")
        hacfs.mkdir("/r2")
        hacfs.symlink("/r2", "/r2l")
        hacfs.stat("/r2l")
        hacfs.rename("/r1", "/r2")
        assert_stat_is_the_nodes(hacfs, ["/r2l"])
        assert hacfs.stat("/r2l").ino == hacfs.fs.stat("/r2").ino


class TestTheCacheHoldsKeys:
    def test_a_hit_survives_a_directory_rename(self, hacfs):
        hacfs.mkdir("/d")
        hacfs.write_file("/d/f.txt", b"data")
        hacfs.stat("/d/f.txt")
        hacfs.rename("/d", "/e")
        hits = hacfs.counters.get("attrcache.hit")
        reads = hacfs.counters.get("blockdev.meta_read_ops")
        assert hacfs.stat("/e/f.txt").size == 4
        assert hacfs.counters.get("attrcache.hit") == hits + 1
        assert hacfs.counters.get("blockdev.meta_read_ops") == reads

    def test_a_miss_charges_one_read_and_a_hit_none(self, hacfs):
        hacfs.mkdir("/d")
        before = hacfs.counters.get("blockdev.meta_read_ops")
        hacfs.stat("/d")
        assert hacfs.counters.get("blockdev.meta_read_ops") == before + 1
        hacfs.stat("/d")
        assert hacfs.counters.get("blockdev.meta_read_ops") == before + 1
        assert hacfs.counters.get("attrcache.miss") == 1
        assert hacfs.counters.get("attrcache.hit") == 1

    def test_returned_attributes_are_a_copy(self, hacfs):
        hacfs.write_file("/f.txt", b"abc")
        hacfs.stat("/f.txt").attrs.size = 99
        assert hacfs.stat("/f.txt").size == 3

"""HacFileSystem as a plain hierarchical file system (the §2 promise:
everything still works with no semantic features in play)."""

import pytest

from repro.errors import FileExists, FileNotFound
from repro.core.hacfs import HacFileSystem


class TestOrdinaryUse:
    def test_mkdir_registers_bookkeeping(self, hacfs):
        hacfs.mkdir("/a")
        uid = hacfs.dirmap.uid_of("/a")
        assert uid is not None
        assert hacfs.meta.get(uid) is not None
        assert uid in hacfs.depgraph
        assert hacfs.depgraph.hierarchy_parent(uid) == 0

    def test_mkdir_persists_records(self, hacfs):
        before = hacfs.metadata_bytes()
        hacfs.mkdir("/a")
        assert hacfs.metadata_bytes() > before

    def test_makedirs(self, hacfs):
        hacfs.makedirs("/x/y/z")
        assert hacfs.isdir("/x/y/z")
        assert hacfs.dirmap.uid_of("/x/y") is not None

    def test_rmdir_cleans_bookkeeping(self, hacfs):
        hacfs.mkdir("/a")
        uid = hacfs.dirmap.uid_of("/a")
        hacfs.rmdir("/a")
        assert hacfs.dirmap.uid_of("/a") is None
        assert uid not in hacfs.depgraph
        assert hacfs.meta.get(uid) is None

    def test_file_roundtrip(self, hacfs):
        hacfs.write_file("/f.txt", b"hello")
        assert hacfs.read_file("/f.txt") == b"hello"
        hacfs.unlink("/f.txt")
        assert not hacfs.exists("/f.txt")

    def test_fd_io(self, hacfs):
        fd = hacfs.open("/f", "w")
        hacfs.write(fd, b"abcdef")
        hacfs.close(fd)
        fd = hacfs.open("/f", "r")
        hacfs.lseek(fd, 2)
        assert hacfs.read(fd, 2) == b"cd"
        hacfs.close(fd)

    def test_mkdir_through_symlink_registers_canonical_path(self, hacfs):
        hacfs.mkdir("/real")
        hacfs.symlink("/real", "/alias")
        hacfs.mkdir("/alias/sub")
        assert hacfs.dirmap.uid_of("/real/sub") is not None
        assert hacfs.dirmap.uid_of("/alias/sub") is None

    def test_errors_pass_through(self, hacfs):
        with pytest.raises(FileNotFound):
            hacfs.read_file("/nope")
        hacfs.mkdir("/a")
        with pytest.raises(FileExists):
            hacfs.mkdir("/a")


class TestStatCache:
    def test_stat_hits_cache_second_time(self, hacfs):
        hacfs.write_file("/f", b"12345")
        st1 = hacfs.stat("/f")
        before = hacfs.fs.counters.get("vfs.stat")
        st2 = hacfs.stat("/f")
        assert hacfs.fs.counters.get("vfs.stat") == before  # served from cache
        assert st2.size == st1.size
        assert st2.ino == st1.ino
        assert st2.type == st1.type

    def test_write_invalidates(self, hacfs):
        hacfs.write_file("/f", b"12345")
        hacfs.stat("/f")
        hacfs.write_file("/f", b"123")
        assert hacfs.stat("/f").size == 3

    def test_fd_write_invalidates(self, hacfs):
        hacfs.write_file("/f", b"")
        hacfs.stat("/f")
        fd = hacfs.open("/f", "a")
        hacfs.write(fd, b"xy")
        hacfs.close(fd)
        assert hacfs.stat("/f").size == 2

    def test_rename_invalidates(self, hacfs):
        hacfs.write_file("/f", b"123")
        hacfs.stat("/f")
        hacfs.rename("/f", "/g")
        with pytest.raises(FileNotFound):
            hacfs.stat("/f")
        assert hacfs.stat("/g").size == 3

    def test_unlink_invalidates(self, hacfs):
        hacfs.write_file("/f", b"1")
        hacfs.stat("/f")
        hacfs.unlink("/f")
        with pytest.raises(FileNotFound):
            hacfs.stat("/f")

    def test_create_primes_cache(self, hacfs):
        hacfs.create("/f")
        assert hacfs.counters.get("attrcache.put") >= 1

    def test_truncate_invalidates(self, hacfs):
        hacfs.write_file("/f", b"12345")
        hacfs.stat("/f")
        hacfs.truncate("/f", 1)
        assert hacfs.stat("/f").size == 1

    def test_chmod_invalidates(self, hacfs):
        hacfs.write_file("/f", b"1")
        hacfs.stat("/f")
        hacfs.chmod("/f", 0o600)
        assert hacfs.stat("/f").attrs.mode == 0o600


class TestRenameBookkeeping:
    def test_dir_rename_updates_map(self, hacfs):
        hacfs.makedirs("/a/b/c")
        uid_c = hacfs.dirmap.uid_of("/a/b/c")
        hacfs.rename("/a/b", "/moved")
        assert hacfs.dirmap.uid_of("/moved/c") == uid_c
        assert hacfs.dirmap.uid_of("/a/b/c") is None

    def test_dir_rename_reparents_depgraph(self, hacfs):
        hacfs.makedirs("/a/b")
        hacfs.mkdir("/x")
        uid_b = hacfs.dirmap.uid_of("/a/b")
        uid_x = hacfs.dirmap.uid_of("/x")
        hacfs.rename("/a/b", "/x/b")
        assert hacfs.depgraph.hierarchy_parent(uid_b) == uid_x

    def test_file_rename_updates_engine_path(self, populated):
        populated.rename("/notes/fp-design.txt", "/notes/design.txt")
        res = populated.fs.resolve("/notes/design.txt")
        doc = populated.engine.doc_by_key((res.fs.fsid, res.node.ino))
        assert doc.path == "/notes/design.txt"


class TestCountersAndReporting:
    def test_hac_counters_accumulate(self, hacfs):
        hacfs.mkdir("/a")
        hacfs.create("/a/f")
        assert hacfs.counters.get("hac.mkdir") == 1
        assert hacfs.counters.get("hac.create") == 1

    def test_shared_memory_bytes(self, hacfs):
        hacfs.write_file("/f", b"x")
        hacfs.stat("/f")
        assert hacfs.shared_memory_bytes() > 0
        # §4: tens of KB per process however many files are touched
        for i in range(300):
            hacfs.write_file(f"/f{i}", b"x")
            hacfs.stat(f"/f{i}")
        assert hacfs.shared_memory_bytes() < 64 * 1024

    def test_semantic_dirs_listing(self, populated):
        assert populated.semantic_dirs() == []
        populated.smkdir("/fp", "fingerprint")
        assert populated.semantic_dirs() == ["/fp"]

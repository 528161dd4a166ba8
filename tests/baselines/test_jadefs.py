"""Jade-style logical name space baseline."""

import pytest

from tests.baselines.jadefs import JadeFileSystem
from repro.vfs.filesystem import FileSystem


@pytest.fixture
def jade():
    physical = FileSystem()
    physical.makedirs("/vol1/home")
    physical.makedirs("/vol2/proj")
    jfs = JadeFileSystem(physical)
    jfs.attach("/home", "/vol1/home")
    jfs.attach("/proj", "/vol2/proj")
    return jfs


class TestTranslation:
    def test_identity_default(self, jade):
        assert jade.translate("/elsewhere/x") == "/elsewhere/x"

    def test_prefix_mapping(self, jade):
        assert jade.translate("/home/f.txt") == "/vol1/home/f.txt"
        assert jade.translate("/proj") == "/vol2/proj"

    def test_longest_prefix_wins(self, jade):
        jade.attach("/home/special", "/vol2/proj")
        assert jade.translate("/home/special/x") == "/vol2/proj/x"
        assert jade.translate("/home/plain") == "/vol1/home/plain"

    def test_name_cache_hits(self, jade):
        jade.translate("/home/f")
        before = jade.counters.get("jade.components")
        jade.translate("/home/f")
        assert jade.counters.get("jade.components") == before  # cached

    def test_attach_invalidates_cache(self, jade):
        jade.translate("/home/f")
        jade.attach("/home/f", "/vol2/proj")
        assert jade.translate("/home/f") == "/vol2/proj"


class TestForwardedOps:
    def test_file_roundtrip_lands_in_physical(self, jade):
        jade.write_file("/home/a.txt", b"via jade")
        assert jade.read_file("/home/a.txt") == b"via jade"
        assert jade.physical.read_file("/vol1/home/a.txt") == b"via jade"

    def test_mkdir_listdir_stat(self, jade):
        jade.mkdir("/proj/sub")
        assert jade.listdir("/proj") == ["sub"]
        assert jade.stat("/proj/sub").is_dir

    def test_rename_within_logical_space(self, jade):
        jade.write_file("/home/a", b"x")
        jade.rename("/home/a", "/home/b")
        assert jade.exists("/home/b") and not jade.exists("/home/a")

    def test_symlink_and_unlink(self, jade):
        jade.write_file("/home/t", b"x")
        jade.symlink("/vol1/home/t", "/home/l")
        assert jade.readlink("/home/l") == "/vol1/home/t"
        jade.unlink("/home/l")
        jade.unlink("/home/t")
        assert jade.listdir("/home") == []

    def test_fd_io(self, jade):
        fd = jade.open("/home/f", "w")
        jade.write(fd, b"hello")
        jade.close(fd)
        fd = jade.open("/home/f", "r")
        assert jade.read(fd) == b"hello"
        jade.close(fd)

    def test_translations_counted(self, jade):
        before = jade.counters.get("jade.translations")
        jade.write_file("/home/y", b"1")
        assert jade.counters.get("jade.translations") > before

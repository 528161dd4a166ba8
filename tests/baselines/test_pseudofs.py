"""Pseudo-FS-style marshal/unmarshal interposition baseline."""

import pytest

from tests.baselines.pseudofs import PseudoFileSystem
from repro.errors import FileNotFound
from repro.vfs.filesystem import FileSystem


@pytest.fixture
def pseudo():
    return PseudoFileSystem(FileSystem())


class TestForwarding:
    def test_file_roundtrip(self, pseudo):
        pseudo.mkdir("/d")
        pseudo.write_file("/d/f", b"through the server")
        assert pseudo.read_file("/d/f") == b"through the server"
        assert pseudo.physical.read_file("/d/f") == b"through the server"

    def test_stat_marshals_to_dict(self, pseudo):
        pseudo.write_file("/f", b"12345")
        st = pseudo.stat("/f")
        assert st["size"] == 5
        assert st["nlink"] == 1

    def test_listdir_rename_unlink(self, pseudo):
        pseudo.write_file("/a", b"x")
        pseudo.rename("/a", "/b")
        assert pseudo.listdir("/") == ["b"]
        pseudo.unlink("/b")
        assert pseudo.listdir("/") == []

    def test_symlink_readlink(self, pseudo):
        pseudo.write_file("/t", b"x")
        pseudo.symlink("/t", "/l")
        assert pseudo.readlink("/l") == "/t"

    def test_rmdir(self, pseudo):
        pseudo.mkdir("/d")
        pseudo.rmdir("/d")
        assert not pseudo.exists("/d")

    def test_exists(self, pseudo):
        assert pseudo.exists("/")
        assert not pseudo.exists("/ghost")

    def test_errors_propagate(self, pseudo):
        with pytest.raises(FileNotFound):
            pseudo.read_file("/ghost")

    def test_fd_io(self, pseudo):
        fd = pseudo.open("/f", "w")
        pseudo.write(fd, b"abc")
        pseudo.close(fd)
        fd = pseudo.open("/f", "r")
        assert pseudo.read(fd, 2) == b"ab"
        pseudo.close(fd)

    def test_every_call_counts_a_request(self, pseudo):
        before = pseudo.counters.get("pseudo.requests")
        pseudo.mkdir("/x")
        pseudo.listdir("/")
        assert pseudo.counters.get("pseudo.requests") == before + 2
        assert pseudo.counters.get("pseudo.request_bytes") > 0
        assert pseudo.counters.get("pseudo.reply_bytes") > 0

"""Syntactic mounts through HacFileSystem: remote files join the name space."""

import pytest

from repro.vfs.filesystem import FileSystem


@pytest.fixture
def laptop():
    fs = FileSystem(name="laptop")
    fs.makedirs("/code")
    fs.write_file("/code/fp.c", b"laptop fingerprint code")
    fs.write_file("/code/other.c", b"unrelated utility")
    return fs


class TestSyntacticMount:
    def test_mount_adopts_directories(self, populated, laptop):
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        # its directories are plain until something names them
        assert populated.dirmap.uid_of("/laptop/code") is None
        assert populated.isdir("/laptop/code")
        populated.smkdir("/laptop/code/fpq", "fingerprint")
        assert populated.dirmap.uid_of("/laptop/code") is not None

    def test_mounted_files_indexed_after_sync(self, populated, laptop):
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        populated.ssync("/")
        populated.smkdir("/fp", "fingerprint")
        assert "fp.c" in populated.links("/fp")
        assert populated.readlink("/fp/fp.c") == "/laptop/code/fp.c"

    def test_semantic_dir_inside_mounted_fs(self, populated, laptop):
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        populated.ssync("/")
        populated.smkdir("/laptop/code/fpq", "fingerprint")
        # scope of /laptop/code is its subtree: only the laptop file
        assert set(populated.links("/laptop/code/fpq")) == {"fp.c"}

    def test_unmount_cleans_bookkeeping(self, populated, laptop):
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        populated.ssync("/")
        populated.smkdir("/laptop/code/fpq", "fingerprint")
        named = populated.dirmap.uid_of("/laptop/code")
        detached = populated.unmount("/laptop")
        assert detached is laptop
        assert populated.dirmap.uid_of("/laptop/code") is None
        assert populated.meta.get(named) is None
        assert populated.isdir("/laptop")  # cover dir stays
        populated.ssync("/")
        populated.smkdir("/fp", "fingerprint")
        assert "fp.c" not in populated.links("/fp")

    def test_unmount_drops_dangling_links_at_sync(self, populated, laptop):
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        populated.ssync("/")
        populated.smkdir("/fp", "fingerprint")
        assert "fp.c" in populated.links("/fp")
        populated.unmount("/laptop")
        populated.ssync("/")
        assert "fp.c" not in populated.links("/fp")

    def test_combined_syntactic_and_semantic(self, populated, laptop, library):
        """The paper's pitch: one semantic directory gathering local files,
        a mounted laptop, and a mounted digital library."""
        populated.mkdir("/laptop")
        populated.mount("/laptop", laptop)
        populated.mkdir("/lib")
        populated.smount("/lib", library)
        populated.ssync("/")
        populated.smkdir("/everything", "fingerprint")
        links = populated.links("/everything")
        targets = {t for _c, t in links.values()}
        assert any("laptop" in t for t in targets)          # syntactic mount
        assert any(t.startswith("digilib://") for t in targets)  # semantic
        assert len(links) >= 5

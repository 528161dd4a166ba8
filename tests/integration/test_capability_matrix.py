"""The paper's related-work comparison (§5), as one executable table.

Each row of the paper's argument — what SFS, Nebula, and HAC can and
cannot do — is asserted over the same corpus.  SFS and Nebula are the
test-only reimplementations in ``tests/baselines/``; the paper measures
neither.  The four ``test_hac_*`` tests are the half that concerns the
product, and they assert HAC's claims on their own:

* a semantic directory answers a boolean query over content and mail
  attributes;
* it is a real directory: a file written into it stays there and joins
  the scope it provides;
* its result is editable: a removed link becomes a prohibition, and a
  link added by hand becomes permanent;
* it is lazy about data but immediate about scope: a new matching file
  appears only after ``ssync``, while a removal shows at once and holds
  across the next re-evaluation.
"""

import pytest

from repro.core.hacfs import HacFileSystem
from repro.errors import InvalidArgument
from repro.vfs.filesystem import FileSystem
from tests.baselines.nebula import NebulaFileSystem
from tests.baselines.sfs import SemanticFileSystem

DOCS = {
    "/docs/p1.txt": b"From: alice\nSubject: study\n\nfingerprint study\n",
    "/docs/p2.txt": b"From: bob\nSubject: images\n\nfingerprint and images\n",
    "/docs/p3.txt": b"From: alice\nSubject: seg\n\nimage segmentation\n",
}


def physical_fs():
    fs = FileSystem()
    fs.makedirs("/docs")
    for path, data in DOCS.items():
        fs.write_file(path, data)
    return fs


@pytest.fixture
def sfs():
    system = SemanticFileSystem(physical_fs())
    system.index_all()
    return system


@pytest.fixture
def nebula():
    return NebulaFileSystem(physical_fs())


@pytest.fixture
def hac():
    system = HacFileSystem()
    system.makedirs("/docs")
    for path, data in DOCS.items():
        system.write_file(path, data)
    system.clock.tick()
    system.ssync("/")
    return system


class TestAllThreeCanQuery:
    def test_sfs_conjunctive_attributes(self, sfs):
        assert sfs.lookup("/sfs/from:/alice/text:/fingerprint") == ["/docs/p1.txt"]

    def test_nebula_boolean_queries(self, nebula):
        nebula.create_view("v", "fingerprint AND from:alice")
        assert nebula.view_contents("v") == ["/docs/p1.txt"]

    def test_hac_boolean_queries(self, hac):
        hac.smkdir("/v", "fingerprint AND from:alice")
        assert sorted(hac.links("/v")) == ["p1.txt"]


class TestResultsAsRealDirectories:
    """§5: only HAC's query results live in the physical file system."""

    def test_sfs_cannot_create_files_in_results(self, sfs):
        with pytest.raises(InvalidArgument):
            sfs.create_in_virtual("/sfs/from:/alice", "new.txt")

    def test_nebula_cannot_create_files_in_views(self, nebula):
        nebula.create_view("v", "fingerprint")
        with pytest.raises(InvalidArgument):
            nebula.create_file_in_view("v", "new.txt")

    def test_hac_semantic_dir_accepts_real_files(self, hac):
        hac.smkdir("/v", "fingerprint")
        hac.write_file("/v/notes.txt", b"my own notes")   # just works
        assert hac.read_file("/v/notes.txt") == b"my own notes"
        hac.clock.tick()
        hac.ssync("/")
        # and the file even participates in the directory's provided scope
        assert "notes.txt" in hac.listdir("/v")


class TestCustomisingResults:
    """§5: neither baseline lets users edit query results; HAC does."""

    def test_sfs_cannot_remove_results(self, sfs):
        with pytest.raises(InvalidArgument):
            sfs.remove_result("/sfs/from:/alice", "p1.txt")

    def test_nebula_cannot_remove_or_add(self, nebula):
        nebula.create_view("v", "fingerprint")
        with pytest.raises(InvalidArgument):
            nebula.remove_from_view("v", "/docs/p1.txt")
        with pytest.raises(InvalidArgument):
            nebula.add_to_view("v", "/docs/p3.txt")

    def test_hac_prohibits_and_pins(self, hac):
        hac.smkdir("/v", "fingerprint")
        hac.unlink("/v/p1.txt")                        # remove a result
        hac.symlink("/docs/p3.txt", "/v/p3.txt")       # add a non-match
        hac.ssync("/")
        assert sorted(hac.links("/v")) == ["p2.txt", "p3.txt"]

    def test_nebula_customises_by_scope_instead(self, nebula):
        # what Nebula *can* do: restructure the DAG
        nebula.create_view("alice", "from:alice")
        nebula.create_view("v", "fingerprint", scope=["alice"])
        assert nebula.view_contents("v") == ["/docs/p1.txt"]


class TestConsistencyModels:
    def test_nebula_contents_always_live(self, nebula):
        nebula.create_view("v", "fingerprint")
        nebula.physical.write_file("/docs/new.txt", b"late fingerprint\n")
        assert "/docs/new.txt" in nebula.view_contents("v")

    def test_sfs_needs_explicit_reindex(self, sfs):
        sfs.physical.write_file("/docs/new.txt", b"From: carol\n\nx\n")
        assert sfs.lookup("/sfs/from:/carol") == []
        sfs.index_all()
        assert sfs.lookup("/sfs/from:/carol") == ["/docs/new.txt"]

    def test_hac_is_lazy_but_scope_consistent(self, hac):
        hac.smkdir("/v", "fingerprint")
        hac.write_file("/docs/new.txt", b"late fingerprint\n")
        assert "new.txt" not in hac.listdir("/v")      # data lag (§2.4)
        hac.unlink("/v/p1.txt")
        assert "p1.txt" not in hac.listdir("/v")       # scope: immediate
        hac.clock.tick()
        hac.ssync("/")
        assert "new.txt" in hac.listdir("/v")
        assert "p1.txt" not in hac.listdir("/v")       # prohibition held

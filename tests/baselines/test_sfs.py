"""The MIT SFS baseline — and the limitations HAC lifts."""

import pytest

from repro.errors import InvalidArgument
from repro.vfs.filesystem import FileSystem
from tests.baselines.sfs import SemanticFileSystem, default_transducer


@pytest.fixture
def sfs():
    physical = FileSystem()
    physical.makedirs("/mail")
    physical.write_file("/mail/m1", b"From: alice\nSubject: fingerprint\n\n"
                                    b"the sensor works\n")
    physical.write_file("/mail/m2", b"From: bob\nSubject: lunch\n\nnoon?\n")
    physical.write_file("/mail/m3", b"From: alice\nSubject: lunch\n\nlate\n")
    system = SemanticFileSystem(physical)
    system.index_all()
    return system


class TestTransducer:
    def test_header_extraction(self):
        pairs = default_transducer("/m", "From: alice\nSubject: x\n\nbody here")
        assert ("from", "alice") in pairs
        assert ("subject", "x") in pairs
        assert ("text", "body") in pairs
        assert ("name", "m") in pairs

    def test_headers_stop_at_first_non_header(self):
        pairs = default_transducer("/m", "no header\nFrom: late")
        assert ("from", "late") not in pairs


class TestVirtualDirectories:
    def test_single_attribute_lookup(self, sfs):
        assert sfs.lookup("/sfs/from:/alice") == ["/mail/m1", "/mail/m3"]

    def test_conjunction_by_path(self, sfs):
        # the SFS trick: "/" between virtual components means AND
        assert sfs.lookup("/sfs/from:/alice/subject:/lunch") == ["/mail/m3"]

    def test_body_text_attribute(self, sfs):
        assert sfs.lookup("/sfs/text:/sensor") == ["/mail/m1"]

    def test_no_match(self, sfs):
        assert sfs.lookup("/sfs/from:/carol") == []

    def test_listdir_values_enumeration(self, sfs):
        assert sfs.listdir("/sfs/from:") == ["alice", "bob"]
        assert sfs.listdir("/sfs/from:/alice/subject:") == ["fingerprint", "lunch"]

    def test_listdir_files(self, sfs):
        assert sfs.listdir("/sfs/from:/alice") == ["m1", "m3"]

    def test_bad_paths_rejected(self, sfs):
        with pytest.raises(InvalidArgument):
            sfs.lookup("/elsewhere/from:/alice")
        with pytest.raises(InvalidArgument):
            sfs.lookup("/sfs/notanattr/alice")

    def test_reindex_after_change(self, sfs):
        sfs.physical.write_file("/mail/m4", b"From: carol\n\nhi\n")
        sfs.index_all()
        assert sfs.lookup("/sfs/from:/carol") == ["/mail/m4"]


class TestLimitations:
    """§5's list of what SFS cannot do — kept as executable documentation."""

    def test_cannot_create_files_in_virtual_dirs(self, sfs):
        with pytest.raises(InvalidArgument):
            sfs.create_in_virtual("/sfs/from:/alice", "new.txt")

    def test_cannot_customise_results(self, sfs):
        with pytest.raises(InvalidArgument):
            sfs.remove_result("/sfs/from:/alice", "m1")

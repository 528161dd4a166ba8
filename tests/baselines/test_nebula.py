"""The Nebula baseline: views, scopes, DAGs, and its limitations."""

import pytest

from repro.errors import DependencyCycle, InvalidArgument
from repro.vfs.filesystem import FileSystem
from tests.baselines.nebula import NebulaFileSystem


@pytest.fixture
def nebula():
    fs = FileSystem()
    fs.makedirs("/docs")
    fs.write_file("/docs/p1.txt", b"From: alice\n\nfingerprint study\n")
    fs.write_file("/docs/p2.txt", b"From: bob\n\nfingerprint and images\n")
    fs.write_file("/docs/p3.txt", b"From: alice\n\nimage segmentation\n")
    return NebulaFileSystem(fs)


class TestViews:
    def test_unscoped_view_covers_all_files(self, nebula):
        nebula.create_view("fp", "fingerprint")
        assert nebula.view_contents("fp") == ["/docs/p1.txt", "/docs/p2.txt"]

    def test_attribute_queries(self, nebula):
        nebula.create_view("alice", "from:alice")
        assert nebula.view_contents("alice") == ["/docs/p1.txt", "/docs/p3.txt"]

    def test_scoped_view_refines(self, nebula):
        nebula.create_view("fp", "fingerprint")
        nebula.create_view("fp-alice", "from:alice", scope=["fp"])
        assert nebula.view_contents("fp-alice") == ["/docs/p1.txt"]

    def test_dag_union_scope(self, nebula):
        nebula.create_view("fp", "fingerprint")
        nebula.create_view("img", "image OR images")
        nebula.create_view("either", "from:alice OR from:bob",
                           scope=["fp", "img"])
        assert nebula.view_contents("either") == [
            "/docs/p1.txt", "/docs/p2.txt", "/docs/p3.txt"]

    def test_scope_editing_customises(self, nebula):
        nebula.create_view("fp", "fingerprint")
        nebula.create_view("img", "image OR images")
        nebula.create_view("pick", "from:alice", scope=["fp"])
        assert nebula.view_contents("pick") == ["/docs/p1.txt"]
        nebula.set_scope("pick", ["img"])        # the Nebula move
        assert nebula.view_contents("pick") == ["/docs/p3.txt"]

    def test_always_consistent_with_live_data(self, nebula):
        nebula.create_view("fp", "fingerprint")
        nebula.physical.write_file("/docs/p4.txt", b"more fingerprint data\n")
        assert "/docs/p4.txt" in nebula.view_contents("fp")
        nebula.physical.unlink("/docs/p1.txt")
        assert "/docs/p1.txt" not in nebula.view_contents("fp")

    def test_set_query(self, nebula):
        nebula.create_view("v", "fingerprint")
        nebula.set_query("v", "segmentation")
        assert nebula.view_contents("v") == ["/docs/p3.txt"]


class TestStructuralRules:
    def test_duplicate_view_rejected(self, nebula):
        nebula.create_view("v", "x")
        with pytest.raises(InvalidArgument):
            nebula.create_view("v", "y")

    def test_unknown_scope_rejected(self, nebula):
        with pytest.raises(InvalidArgument):
            nebula.create_view("v", "x", scope=["ghost"])

    def test_scope_cycle_rejected(self, nebula):
        nebula.create_view("a", "x")
        nebula.create_view("b", "x", scope=["a"])
        with pytest.raises(DependencyCycle):
            nebula.set_scope("a", ["b"])
        with pytest.raises(DependencyCycle):
            nebula.set_scope("a", ["a"])

    def test_drop_view_in_use_rejected(self, nebula):
        nebula.create_view("a", "x")
        nebula.create_view("b", "x", scope=["a"])
        with pytest.raises(InvalidArgument):
            nebula.drop_view("a")
        nebula.drop_view("b")
        nebula.drop_view("a")
        assert nebula.views() == []


class TestLimitations:
    """§5's criticisms of Nebula, kept executable."""

    def test_views_are_not_directories(self, nebula):
        nebula.create_view("fp", "fingerprint")
        with pytest.raises(InvalidArgument):
            nebula.create_file_in_view("fp", "notes.txt")

    def test_cannot_group_arbitrary_files(self, nebula):
        nebula.create_view("fp", "fingerprint")
        with pytest.raises(InvalidArgument):
            nebula.add_to_view("fp", "/docs/p3.txt")

    def test_cannot_prune_results(self, nebula):
        nebula.create_view("fp", "fingerprint")
        with pytest.raises(InvalidArgument):
            nebula.remove_from_view("fp", "/docs/p1.txt")

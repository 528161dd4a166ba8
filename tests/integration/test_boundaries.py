"""Boundary conditions across the stack: empty, deep, wide, odd."""

import pytest

from repro.core.hacfs import HacFileSystem
from repro.cba.queryparser import parse_query


class TestEmptyWorlds:
    def test_smkdir_on_empty_unindexed_fs(self, hacfs):
        hacfs.smkdir("/q", "anything")
        assert hacfs.listdir("/q") == []
        hacfs.ssync("/")
        assert hacfs.listdir("/q") == []

    def test_matchall_query_links_everything(self, populated):
        populated.smkdir("/all", "*")
        assert len(populated.links("/all")) == 5

    def test_empty_query_text_is_matchall(self, populated):
        populated.smkdir("/every", "")
        assert len(populated.links("/every")) == 5

    def test_ssync_on_empty_root(self, hacfs):
        plan = hacfs.ssync("/")
        assert plan.is_noop

    def test_search_on_empty_engine(self, hacfs):
        assert not hacfs.engine.search(parse_query("anything"))


class TestDepthAndWidth:
    def test_deep_directory_chain(self, hacfs):
        path = "/" + "/".join(f"d{i}" for i in range(40))
        hacfs.makedirs(path)
        hacfs.write_file(path + "/leaf.txt", b"deep fingerprint")
        hacfs.clock.tick()
        hacfs.ssync("/")
        hacfs.smkdir("/q", "fingerprint")
        assert "leaf.txt" in hacfs.listdir("/q")
        assert hacfs.readlink("/q/leaf.txt") == path + "/leaf.txt"

    def test_deep_semantic_refinement_chain(self, populated):
        parent = ""
        for i in range(10):
            parent = f"{parent}/level{i}"
            populated.smkdir(parent, "fingerprint")
        assert "msg1.txt" in populated.listdir(parent)
        populated.unlink("/level0/msg1.txt")
        # the prohibition at the top empties the whole chain below
        assert "msg1.txt" not in populated.listdir(parent)

    def test_many_siblings_under_one_semantic_dir(self, populated):
        populated.smkdir("/hub", "fingerprint")
        for i in range(30):
            populated.smkdir(f"/hub/s{i}", "sensor OR minutiae")
        populated.unlink("/hub/msg1.txt")
        for i in range(0, 30, 7):
            assert "msg1.txt" not in populated.listdir(f"/hub/s{i}")

    def test_file_with_many_unique_terms(self, hacfs):
        words = " ".join(f"uniq{i:04d}" for i in range(3000))
        hacfs.write_file("/big.txt", words.encode())
        hacfs.clock.tick()
        hacfs.ssync("/")
        assert len(hacfs.engine.search(parse_query("uniq2999"))) == 1


class TestOddContent:
    def test_binary_ish_file_indexed_without_crash(self, hacfs):
        hacfs.write_file("/blob.bin", bytes(range(256)) * 4)
        hacfs.clock.tick()
        hacfs.ssync("/")
        assert len(hacfs.engine) == 1

    def test_empty_file(self, populated):
        populated.create("/empty.txt")
        populated.clock.tick()
        populated.ssync("/")
        populated.smkdir("/q", "fingerprint")
        assert "empty.txt" not in populated.listdir("/q")
        populated.smkdir("/allq", "*")
        assert "empty.txt" in populated.listdir("/allq")

    def test_unicode_content(self, hacfs):
        hacfs.write_file("/u.txt", "fingerprint café naïve 指紋\n".encode())
        hacfs.clock.tick()
        hacfs.ssync("/")
        hacfs.smkdir("/q", "fingerprint")
        assert "u.txt" in hacfs.listdir("/q")
        assert "café" in hacfs.read_file("/q/u.txt").decode()

    def test_zero_byte_write_then_append(self, hacfs):
        hacfs.write_file("/f", b"")
        hacfs.write_file("/f", b"fingerprint", append=True)
        hacfs.clock.tick()
        hacfs.ssync("/")
        assert len(hacfs.engine.search(parse_query("fingerprint"))) == 1


class TestQueryEdges:
    def test_query_of_only_stopwords(self, populated):
        # stopwords are not indexed, so the term nominates every block and
        # the scanner finds it in each file that holds it
        populated.smkdir("/q", "the")
        assert sorted(populated.listdir("/q")) == ["fp-design.txt",
                                                   "msg1.txt"]

    def test_self_reference_rejected(self, populated):
        from repro.errors import DependencyCycle
        populated.smkdir("/q", "fingerprint")
        with pytest.raises(DependencyCycle):
            populated.set_query("/q", "fingerprint AND /q")
        assert populated.get_query("/q") == "fingerprint"

    def test_double_negation(self, populated):
        populated.smkdir("/q", "NOT NOT fingerprint")
        assert set(populated.links("/q")) == {"fp-design.txt", "msg1.txt",
                                              "match.c"}

    def test_query_referencing_root(self, populated):
        populated.smkdir("/q", "fingerprint AND /")
        assert len(populated.links("/q")) == 3

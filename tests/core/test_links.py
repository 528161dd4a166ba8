"""Unit tests for targets and the three-way link classification."""

import pytest

from repro.cba.results import RemoteId
from repro.core.links import LinkSets, Target
from repro.vfs.inode import FileNode, SymlinkNode


class TestTarget:
    def test_local(self):
        t = Target.local("fs#1", 42)
        assert t.is_local and not t.is_remote
        assert t.ino == 42
        assert t.key == ("fs#1", 42)
        assert str(t) == "fs#1:ino42"

    def test_remote(self):
        t = Target.remote("digilib", "paper1")
        assert t.is_remote
        assert t.remote_id() == RemoteId("digilib", "paper1")
        assert str(t) == "digilib://paper1"

    def test_kind_guards(self):
        with pytest.raises(ValueError):
            Target.remote("n", "d").ino
        with pytest.raises(ValueError):
            Target.remote("n", "d").key
        with pytest.raises(ValueError):
            Target.local("f", 1).remote_id()

    def test_obj_roundtrip(self):
        for t in (Target.local("f", 9), Target.remote("n", "d")):
            assert Target.from_obj(t.to_obj()) == t

    def test_from_remote_id(self):
        rid = RemoteId("n", "d")
        assert Target.from_remote_id(rid).remote_id() == rid


@pytest.fixture
def sets():
    ls = LinkSets()
    ls.add_permanent("perm.txt", Target.local("f", 1))
    ls.add_transient("trans.txt", Target.local("f", 2))
    return ls


class TestLinkSets:
    def test_classify(self, sets):
        assert sets.classify(Target.local("f", 1)) == "permanent"
        assert sets.classify(Target.local("f", 2)) == "transient"
        assert sets.classify(Target.local("f", 9)) is None

    def test_names_and_targets(self, sets):
        assert sets.name_of(Target.local("f", 2)) == "trans.txt"
        assert sets.target_of("perm.txt") == Target.local("f", 1)
        assert sets.target_of("nope") is None
        assert sets.used_names() == {"perm.txt", "trans.txt"}

    def test_all_targets_is_current_result(self, sets):
        assert sets.all_targets() == {Target.local("f", 1), Target.local("f", 2)}

    def test_prohibit_transient(self, sets):
        gone = sets.prohibit("trans.txt")
        assert gone == Target.local("f", 2)
        assert sets.classify(gone) == "prohibited"
        assert "trans.txt" not in sets.used_names()

    def test_prohibit_permanent(self, sets):
        gone = sets.prohibit("perm.txt")
        assert sets.classify(gone) == "prohibited"

    def test_prohibit_unknown_is_none(self, sets):
        assert sets.prohibit("ghost") is None

    def test_readding_by_hand_lifts_prohibition(self, sets):
        gone = sets.prohibit("trans.txt")
        sets.add_permanent("back.txt", gone)
        assert sets.classify(gone) == "permanent"
        assert gone not in sets.prohibited

    def test_unprohibit(self, sets):
        gone = sets.prohibit("trans.txt")
        assert sets.unprohibit(gone) is True
        assert sets.unprohibit(gone) is False
        assert sets.classify(gone) is None

    def test_forget_does_not_prohibit(self, sets):
        gone = sets.forget("trans.txt")
        assert gone == Target.local("f", 2)
        assert sets.classify(gone) is None

    def test_clear_transient(self, sets):
        sets.clear_transient()
        assert not sets.transient
        assert sets.permanent  # untouched

    def test_obj_roundtrip(self, sets):
        """The record holds what the user said: permanent and prohibited."""
        sets.add_permanent("pin", Target.remote("n", "p"))
        sets.prohibit("perm.txt")
        sets.add_transient("r", Target.remote("n", "d"))
        assert set(sets.to_obj()) == {"permanent", "prohibited"}
        restored = LinkSets.from_obj(sets.to_obj())
        assert restored.permanent == sets.permanent
        assert restored.prohibited == sets.prohibited
        assert not restored.transient

    def test_adopt_reads_the_transient_class_from_entries(self, sets):
        """Every symlink not under a permanent name is transient; one that
        resolves to nothing, or to a target already held, is debris."""
        texts = {"/a": Target.local("f", 2), "/b": Target.local("f", 1),
                 "ns://d": Target.remote("ns", "d")}
        def link(ino, text):
            return SymlinkNode(ino, 0o777, 0.0, text)

        entries = {"perm.txt": link(1, "/b"), "a": link(2, "/a"),
                   "again": link(3, "/a"), "pinned-twice": link(4, "/b"),
                   "gone": link(5, "/nowhere"), "r": link(6, "ns://d"),
                   "file": FileNode(7, 0o644, 0.0)}
        restored = LinkSets.from_obj(sets.to_obj())
        debris = restored.adopt(entries, texts.get)
        assert debris == ["again", "pinned-twice", "gone"]
        assert restored.transient == {"a": Target.local("f", 2),
                                      "r": Target.remote("ns", "d")}
        assert restored.remote == {Target.remote("ns", "d")}
        assert restored.bound is None

    def test_repr(self, sets):
        assert "permanent=1" in repr(sets)

"""A directory's record says where it sits, and the global map is what a
load folds those places into.  The load is the restore boundary: records
it cannot place never make a device unopenable — they stay out of the
map, ``fsck`` reports them and its repair drops them — and directories
HAC does not know keep every registered directory below them where it
was, across renames and reopens."""

import pytest

from repro.core.hacfs import HacFileSystem
from repro.core.semdir import SemanticDirState
from repro.util import serialization

from tests.properties.derived import assert_is_derived


@pytest.fixture
def populated(populated):
    """The shared world with its top directories named by a query."""
    populated.smkdir("/q", "fingerprint AND (/notes OR /mail OR /src)")
    return populated


def kinds(findings):
    return sorted(f.kind for f in findings)


def plant(hac, uid, parent, name):
    """Write a ``semdir:`` record straight onto the device."""
    state = SemanticDirState(uid)
    state.parent, state.name = parent, name
    hac.fs.device.write_record(f"semdir:{uid}",
                               serialization.dumps(state.to_obj()))


@pytest.mark.parametrize("records", [
    [(900, 899, "lost")],
    [(900, 900, "self")],
    [(900, 901, "x"), (901, 900, "y")],
    [(900, 0, "notes"), (901, 900, "under-the-loser")],
], ids=["missing-parent", "self-parent", "cycle", "same-place"])
def test_unplaceable_records_reopen_and_repair(populated, records):
    before = dict(populated.dirmap.items())
    for record in records:
        plant(populated, *record)
    hac = HacFileSystem.restore(populated.fs)
    assert dict(hac.dirmap.items()) == before
    findings = hac.fsck()
    assert kinds(findings) == ["orphan-state"] * len(records)
    assert all(f.severity == "warn" for f in findings)
    # the allocator restarted above every uid a record carries
    hac.smkdir("/fresh", "fingerprint")
    assert hac.dirmap.uid_of("/fresh") > max(uid for uid, *_ in records)
    hac.fsck(repair=True)
    again = HacFileSystem.restore(hac.fs)
    assert again.fsck() == []
    assert dict(again.dirmap.items()) == dict(hac.dirmap.items())


def test_the_first_record_reached_holds_a_claimed_path(populated):
    """Siblings are placed in uid order: of two records claiming /notes
    the older keeps it on every reopen, and the other is the orphan."""
    notes = populated.dirmap.uid_of("/notes")
    plant(populated, 900, 0, "notes")
    for _reopen in range(2):
        hac = HacFileSystem.restore(populated.fs)
        assert hac.dirmap.uid_of("/notes") == notes
        assert [(f.kind, f.path) for f in hac.fsck()] \
            == [("orphan-state", "uid:900")]


def test_a_stray_record_from_a_live_instance(populated):
    """A record for no directory, made on a running file system — the
    reopen leaves it out of the map instead of failing on its parent."""
    populated.meta.create(4242, None, "stray")
    hac = HacFileSystem.restore(populated.fs)
    assert kinds(hac.fsck()) == ["orphan-state"]
    hac.fsck(repair=True)
    assert HacFileSystem.restore(hac.fs).fsck() == []


def test_a_directory_below_an_unknown_one_keeps_its_place(populated):
    populated.fs.mkdir("/raw")                 # behind HAC's back
    populated.mkdir("/raw/sub")
    populated.smkdir("/raw/sub/q", "fingerprint")
    sub = populated.dirmap.uid_of("/raw/sub")
    assert populated.dirmap.uid_of("/raw") is None
    assert populated.meta.places()[sub] == (0, "raw/sub")
    assert populated.depgraph.hierarchy_parent(sub) is None
    assert kinds(populated.fsck()) == []
    assert_is_derived(populated)
    hac = HacFileSystem.restore(populated.fs)
    assert hac.dirmap.uid_of("/raw/sub") == sub
    assert hac.is_semantic("/raw/sub/q")
    assert kinds(hac.fsck()) == []
    assert_is_derived(hac)


def test_renaming_an_unknown_directory_moves_what_it_holds(populated):
    populated.fs.mkdir("/raw")
    populated.fs.mkdir("/raw/also-raw")
    populated.mkdir("/raw/sub")
    populated.mkdir("/raw/sub/deeper")
    populated.mkdir("/raw/also-raw/leaf")
    populated.smkdir("/named", "fingerprint AND (/raw/sub OR "
                     "/raw/sub/deeper OR /raw/also-raw/leaf)")
    uids = {p: populated.dirmap.uid_of(p)
            for p in ("/raw/sub", "/raw/sub/deeper", "/raw/also-raw/leaf")}
    populated.rename("/raw", "/cooked")
    places = populated.meta.places()
    # the topmost registered directories get new places; the one below
    # a registered directory sits where it did
    assert places[uids["/raw/sub"]] == (0, "cooked/sub")
    assert places[uids["/raw/also-raw/leaf"]] == (0, "cooked/also-raw/leaf")
    assert places[uids["/raw/sub/deeper"]] == (uids["/raw/sub"], "deeper")
    assert_is_derived(populated)
    hac = HacFileSystem.restore(populated.fs)
    assert hac.dirmap.path_of(uids["/raw/sub/deeper"]) == "/cooked/sub/deeper"
    assert hac.dirmap.path_of(uids["/raw/also-raw/leaf"]) \
        == "/cooked/also-raw/leaf"
    assert hac.dirmap.uid_of("/cooked") is None
    assert hac.fsck() == []
    assert_is_derived(hac)


def test_a_directory_rename_rewrites_one_record(populated):
    """Moving a registered subtree rewrites the moved directory's record
    and no other: every directory below it is placed under a moved one."""
    populated.mkdir("/notes/a")
    populated.mkdir("/notes/a/b")
    populated.smkdir("/notes/a/b/q", "fingerprint")
    dev = populated.fs.device
    written = []
    write = dev.write_record
    dev.write_record = lambda key, data: (written.append(key),
                                          write(key, data))[1]
    try:
        populated.rename("/notes", "/papers")
    finally:
        del dev.write_record
    notes = populated.dirmap.uid_of("/papers")
    assert [k for k in written if k.startswith("semdir:")] \
        == [f"semdir:{notes}"]
    assert populated.meta.places()[notes] == (0, "papers")
    assert_is_derived(populated)

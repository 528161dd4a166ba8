"""Semantic directories as maintained views (ISSUE 24): one tree read per
cascade, link classes in doc-id algebra, no write where nothing changed.

The property suites check *maintained = from scratch* after every step of
random histories (``tests/properties/reference.py``); here are the cases
worth naming, the exact counts a cascade may cost, and the two bugs the
rewrite fixed on the way.
"""

import itertools

import pytest

from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed, NoSpace
from repro.core.links import Target
from repro.util import serialization
from repro.vfs.blockdev import FaultPlan

from tests.properties.reference import assert_links_from_scratch


def names(hac, path):
    return set(hac.links(path))


def key_of(hac, path):
    st = hac.fs.stat(path)
    return (st.fsid, st.ino)


@pytest.fixture
def watched():
    """Six files under a watched root, batched maintenance (so writes
    stay pending until something drains them), one semantic directory."""
    hac = HacFileSystem()
    hac.makedirs("/files")
    hac.watch("/")
    hac.maintenance.set_mode("batched")
    for i in range(6):
        hac.write_file(f"/files/f{i}.txt", f"alpha word{i}\n".encode())
    hac.smkdir("/sem", "alpha")
    assert len(names(hac, "/sem")) == 6
    return hac


def revive(hac, path):
    """Withdraw *path*'s document and revive it in one batch — the
    scheduler's ``tombstoned`` branch: same key, fresh doc id."""
    key, before = key_of(hac, path), hac.engine.doc_id_of(key_of(hac, path))
    hac.maintenance.note_remove(key, "/files")
    hac.maintenance.note_upsert(key, path, hac.clock.now)
    hac.maintenance.barrier()
    assert hac.engine.doc_id_of(key) not in (None, before)


class TestNamedCases:
    def test_prohibited_file_revived_under_a_new_id_stays_out(self, watched):
        watched.unlink("/sem/f0.txt")
        revive(watched, "/files/f0.txt")
        assert "f0.txt" not in names(watched, "/sem")
        assert watched.prohibited("/sem")
        assert_links_from_scratch(watched)

    def test_transient_file_revived_keeps_one_link_same_name(self, watched):
        target = Target.local(*key_of(watched, "/files/f1.txt"))
        revive(watched, "/files/f1.txt")
        links = watched.meta.require(watched.dirmap.uid_of("/sem")).links
        assert [n for n, t in links.transient.items() if t == target] \
            == ["f1.txt"]
        assert watched.readlink("/sem/f1.txt") == "/files/f1.txt"
        assert len(names(watched, "/sem")) == 6
        assert_links_from_scratch(watched)

    def test_rename_with_writes_pending_runs_the_nested_cascade(self, watched):
        watched.smkdir("/beta", "beta")
        watched.smkdir("/sem/sub", "word3 OR beta")
        watched.write_file("/files/f2.txt", b"beta only now\n")
        watched.write_file("/files/f3.txt", b"alpha beta word3\n")
        assert watched.maintenance.pending == 2
        watched.rename("/files/f3.txt", "/files/g3.txt")   # drains, then moves
        assert_links_from_scratch(watched)
        assert names(watched, "/beta") == {"f2.txt", "g3.txt"}
        assert watched.readlink("/sem/f3.txt") == "/files/g3.txt"
        watched.write_file("/files/f4.txt", b"beta too\n")
        watched.rename("/files", "/moved")                 # same, a directory
        assert_links_from_scratch(watched)
        assert watched.readlink("/sem/sub/f3.txt") == "/moved/g3.txt"

    def test_semantic_parent_is_seen_by_its_child_in_one_cascade(self, watched):
        watched.smkdir("/sem/sub", "word9")
        assert names(watched, "/sem/sub") == set()
        watched.write_file("/files/new.txt", b"alpha word9\n")
        watched.maintenance.barrier()      # one drain, one cascade
        assert "new.txt" in names(watched, "/sem")
        assert names(watched, "/sem/sub") == {"new.txt"}
        assert_links_from_scratch(watched)

    def test_killed_shard_keeps_links_flags_and_heals(self):
        hac = HacFileSystem(backend="cluster:3")
        hac.makedirs("/files")
        hac.watch("/")
        for i in range(9):
            hac.write_file(f"/files/f{i}.txt", f"alpha word{i}\n".encode())
        hac.smkdir("/sem", "alpha")
        sid = hac.engine.shard_of(key_of(hac, "/files/f0.txt"))
        hac.engine.kill_shard(sid)
        hac.write_file("/files/late.txt", b"no match here\n")
        state = hac.meta.require(hac.dirmap.uid_of("/sem"))
        assert len(names(hac, "/sem")) == 9     # stale beats lost
        assert set(state.degraded_shards) == {sid}
        hac.engine.revive_shard(sid)
        hac.write_file("/files/f0.txt", b"gone from the result\n")
        assert state.degraded_shards == {}
        assert "f0.txt" not in names(hac, "/sem")
        assert_links_from_scratch(hac)


class TestBugRegressions:
    def test_permanent_link_follows_its_renamed_target(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.symlink("/mail/msg2.txt", "/fp/msg2.txt")
        populated.rename("/mail/msg2.txt", "/mail/msg2b.txt")
        assert populated.readlink("/fp/msg2.txt") == "/mail/msg2b.txt"
        assert populated.exists("/fp/msg2.txt")
        assert populated.classify("/fp/msg2.txt") == "permanent"
        populated.rename("/mail", "/post")
        assert populated.readlink("/fp/msg2.txt") == "/post/msg2b.txt"
        assert populated.readlink("/fp/msg1.txt") == "/post/msg1.txt"
        assert populated.fsck() == []

    def test_stored_result_is_exact_after_a_hand_added_link(self, populated):
        populated.smkdir("/fp", "fingerprint AND alice")
        state = populated.meta.require(populated.dirmap.uid_of("/fp"))
        assert len(state.result_cache) == 1
        populated.symlink("/mail/msg2.txt", "/fp/msg2.txt")
        assert len(state.result_cache) == 2
        assert populated.scopes.provided("/fp").local == state.result_cache
        # the record holds what the user said; the result is derived
        record = serialization.loads(
            populated.fs.device.read_record(f"semdir:{state.uid}"))
        assert "result" not in record
        assert set(record["links"]) == {"permanent", "prohibited"}
        # a hand-made link to a file the query also finds: one link, the
        # permanent one, and the result counts the file once
        populated.symlink("/mail/msg1.txt", "/fp/mine.txt")
        assert names(populated, "/fp") == {"mine.txt", "msg2.txt"}
        assert len(state.result_cache) == 2
        assert populated.fsck() == []

    def test_a_reopen_derives_the_result_from_the_tree(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.symlink("/notes/recipe.txt", "/fp/pin.txt")
        populated.smkdir("/fp/sub", "alice OR recipe")
        good = populated.meta.require(populated.dirmap.uid_of("/fp")).result_cache
        again = HacFileSystem.restore(populated.fs)
        state = again.meta.require(again.dirmap.uid_of("/fp"))
        assert state.result_cache == good
        assert again.links("/fp/sub") == populated.links("/fp/sub")
        assert again.fsck() == []

    def test_an_entry_already_gone_is_counted_not_swallowed(self, populated):
        """``_apply_transient`` swallowed every exception; now an entry
        that is already gone is counted and anything else propagates."""
        populated.smkdir("/fp", "fingerprint")
        populated.fs.unlink("/fp/msg1.txt")             # behind HAC's back
        populated.write_file("/mail/msg1.txt", b"nothing to see\n")
        populated.clock.tick()
        populated.ssync("/")
        assert "msg1.txt" not in names(populated, "/fp")
        assert populated.counters.get("consistency.materialise_skips") == 1


HAND_EDITS = {
    "unlink": lambda hac: hac.unlink("/fp/m1.txt"),
    "symlink": lambda hac: hac.symlink("/mail/lunch.txt", "/fp/lunch.txt"),
    "unprohibit": lambda hac: hac.unprohibit("/fp", "/mail/m0.txt"),
}


@pytest.mark.parametrize("fault", ["crash_at", "enospc_at"])
@pytest.mark.parametrize("edit", sorted(HAND_EDITS))
def test_a_fault_inside_a_hand_edit_never_tears_result_from_links(edit, fault):
    """``unlink`` / ``symlink`` / ``unprohibit`` of a tracked link run
    outside any journal intent, and a child directory (``/fp/sub``) is
    evaluated over the result: the result is the link tables' own, in
    memory (a full device: the instance lives on) and after a reopen (a
    crash).  Swept over every record write of the edit and its cascade."""
    for offset in itertools.count():
        hac = HacFileSystem()
        hac.makedirs("/mail")
        for i in range(4):
            hac.write_file(f"/mail/m{i}.txt", f"alpha word{i}\n".encode())
        hac.write_file("/mail/lunch.txt", b"word2 but no first letter\n")
        hac.ssync("/")
        hac.smkdir("/fp", "alpha")
        hac.smkdir("/fp/sub", "word0 OR word1 OR word2")
        hac.unlink("/fp/m0.txt")
        dev = hac.fs.device
        at = dev.record_write_index + offset
        dev.set_fault_plan(FaultPlan(**{fault: at if fault == "crash_at" else [at]}))
        try:
            HAND_EDITS[edit](hac)
        except (DeviceCrashed, NoSpace):
            dev.clear_faults()
        else:
            assert offset >= 1, "the edit writes its record, its cascade none"
            return
        if fault == "crash_at":
            hac = HacFileSystem.restore(hac.fs)
        kinds = {f.kind for f in hac.fsck() if f.severity == "error"}
        state = hac.meta.require(hac.dirmap.uid_of("/fp"))
        assert hac.scopes.provided("/fp").local \
            == hac.consistency.ids_of(state.links.all_targets())
        if offset and fault == "crash_at":   # the edit's own record landed
            assert kinds == set(), (edit, offset)
            assert_links_from_scratch(hac, (edit, offset))


# ----------------------------------------------------------------------
# exact counts: what one cascade may read and write
# ----------------------------------------------------------------------

class DeviceLog:
    """Keys of the records — and of the journalled pre-images — written
    while installed on a device."""

    def __init__(self, device, monkeypatch):
        self.writes, self.preimages = [], []
        original = device.write_record

        def write_record(key, data):
            if ":u" in key and key.startswith("wal:"):
                self.preimages.append(serialization.loads(data)["key"])
            elif not key.startswith("wal:"):
                self.writes.append(key)
            return original(key, data)

        monkeypatch.setattr(device, "write_record", write_record)

    def semdir(self):
        return ([k for k in self.writes if k.startswith("semdir:")],
                [k for k in self.preimages if k.startswith("semdir:")])


@pytest.fixture
def six_views(monkeypatch):
    """One tenant, 40 files, six semantic directories under one plain
    parent; everything drained.  Yields (hac, tenant, log, walks)."""
    from repro.core import scope

    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    tenant = hac.tenants.create("main")
    tenant.mkdir("/src")
    for i in range(40):
        tenant.write_file(f"/src/f{i}.txt", f"tag{i % 6} text {i}\n".encode())
    for k in range(6):
        tenant.smkdir(f"/q{k}", f"tag{k}")
    tenant.barrier()
    walks = []
    real_walk = scope.walk
    monkeypatch.setattr(scope, "walk", lambda fs, top: walks.append(top)
                        or real_walk(fs, top))
    log = DeviceLog(hac.fs.device, monkeypatch)
    hac.counters.reset()
    return hac, tenant, log, walks


class TestExactCounts:
    def test_a_rewrite_that_changes_no_link_reads_once_writes_nothing(
            self, six_views):
        hac, tenant, log, walks = six_views
        tenant.write_file("/src/f0.txt", b"tag0 text rewritten\n")
        tenant.barrier()
        count = hac.counters.get
        assert count("consistency.reevaluations") == 6
        assert count("consistency.scope_reads") == 1
        assert count("consistency.unchanged") == 6
        assert walks == ["/tenants/main"]          # one subtree, not six
        assert log.semdir() == ([], [])
        assert count("vfs.symlink") == count("vfs.unlink") == 0

    def test_a_rewrite_that_moves_one_file_writes_no_record(self, six_views):
        hac, tenant, log, walks = six_views
        hac.obs.enable()
        tenant.write_file("/src/f0.txt", b"tag0 tag3 text\n")
        tenant.barrier()
        assert log.semdir() == ([], [])     # the new link is in the tree
        assert walks == ["/tenants/main"]
        assert hac.counters.get("consistency.unchanged") == 5
        assert hac.counters.get("vfs.symlink") == 1
        assert "f0.txt" in tenant.links("/q3") and "f0.txt" in tenant.links("/q0")
        # the same numbers where an operator looks: the span, and health()
        (span,) = hac.obs.trace.spans(name="hac.cascade")
        assert {k: span.attrs[k] for k in ("reevaluated", "scope_reads",
                                           "unchanged")} \
            == {"reevaluated": 1, "scope_reads": 1, "unchanged": 5}
        assert hac.health()["cascades"] == {
            "cascades": 1, "reevaluations": 6, "scope_reads": 1, "unchanged": 5}

    def test_a_cascade_without_semantic_directories_is_untouched(self):
        """The andrew_path contract: no barrier, no scope read, no counter."""
        hac = HacFileSystem()
        hac.makedirs("/a/b")
        hac.write_file("/a/b/f.txt", b"x\n")
        hac.counters.reset()
        hac.unlink("/a/b/f.txt")
        assert hac.counters.get("consistency.cascades") == 1
        assert not [k for k, _v in hac.counters.items()
                    if k.startswith("consistency.") and k != "consistency.cascades"]
        assert hac.counters.get("sched.barrier_drains") == 0

    def test_names_are_invented_against_one_set(self, populated, monkeypatch):
        from repro.core.links import LinkSets

        calls = []
        real = LinkSets.used_names
        monkeypatch.setattr(LinkSets, "used_names",
                            lambda self: calls.append(1) or real(self))
        populated.smkdir("/fp", "fingerprint")
        assert len(names(populated, "/fp")) == 3 and calls == [1]

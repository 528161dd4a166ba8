"""Crash recovery and soft-failure atomicity at the HacFileSystem level."""

import pytest

from repro.cba.backend import open_backend
from repro.errors import CorruptRecord, DeviceCrashed, NoSpace
from repro.core.hacfs import HacFileSystem
from repro.vfs.blockdev import FaultPlan

from tests.properties.derived import assert_is_derived


def errors(hacfs):
    return [f for f in hacfs.fsck() if f.severity == "error"]


class TestEnospcAtomicity:
    def test_enospc_mid_write_file_leaves_old_content(self, populated):
        populated.write_file("/notes/draft.txt", b"v1")
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(enospc_allocs={dev.alloc_index}))
        with pytest.raises(NoSpace):
            populated.write_file("/notes/draft.txt", b"v2" * 4096)
        dev.clear_faults()
        assert populated.read_file("/notes/draft.txt") == b"v1"
        assert errors(populated) == []

    def test_enospc_mid_write_file_removes_created_file(self, populated):
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(enospc_allocs={dev.alloc_index}))
        with pytest.raises(NoSpace):
            populated.write_file("/notes/huge.txt", b"x" * 4096)
        dev.clear_faults()
        assert not populated.exists("/notes/huge.txt")
        assert errors(populated) == []

    @pytest.mark.parametrize("offset", range(8))
    def test_enospc_mid_smkdir_is_atomic(self, populated, offset):
        dev = populated.fs.device
        dev.set_fault_plan(
            FaultPlan(enospc_at={dev.record_write_index + offset}))
        try:
            populated.smkdir("/fp", "fingerprint")
            applied = True
        except NoSpace:
            applied = False
        dev.clear_faults()
        assert errors(populated) == []
        if applied:
            assert populated.is_semantic("/fp")
            assert "fp-design.txt" in populated.links("/fp")
        else:
            # fully absent: no directory, no map entry, no record
            assert not populated.exists("/fp")
            assert populated.dirmap.uid_of("/fp") is None
        # and the instance is still usable afterwards
        populated.smkdir("/fp2", "fingerprint")
        assert populated.is_semantic("/fp2")
        assert errors(populated) == []

    def test_enospc_mid_set_query_keeps_old_query(self, populated):
        populated.smkdir("/fp", "fingerprint")
        before_links = dict(populated.links("/fp"))
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(enospc_at={dev.record_write_index}))
        with pytest.raises(NoSpace):
            populated.set_query("/fp", "banana")
        dev.clear_faults()
        assert populated.get_query("/fp") == "fingerprint"
        assert populated.links("/fp") == before_links
        assert errors(populated) == []

    @pytest.mark.parametrize("offset", range(5))
    def test_enospc_anywhere_in_set_query_reevaluates_the_old_links(
            self, populated, offset):
        """The in-process rollback reloads the link tables from records
        and tree, then re-evaluates: the links, and the result a child
        would be evaluated over, are the old query's again."""
        from tests.properties.derived import assert_links_are_derived
        from tests.properties.reference import assert_links_from_scratch

        populated.smkdir("/fp", "fingerprint")
        old = dict(populated.links("/fp"))
        dev = populated.fs.device
        dev.set_fault_plan(
            FaultPlan(enospc_at={dev.record_write_index + offset}))
        try:
            populated.set_query("/fp", "lunch")
            applied = True
        except NoSpace:
            applied = False
        dev.clear_faults()
        assert populated.get_query("/fp") == ("lunch" if applied
                                              else "fingerprint")
        assert (populated.links("/fp") == old) != applied
        assert_links_from_scratch(populated, offset)
        assert_links_are_derived(populated, offset)
        assert errors(populated) == []

    def test_failed_cycle_set_query_rolls_back_cleanly(self, populated):
        from repro.errors import DependencyCycle

        populated.smkdir("/a", "fingerprint")
        populated.smkdir("/b", "/a")
        with pytest.raises(DependencyCycle):
            populated.set_query("/a", "/b")
        assert populated.get_query("/a") == "fingerprint"
        assert errors(populated) == []


class TestRenameOntoAnEmptyDirectory:
    """POSIX lets a directory replace an empty one: HAC forgets the
    replaced directory as an ``rmdir`` would, inside the move's intent, so
    a rollback brings both back.  A query names both, so both hold a
    uid."""

    @staticmethod
    def build(hacfs):
        hacfs.mkdir("/a")
        hacfs.write_file("/a/x.txt", b"alpha")
        hacfs.mkdir("/b")
        hacfs.smkdir("/q", "alpha AND (/a OR /b)")
        return hacfs.dirmap.uid_of("/a"), hacfs.dirmap.uid_of("/b")

    def test_the_move_replaces_the_empty_directory(self, hacfs):
        moved, replaced = self.build(hacfs)
        hacfs.rename("/a", "/b")
        assert not hacfs.exists("/a")
        assert hacfs.read_file("/b/x.txt") == b"alpha"
        assert hacfs.dirmap.uid_of("/b") == moved
        assert hacfs.dirmap.path_of(replaced) is None
        assert errors(hacfs) == []
        assert_is_derived(hacfs)
        restored = HacFileSystem.restore(hacfs.fs)
        assert errors(restored) == []
        assert restored.dirmap.uid_of("/b") == moved
        assert_is_derived(restored)

    @pytest.mark.parametrize("offset", range(6))
    def test_a_failure_mid_move_leaves_both_directories(self, hacfs, offset):
        uids = self.build(hacfs)
        dev = hacfs.fs.device
        dev.set_fault_plan(
            FaultPlan(enospc_at={dev.record_write_index + offset}))
        try:
            hacfs.rename("/a", "/b")
            applied = True
        except NoSpace:
            applied = False
        dev.clear_faults()
        if applied:
            assert hacfs.listdir("/b") == ["x.txt"]
        else:
            assert hacfs.listdir("/a") == ["x.txt"]
            assert hacfs.listdir("/b") == []
            assert (hacfs.dirmap.uid_of("/a"),
                    hacfs.dirmap.uid_of("/b")) == uids
        assert errors(hacfs) == []
        assert_is_derived(hacfs)

    @pytest.mark.parametrize("offset", range(6))
    def test_a_crash_mid_move_restores_both_directories(self, hacfs, offset):
        uids = self.build(hacfs)
        dev = hacfs.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + offset))
        with pytest.raises(DeviceCrashed):
            hacfs.rename("/a", "/b")
        restored = HacFileSystem.restore(hacfs.fs)
        assert restored.listdir("/a") == ["x.txt"]
        assert restored.listdir("/b") == []
        assert (restored.dirmap.uid_of("/a"),
                restored.dirmap.uid_of("/b")) == uids
        assert errors(restored) == []
        restored.fsck(repair=True)
        assert errors(restored) == []


class TestRestoreRecovery:
    def test_clean_reopen_reports_clean_recovery(self, populated):
        populated.save_index()
        restored = HacFileSystem.restore(populated.fs)
        assert restored.last_recovery.clean
        assert errors(restored) == []

    def test_crash_mid_smkdir_recovers_to_absent(self, populated):
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 3))
        with pytest.raises(DeviceCrashed):
            populated.smkdir("/fp", "fingerprint")
        restored = HacFileSystem.restore(populated.fs)
        assert not restored.last_recovery.clean
        assert [op for _seq, op in restored.last_recovery.rolled_back] \
            == ["smkdir"]
        assert not restored.exists("/fp")
        assert restored.dirmap.uid_of("/fp") is None
        assert errors(restored) == []

    def test_crash_mid_rmdir_restores_the_directory(self, populated):
        populated.mkdir("/victim")
        populated.smkdir("/q", "fingerprint AND /victim")
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 1))
        with pytest.raises(DeviceCrashed):
            populated.rmdir("/victim")
        restored = HacFileSystem.restore(populated.fs)
        assert restored.isdir("/victim")
        assert restored.dirmap.uid_of("/victim") is not None
        assert errors(restored) == []

    def test_torn_write_is_healed_by_the_journal(self, populated):
        dev = populated.fs.device
        # the smkdir's writes: its begin, the new record's pre-image, then
        # the record itself — the one torn here
        dev.set_fault_plan(FaultPlan(tear_at=dev.record_write_index + 2))
        with pytest.raises(DeviceCrashed):
            populated.smkdir("/fp", "fingerprint")
        restored = HacFileSystem.restore(populated.fs)
        assert errors(restored) == []
        # the torn record was rolled back to its pre-image (or removed)
        assert all(dev.verify_record(k) for k in dev.record_keys())

    def test_reopen_keeps_link_names_and_the_users_links(self, populated):
        """Transient names come back from the tree, permanent ones from
        the record.  A symlink made before the query is permanent, and one
        to a directory is the user's: both stay.  A dangling one names no
        file, so a load cannot tell it from a transient link whose file
        went, and drops it."""
        from tests.properties.derived import assert_links_are_derived

        populated.mkdir("/fp")
        populated.symlink("/notes/recipe.txt", "/fp/early.txt")
        populated.symlink("/notes", "/fp/notes")
        populated.set_query("/fp", "fingerprint")
        populated.symlink("/mail/msg2.txt", "/fp/pin.txt")
        populated.symlink("/src", "/fp/src")
        populated.symlink("/gone", "/fp/dangle")
        before = populated.links("/fp")
        assert before["early.txt"][0] == "permanent"
        assert "match.c" in before
        restored = HacFileSystem.restore(populated.fs)
        assert restored.links("/fp") == before
        assert set(restored.listdir("/fp")) == set(before) | {"notes", "src"}
        assert errors(restored) == []
        assert_links_are_derived(restored)

    def test_wal_left_by_crash_is_an_fsck_error_before_restore(self, populated):
        dev = populated.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 3))
        with pytest.raises(DeviceCrashed):
            populated.smkdir("/fp", "fingerprint")
        dev.clear_faults()
        kinds = {f.kind for f in errors(populated)}
        assert "pending-intent" in kinds


class _SavedIndexRecord:
    """A saved index, wherever the backend keeps it: restoring it counts
    its branch, an unreadable record raises ``CorruptRecord`` (counted)
    and is an fsck finding, and ``reuse_index=False`` opts into a
    rebuild.  Each subclass names the backend, the record damaged (by key
    prefix), the counter a corrupt one bumps, and the restore branch."""

    BACKEND = "monolith"
    RECORD = "seg:"
    CORRUPT = "restore.segment_corrupt"
    RESTORED = "restore.index_from_segments"

    @pytest.fixture
    def backend(self):
        return self.BACKEND

    def corrupt_saved_record(self, hac):
        """Save the index, then damage its (first) record; returns the
        key."""
        hac.save_index()
        key = min(k for k in hac.fs.device.record_keys()
                  if k.startswith(self.RECORD))
        hac.fs.device.corrupt_record(key)
        return key

    def test_saved_record_restores_and_counts(self, populated):
        from repro.util.stats import Counters

        populated.save_index()
        counters = Counters()
        restored = HacFileSystem.restore(populated.fs, counters=counters)
        assert type(restored.engine) is type(populated.engine)
        assert counters.get(self.RESTORED) == 1
        assert counters.get("restore.index_rebuilds") == 0
        assert errors(restored) == []

    def test_corrupt_record_raises_instead_of_silent_rebuild(self, populated):
        from repro.util.stats import Counters

        self.corrupt_saved_record(populated)
        counters = Counters()
        with pytest.raises(CorruptRecord):
            HacFileSystem.restore(populated.fs, counters=counters)
        assert counters.get(self.CORRUPT) == 1

    def test_corrupt_record_is_an_fsck_finding(self, populated):
        key = self.corrupt_saved_record(populated)
        findings = [f for f in populated.fsck()
                    if f.kind == "corrupt-record" and f.severity == "error"]
        assert findings and findings[0].path == key

    def test_reuse_index_false_opts_into_rebuild(self, populated):
        self.corrupt_saved_record(populated)
        restored = HacFileSystem.restore(populated.fs, reuse_index=False,
                                         backend=self.BACKEND)
        assert len(restored.engine) == 5
        # the rebuild replaces every segment on the device — the
        # monolith's first seal does, a cluster saves — and deletes the
        # corrupt one and rewrites the manifest, so fsck is clean at once
        assert not any(f.kind == "corrupt-record" for f in restored.fsck())


class TestIndexRestoreDistinction(_SavedIndexRecord):
    """The monolith: its saved index is its merged segment."""

    def test_no_record_restores_from_segments_and_counts(self, populated):
        from repro.util.stats import Counters

        counters = Counters()
        restored = HacFileSystem.restore(populated.fs, counters=counters)
        assert counters.get("restore.index_from_segments") == 1
        assert counters.get("restore.index_rebuilds") == 0
        assert errors(restored) == []

    def test_no_record_no_segments_rebuilds_and_counts(self, populated):
        from repro.util.stats import Counters

        counters = Counters()
        restored = HacFileSystem.restore(
            populated.fs, counters=counters,
            backend=open_backend("monolith", segmented=False))
        assert counters.get("restore.index_rebuilds") == 1
        assert counters.get("restore.index_from_segments") == 0
        assert errors(restored) == []

    def test_rebuild_reopen_replaces_every_segment(self):
        """A rebuild's first seal takes an id above every one the device
        holds: had it reused one, sync would keep the stale record, and
        the device's segments would miss what the rebuild indexed."""
        from tests.properties.derived import assert_segments_are_derived

        hac = HacFileSystem()
        hac.mkdir("/d")
        for i in range(3):
            hac.write_file(f"/d/f{i}.txt", b"fingerprint %d" % i)
        hac.ssync("/")
        hac.write_file("/d/f3.txt", b"fingerprint 3")
        restored = HacFileSystem.restore(hac.fs, reuse_index=False)
        assert len(restored.engine) == 4
        assert_segments_are_derived(restored)
        assert errors(restored) == []


class TestSegmentManifestRecord(_SavedIndexRecord):
    """The monolith's manifest is part of its saved index."""

    RECORD = "segmanifest"


class TestClusterIndexRecord(_SavedIndexRecord):
    """A cluster's saved index is one segment per shard, under the
    manifest's shard map."""

    BACKEND = "cluster:3"


class TestPathMapAcrossRestore:
    """Restore must bump the PathMap generation even when the caller pins
    the fsid and hands the same FileSystem back (the crash-recovery
    reopen path): stale cached resolutions must never survive a reopen."""

    def _pinned_world(self):
        from repro.vfs.filesystem import FileSystem

        fs = FileSystem(name="hac", fsid="hac#pinned")
        hac = HacFileSystem(fs=fs)
        hac.makedirs("/proj/a")
        hac.write_file("/proj/a/f.txt", b"fingerprint data")
        hac.ssync("/")
        hac.save_index()
        return fs, hac

    def test_restore_invalidates_the_pinned_fsid_map(self):
        fs, hac = self._pinned_world()
        # warm the cache so stale entries exist to serve
        assert hac.read_file("/proj/a/f.txt") == b"fingerprint data"
        before = fs._pathmap.generation
        HacFileSystem.restore(fs)
        assert fs._pathmap.generation > before

    def test_rename_after_pinned_restore_resolves_fresh(self):
        fs, hac = self._pinned_world()
        assert hac.read_file("/proj/a/f.txt") == b"fingerprint data"
        again = HacFileSystem.restore(fs)
        again.rename("/proj/a", "/proj/b")
        assert again.read_file("/proj/b/f.txt") == b"fingerprint data"
        assert not again.exists("/proj/a/f.txt")
        again.ssync("/")
        doc = next(again.engine.doc_by_id(d)
                   for d in again.engine.all_docs())
        assert doc.path == "/proj/b/f.txt"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="restore's catch-up sync finds changed files by "
                   "mtime alone, so a rewrite within the sealed version's "
                   "clock instant keeps the sealed row")
def test_a_same_instant_rewrite_survives_a_crash():
    """A file rewritten without a clock tick after ``save_index``, its new
    text drained into the unsealed memtable, must answer from the new text
    after a crash and a restore."""
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    hac.mkdir("/d")
    hac.watch("/d")
    hac.write_file("/d/w.txt", b"alpha")
    hac.save_index()
    hac.write_file("/d/w.txt", b"beta")
    hac.maintenance.drain()
    dev = hac.fs.device
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index))
    with pytest.raises(DeviceCrashed):
        hac.ssync("/")
    restored = HacFileSystem.restore(hac.fs)
    assert restored.glimpse("beta") == ["/d/w.txt"]
    assert restored.glimpse("alpha") == []

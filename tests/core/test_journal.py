"""Write-ahead intent journal mechanics (record level, no HacFileSystem)."""

import pytest

from repro.core.journal import Journal, WAL_PREFIX
from repro.util.stats import Counters
from repro.vfs.blockdev import BlockDevice, FaultPlan


@pytest.fixture
def dev():
    return BlockDevice()


@pytest.fixture
def journal(dev):
    return Journal(dev, Counters())


def wal_keys(dev):
    return sorted(k for k in dev.record_keys() if k.startswith(WAL_PREFIX))


def keys(pending):
    """The record keys a recovered intent journaled, in capture order."""
    return [p["key"] for p in pending.pre_images]


class TestLifecycle:
    def test_commit_leaves_no_wal_records(self, dev, journal):
        intent = journal.begin("op", {"path": "/d"})
        dev.write_record("semdir:1", b"state")
        journal.commit(intent)
        assert wal_keys(dev) == []
        assert dev.read_record("semdir:1") == b"state"

    def test_preimage_written_before_the_touching_write(self, dev, journal):
        dev.write_record("semdir:1", b"old")
        intent = journal.begin("op", {})
        seen = []
        original = dev.record_hook

        def spy(key, old):
            if not key.startswith(WAL_PREFIX):
                seen.append((key,
                             dev.read_record(f"{WAL_PREFIX}{intent.seq}:u0")
                             is not None))
            original(key, old)

        dev.record_hook = spy
        dev.write_record("semdir:1", b"new")
        # at hook time the pre-image did not exist yet; right after the hook
        # (i.e. before the touching write persisted) it does
        assert seen == [("semdir:1", False)]
        assert dev.read_record(f"{WAL_PREFIX}{intent.seq}:u0") is not None

    def test_only_first_touch_is_captured(self, dev, journal):
        intent = journal.begin("op", {})
        dev.write_record("k", b"v1")
        dev.write_record("k", b"v2")
        dev.write_record("k", b"v3")
        assert intent.capture_order == ["k"]

    def test_nested_begin_joins_outer_intent(self, dev, journal):
        outer = journal.begin("outer", {})
        assert journal.begin("inner", {}) is None
        dev.write_record("k", b"v")
        assert outer.capture_order == ["k"]
        journal.commit(outer)
        assert wal_keys(dev) == []

    def test_no_capture_outside_an_intent(self, dev, journal):
        dev.write_record("k", b"v")
        assert wal_keys(dev) == []


class TestPendingAndRollback:
    def test_rollback_restores_preimages_in_reverse(self, dev, journal):
        dev.write_record("a", b"a-old")
        intent = journal.begin("op", {"x": 1})
        dev.write_record("a", b"a-new")
        dev.write_record("b", b"b-new")       # did not exist before
        dev.delete_record("a")
        journal.abandon(intent)

        pending = journal.pending()
        assert [(p.seq, p.op) for p in pending] == [(intent.seq, "op")]
        assert keys(pending[0]) == ["a", "b"]
        journal.rollback_records(pending[0])
        assert dev.read_record("a") == b"a-old"
        assert dev.read_record("b") is None
        assert wal_keys(dev) == []

    def test_commit_then_reopen_sees_nothing_pending(self, dev, journal):
        intent = journal.begin("op", {})
        dev.write_record("k", b"v")
        journal.commit(intent)
        reopened = Journal(dev, Counters())
        assert reopened.pending() == []

    def test_seq_continues_after_reopen(self, dev, journal):
        intent = journal.begin("op", {})
        dev.write_record("k", b"v")
        journal.abandon(intent)
        reopened = Journal(dev, Counters())
        fresh = reopened.begin("op2", {})
        assert fresh.seq > intent.seq

    def test_orphan_preimages_are_cleared(self, dev, journal):
        # a crash between begin-delete and u-record GC leaves orphans
        intent = journal.begin("op", {})
        dev.write_record("k", b"v")
        journal.abandon(intent)
        dev.delete_record(f"{WAL_PREFIX}{intent.seq}:begin")
        assert journal.pending() == []        # no begin → not pending
        assert journal.clear_orphans() == 1
        assert wal_keys(dev) == []

    def test_corrupt_begin_record_is_skipped(self, dev, journal):
        intent = journal.begin("op", {})
        dev.write_record("k", b"v")
        journal.abandon(intent)
        dev.corrupt_record(f"{WAL_PREFIX}{intent.seq}:begin")
        assert journal.pending() == []

    def test_torn_preimage_truncates_the_prefix(self, dev, journal):
        dev.write_record("a", b"a-old")
        dev.write_record("b", b"b-old")
        intent = journal.begin("op", {})
        dev.write_record("a", b"a-new")
        dev.write_record("b", b"b-new")
        journal.abandon(intent)
        # tear the SECOND pre-image: rollback must still restore the first
        dev.corrupt_record(f"{WAL_PREFIX}{intent.seq}:u1")
        pending = journal.pending()
        assert keys(pending[0]) == ["a"]

    def test_rollback_active_is_atomicity_for_soft_failures(self, dev, journal):
        dev.write_record("a", b"a-old")
        intent = journal.begin("op", {})
        dev.write_record("a", b"a-mid")
        dev.set_fault_plan(FaultPlan(enospc_at={dev.record_write_index}))
        from repro.errors import NoSpace
        with pytest.raises(NoSpace):
            dev.write_record("a", b"a-new")
        journal.rollback_active(intent)
        assert dev.read_record("a") == b"a-old"
        assert wal_keys(dev) == []
        assert journal.active is None


class TestCrashPoints:
    def test_crash_during_preimage_write_loses_nothing(self, dev):
        from repro.errors import DeviceCrashed

        journal = Journal(dev, Counters())
        dev.write_record("a", b"a-old")       # index 0
        intent = journal.begin("op", {})      # index 1 (begin)
        # index 2 is the wal pre-image write for "a": crash exactly there
        dev.set_fault_plan(FaultPlan(crash_at=2))
        with pytest.raises(DeviceCrashed):
            dev.write_record("a", b"a-new")
        journal.abandon(intent)
        dev.clear_faults()
        reopened = Journal(dev, Counters())
        pending = reopened.pending()
        assert len(pending) == 1 and keys(pending[0]) == []
        reopened.rollback_records(pending[0])
        assert dev.read_record("a") == b"a-old"

    def test_crash_mid_commit_stays_committed(self, dev):
        from repro.errors import DeviceCrashed

        journal = Journal(dev, Counters())
        intent = journal.begin("op", {})
        dev.write_record("k", b"v")
        # commit deletes begin first; crash on the u0 delete right after
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 1))
        with pytest.raises(DeviceCrashed):
            journal.commit(intent)
        dev.clear_faults()
        reopened = Journal(dev, Counters())
        assert reopened.pending() == []       # begin gone → committed
        assert reopened.clear_orphans() >= 1  # leftover u0 swept
        assert dev.read_record("k") == b"v"   # the operation stuck

"""Exhaustive crash-point sweep over every journaled operation.

For each journaled mutation we first run it once with no faults to learn
how many record writes it performs, then replay it on a fresh, identical
world once per write index, crashing the device exactly there.  After every
crash, ``HacFileSystem.restore()`` must produce a tree whose ``hacfsck``
report has **zero error-severity findings**, and the mutation must be
atomically present or absent — never half-applied.

A crash during commit is the one case where the caller sees an exception
but the operation still lands (the commit point is the deletion of the
``begin`` record), so a raised exception admits either final state; what is
never admitted is a partial one.

``CRASH_SWEEP_SEED`` (CI matrix) varies the world layout so the sweep does
not overfit one record-write schedule.

The sweep also pins the journal↔trace correlation contract: the crashed
run captures spans, and every intent the subsequent recovery rolls back
must match (by journal sequence = span op id) both the root span of the
operation that wrote it and a ``journal.rollback`` span emitted during
recovery.
"""

import os

import pytest

from repro.errors import DeviceCrashed
from repro.core.hacfs import HacFileSystem
from repro.obs import Observability
from repro.vfs.blockdev import FaultPlan

from tests.properties.derived import assert_graph_is_derived, graph_shape

SEED = int(os.environ.get("CRASH_SWEEP_SEED", "0"))


def build_world(trace: bool = False) -> HacFileSystem:
    """A small deterministic world: local corpus, one semantic dir, one
    empty victim dir.  Layout varies slightly with the sweep seed."""
    hac = HacFileSystem()
    if trace:
        hac.obs.enable()
    hac.makedirs("/docs")
    hac.write_file("/docs/a.txt", b"fingerprint ridge analysis notes\n")
    hac.write_file("/docs/b.txt", b"banana bread recipe\n")
    for i in range(SEED % 3):
        hac.write_file(f"/docs/extra{i}.txt",
                       b"fingerprint extras %d\n" % i)
    if SEED % 2:
        hac.mkdir("/spare")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.mkdir("/victim")
    return hac


def fp_link_names(hac, path="/fp"):
    return set(hac.links(path))


# each op: (mutate, state_of) where state_of returns
# "applied" | "absent" | "partial"

def _state_mkdir(hac):
    exists = hac.isdir("/newdir")
    uid = hac.dirmap.uid_of("/newdir")
    if exists and uid is not None and hac.meta.get(uid) is not None \
            and uid in hac.depgraph:
        return "applied"
    if not hac.exists("/newdir") and uid is None:
        return "absent"
    return "partial"


def _state_smkdir(hac):
    uid = hac.dirmap.uid_of("/new")
    if hac.isdir("/new") and uid is not None and hac.is_semantic("/new") \
            and "a.txt" in fp_link_names(hac, "/new"):
        return "applied"
    if not hac.exists("/new") and uid is None:
        return "absent"
    return "partial"


def _state_rmdir(hac):
    uid = hac.dirmap.uid_of("/victim")
    if not hac.exists("/victim") and uid is None:
        return "applied"
    if hac.isdir("/victim") and uid is not None \
            and hac.meta.get(uid) is not None:
        return "absent"
    return "partial"


def _state_set_query(hac):
    q = hac.get_query("/fp")
    names = fp_link_names(hac)
    if q == "banana" and "b.txt" in names and "a.txt" not in names:
        return "applied"
    if q == "fingerprint" and "a.txt" in names and "b.txt" not in names:
        return "absent"
    return "partial"


def _state_detach_query(hac):
    if not hac.is_semantic("/fp") and fp_link_names(hac) == set():
        return "applied"
    if hac.get_query("/fp") == "fingerprint" and "a.txt" in fp_link_names(hac):
        return "absent"
    return "partial"


def _state_rename_dir(hac):
    old_uid, new_uid = hac.dirmap.uid_of("/fp"), hac.dirmap.uid_of("/fp2")
    if new_uid is not None and old_uid is None and hac.isdir("/fp2") \
            and not hac.exists("/fp") and "a.txt" in fp_link_names(hac, "/fp2"):
        return "applied"
    if old_uid is not None and new_uid is None and hac.isdir("/fp") \
            and not hac.exists("/fp2") and "a.txt" in fp_link_names(hac):
        return "absent"
    return "partial"


def _state_rename_file(hac):
    at_new = hac.isfile("/docs/a2.txt")
    at_old = hac.isfile("/docs/a.txt")
    if at_new and not at_old:
        return "applied"
    if at_old and not at_new:
        return "absent"
    return "partial"


def _state_always_applied(hac):
    # ssync/save_index have no user-visible half state: restore() re-syncs,
    # so the world is simply current — the fsck gate is the real assertion
    return "applied"


OPERATIONS = {
    "mkdir": (lambda h: h.mkdir("/newdir"), _state_mkdir),
    "smkdir": (lambda h: h.smkdir("/new", "fingerprint"), _state_smkdir),
    "rmdir": (lambda h: h.rmdir("/victim"), _state_rmdir),
    "set_query": (lambda h: h.set_query("/fp", "banana"), _state_set_query),
    "detach_query": (lambda h: h.set_query("/fp", None), _state_detach_query),
    "rename_dir": (lambda h: h.rename("/fp", "/fp2"), _state_rename_dir),
    "rename_file": (lambda h: h.rename("/docs/a.txt", "/docs/a2.txt"),
                    _state_rename_file),
    "ssync": (lambda h: (h.write_file("/docs/c.txt", b"late fingerprint\n"),
                         h.clock.tick(), h.ssync("/")),
              _state_always_applied),
    "save_index": (lambda h: h.save_index(), _state_always_applied),
}


def _dry_run(op_name):
    """Fault-free run: how many record writes the operation performs, and
    the dependency graph the world maintains without and with it."""
    mutate, _state = OPERATIONS[op_name]
    hac = build_world()
    graphs = {"absent": graph_shape(hac.depgraph)}
    start = hac.fs.device.record_write_index
    mutate(hac)
    graphs["applied"] = graph_shape(hac.depgraph)
    return hac.fs.device.record_write_index - start, graphs


def _assert_rollbacks_correlate(op_name, offset, crashed, recovery_obs,
                                report):
    """Journal seq ↔ span op id, both ways: each rolled-back intent must
    match the crashed run's root span (stamped at ``begin``) and a
    ``journal.rollback`` span emitted during recovery."""
    trace = crashed.obs.trace
    begin_seqs = {s.op_id for s in trace.spans(name="journal.begin")}
    for seq, op in report.rolled_back:
        where = (op_name, offset, seq, op)
        assert seq in begin_seqs, where
        roots = [s for s in trace.spans(op_id=seq) if s.parent_id is None]
        assert len(roots) == 1, where
        assert roots[0].name == f"hac.{op}", (where, roots[0].name)
        rollbacks = recovery_obs.trace.spans(name="journal.rollback",
                                             op_id=seq)
        assert len(rollbacks) == 1, where
    # and no rollback span without a recovered intent behind it
    rolled_seqs = {seq for seq, _op in report.rolled_back}
    for span in recovery_obs.trace.spans(name="journal.rollback"):
        assert span.op_id in rolled_seqs, (op_name, offset, span.op_id)


@pytest.mark.parametrize("op_name", sorted(OPERATIONS))
def test_crash_sweep(op_name):
    mutate, state_of = OPERATIONS[op_name]
    n_writes, graphs = _dry_run(op_name)
    assert n_writes > 0, f"{op_name} is not journaled (no record writes)"
    rollbacks_seen = 0
    for offset in range(n_writes):
        hac = build_world(trace=True)
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))
        raised = False
        try:
            mutate(hac)
        except DeviceCrashed:
            raised = True
        assert raised, (op_name, offset)  # the sweep covers every write
        recovery_obs = Observability(enabled=True)
        restored = HacFileSystem.restore(hac.fs, obs=recovery_obs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (op_name, offset, [str(f) for f in errors])
        state = state_of(restored)
        assert state != "partial", (op_name, offset)
        # the graph is derived on reopen, never read back: it must be the
        # one a world that never crashed maintains in the same state
        assert graph_shape(restored.depgraph) == graphs[state], \
            (op_name, offset, state)
        assert_graph_is_derived(restored, (op_name, offset))
        _assert_rollbacks_correlate(op_name, offset, hac, recovery_obs,
                                    restored.last_recovery)
        rollbacks_seen += len(restored.last_recovery.rolled_back)
    # a sweep that never rolled anything back would vacuously pass the
    # correlation contract; every journaled op crashes mid-intent somewhere
    assert rollbacks_seen > 0, op_name


@pytest.mark.parametrize("op_name", ["smkdir", "set_query"])
def test_tear_sweep(op_name):
    """Torn-write variant: the crashing write persists garbage; recovery
    must detect it (checksums) and heal it from the journal."""
    mutate, state_of = OPERATIONS[op_name]
    n_writes, _graphs = _dry_run(op_name)
    for offset in range(n_writes):
        hac = build_world()
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(tear_at=dev.record_write_index + offset))
        try:
            mutate(hac)
        except DeviceCrashed:
            pass
        restored = HacFileSystem.restore(hac.fs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (op_name, offset, [str(f) for f in errors])
        assert all(dev.verify_record(k) for k in dev.record_keys())
        assert state_of(restored) != "partial", (op_name, offset)


def build_sched_world(trace: bool = False) -> HacFileSystem:
    """The sweep world with /docs watched and the maintenance scheduler in
    batched mode, so a drain group-commits several updates at once."""
    hac = build_world(trace=trace)
    hac.watch("/docs")
    hac.maintenance.set_mode("batched")
    return hac


def _mutate_sched(hac):
    # in batched mode nothing touches the device until the drain, so every
    # crash offset lands inside the single sched_batch intent
    hac.clock.tick()
    hac.write_file("/docs/new1.txt", b"fresh fingerprint evidence\n")
    hac.write_file("/docs/new2.txt", b"banana pancakes\n")
    hac.write_file("/docs/new1.txt", b"rewritten fingerprint evidence\n")
    hac.unlink("/docs/b.txt")
    hac.maintenance.drain()


def test_crash_sweep_sched_batch():
    """The group-commit intent rolls the *whole* batch back atomically; a
    reopen then brings the index current, so no update is ever lost."""
    dry = build_sched_world()
    start = dry.fs.device.record_write_index
    _mutate_sched(dry)
    n_writes = dry.fs.device.record_write_index - start
    assert n_writes > 0, "the batch drain is not journaled"
    rollbacks_seen = 0
    for offset in range(n_writes):
        hac = build_sched_world(trace=True)
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))
        with pytest.raises(DeviceCrashed):
            _mutate_sched(hac)
        recovery_obs = Observability(enabled=True)
        restored = HacFileSystem.restore(hac.fs, obs=recovery_obs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (offset, [str(f) for f in errors])
        # every rolled-back intent is a batch group commit, stamped onto
        # the root span of whatever forced the drain: the explicit drain
        # itself, or the cascade whose pre-query barrier drained early
        # (the unlink's scope cascade does exactly that)
        for seq, op in restored.last_recovery.rolled_back:
            assert op == "sched_batch", (offset, op)
            roots = [s for s in hac.obs.trace.spans(op_id=seq)
                     if s.parent_id is None]
            assert len(roots) == 1, (offset, seq)
            assert roots[0].name in ("sched.drain", "hac.cascade"), \
                (offset, roots[0].name)
            assert len(recovery_obs.trace.spans(
                name="journal.rollback", op_id=seq)) == 1, (offset, seq)
        rollbacks_seen += len(restored.last_recovery.rolled_back)
        # the reopen re-syncs: the batched writes land regardless of where
        # the crash fell, and the withdrawn document stays gone
        names = fp_link_names(restored)
        assert "new1.txt" in names, offset
        assert "b.txt" not in names, offset
    assert rollbacks_seen > 0


def test_crash_during_recovery_is_recoverable(populated):
    """A second crash while recovery itself is rolling back records must
    still be recoverable by the next restore().  (restore() clears fault
    plans as its reboot step, so the mid-recovery crash is injected by
    driving the record pass directly.)"""
    from repro.core.journal import Journal
    from repro.core.recovery import RecoveryReport, recover_records
    from repro.util.stats import Counters

    dev = populated.fs.device
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 3))
    try:
        populated.smkdir("/fp", "fingerprint")
    except DeviceCrashed:
        pass
    dev.clear_faults()
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 1))
    with pytest.raises(DeviceCrashed):
        recover_records(Journal(dev, Counters()), RecoveryReport())
    restored = HacFileSystem.restore(populated.fs)
    assert [f for f in restored.fsck() if f.severity == "error"] == []
    assert not restored.exists("/fp")


# ----------------------------------------------------------------------
# segment plane: seal and compaction ride the same intents
# ----------------------------------------------------------------------

def _seg_keys(dev):
    return {k for k in dev.record_keys() if k.startswith("seg:")}


def _manifest_names(hac):
    try:
        manifest = hac.meta.load_aux("segmanifest") or {}
    except Exception:
        return set()
    return {f"seg:{sid}" for sid in manifest.get("segments", ())}


def _assert_segment_list_consistent(hac, where):
    """The crash-atomicity contract for the segment store: whatever the
    offset, the device's ``seg:`` records and the manifest agree."""
    assert _seg_keys(hac.fs.device) == _manifest_names(hac), where


def build_seal_world(trace: bool = False) -> HacFileSystem:
    """The batched world with the seal threshold floored, so every drain
    cuts a segment and persists it inside the ``sched_batch`` intent."""
    hac = build_sched_world(trace=trace)
    hac.engine.segments.seal_threshold = 1
    return hac


def test_crash_sweep_seal_intent():
    """Crash at every record write inside a drain that seals: the seal's
    segment records and manifest must roll back with the batch — fsck
    clean, segment list consistent, and the reopen re-lands the batch."""
    dry = build_seal_world()
    before_keys = _seg_keys(dry.fs.device)
    start = dry.fs.device.record_write_index
    _mutate_sched(dry)
    n_writes = dry.fs.device.record_write_index - start
    # the sweep is only meaningful if the drain actually persisted a
    # sealed segment (new seg: records appeared)
    assert _seg_keys(dry.fs.device) - before_keys, "drain sealed nothing"
    for offset in range(n_writes):
        hac = build_seal_world()
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))
        with pytest.raises(DeviceCrashed):
            _mutate_sched(hac)
        restored = HacFileSystem.restore(hac.fs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (offset, [str(f) for f in errors])
        _assert_segment_list_consistent(restored, offset)
        names = fp_link_names(restored)
        assert "new1.txt" in names, offset
        assert "b.txt" not in names, offset


def build_compact_world(trace: bool = False) -> HacFileSystem:
    """A world with several persisted frozen segments, so the next
    reindex compacts (merges and deletes old records) inside its intent."""
    hac = build_seal_world(trace=trace)
    for i in range(3):
        hac.clock.tick()
        hac.write_file(f"/docs/seg{i}.txt", b"fingerprint round %d\n" % i)
        hac.maintenance.drain()
    assert len(_seg_keys(hac.fs.device)) >= 2, "no segments to compact"
    return hac


def _mutate_compact(hac):
    hac.clock.tick()
    hac.write_file("/docs/zeta.txt", b"fingerprint zeta\n")
    hac.reindex()


def test_crash_sweep_compact_intent():
    """Crash at every device write (and delete — deletions consume write
    indexes too) inside the reindex that compacts: old segment records
    must survive or the merge must land, never half of each."""
    dry = build_compact_world()
    start = dry.fs.device.record_write_index
    _mutate_compact(dry)
    n_writes = dry.fs.device.record_write_index - start
    # compaction folded the frozen list down to one record
    assert len(_seg_keys(dry.fs.device)) == 1
    rollbacks_seen = 0
    for offset in range(n_writes):
        hac = build_compact_world()
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))
        with pytest.raises(DeviceCrashed):
            _mutate_compact(hac)
        restored = HacFileSystem.restore(hac.fs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (offset, [str(f) for f in errors])
        _assert_segment_list_consistent(restored, offset)
        rollbacks_seen += len(restored.last_recovery.rolled_back)
        # whatever the crash point, the reopened world answers current
        assert "zeta.txt" in fp_link_names(restored), offset
    assert rollbacks_seen > 0


def test_orphan_segment_record_is_an_fsck_error_and_repairable(populated):
    """A ``seg:`` record the manifest does not name (what an un-healed
    crashed seal would leave) is flagged, and ``repair`` drops it."""
    from repro.util import serialization

    dev = populated.fs.device
    dev.write_record("seg:zz9999", serialization.dumps(["bogus"]))
    findings = [f for f in populated.fsck()
                if f.kind == "orphan-segment" and f.severity == "error"]
    assert findings and findings[0].path == "seg:zz9999"
    populated.fsck(repair=True)
    assert "seg:zz9999" not in dev.record_keys()
    assert not [f for f in populated.fsck()
                if f.kind == "orphan-segment"]


def test_missing_segment_record_is_an_fsck_error(populated):
    """A manifest entry whose record vanished is unrecoverable state —
    an error finding, not a silent rebuild."""
    populated.reindex()  # guarantees a manifest + at least one segment
    dev = populated.fs.device
    key = sorted(_seg_keys(dev))[0]
    dev.delete_record(key)
    findings = [f for f in populated.fsck()
                if f.kind == "missing-segment" and f.severity == "error"]
    assert findings and findings[0].path == key

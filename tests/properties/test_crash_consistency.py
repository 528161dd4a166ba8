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

At every crash point the reopened world's links are also the ones a
from-scratch evaluation gives (``assert_links_from_scratch``), and the
link tables it maintains are the ones its records plus its tree load
(``assert_links_are_derived``).

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

from repro.errors import DeviceCrashed, NoSpace
from repro.core.hacfs import HacFileSystem
from repro.obs import Observability
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

from tests.properties.derived import (assert_is_derived,
                                     assert_links_are_derived,
                                     assert_segments_are_derived, graph_shape)
from tests.properties.reference import assert_links_from_scratch

SEED = int(os.environ.get("CRASH_SWEEP_SEED", "0"))


def build_world(trace: bool = False, backend=None,
                mode: str = "eager") -> HacFileSystem:
    """A small deterministic world: local corpus, one semantic dir, one
    empty victim dir, and directories nothing names: ``/plain/a/b`` with a
    file, and ``/shelf`` holding a file and the semantic
    ``/shelf/box/sem`` beside it (which names ``/shelf/box``).  Layout
    varies slightly with the sweep seed."""
    hac = HacFileSystem(backend=backend)
    if trace:
        hac.obs.enable()
    hac.maintenance.set_mode(mode)
    hac.makedirs("/docs")
    hac.write_file("/docs/a.txt", b"fingerprint ridge analysis notes\n")
    hac.write_file("/docs/b.txt", b"banana bread recipe\n")
    for i in range(SEED % 3):
        hac.write_file(f"/docs/extra{i}.txt",
                       b"fingerprint extras %d\n" % i)
    if SEED % 2:
        hac.mkdir("/spare")
    hac.makedirs("/plain/a/b")
    hac.write_file("/plain/a/b/notes.txt", b"fingerprint plain notes\n")
    hac.makedirs("/shelf/box")
    hac.write_file("/shelf/box/item.txt", b"fingerprint shelved item\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.smkdir("/shelf/box/sem", "fingerprint")
    hac.mkdir("/victim")
    hac.maintenance.drain()
    return hac


def fp_link_names(hac, path="/fp"):
    return set(hac.links(path))


def assert_links_hold(hac, where) -> None:
    """The reopened links are evaluation's, and a reload's."""
    assert_links_from_scratch(hac, where)
    assert_links_are_derived(hac, where)


# each op: (mutate, state_of) where state_of returns
# "applied" | "absent" | "partial"

def _state_mkdir(hac):
    # nothing names a plain directory: it holds no uid either way
    if hac.dirmap.uid_of("/newdir") is not None:
        return "partial"
    return "applied" if hac.isdir("/newdir") else "absent"


def _state_smkdir(hac):
    uid = hac.dirmap.uid_of("/new")
    if hac.isdir("/new") and uid is not None and hac.is_semantic("/new") \
            and "a.txt" in fp_link_names(hac, "/new"):
        return "applied"
    if not hac.exists("/new") and uid is None:
        return "absent"
    return "partial"


def _state_rmdir(hac):
    if hac.dirmap.uid_of("/victim") is not None:
        return "partial"
    return "absent" if hac.isdir("/victim") else "applied"


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


def _state_smkdir_under(parent):
    """``parent/new`` made semantic, linking the plain file below
    ``parent`` — or absent.  Which directories hold a uid is
    ``assert_named_dirs_have_uids``'s to say."""
    def state_of(hac):
        new = f"{parent}/new"
        if hac.is_semantic(new) and set(hac.links(new)) == {"notes.txt"}:
            return "applied"
        if not hac.exists(new):
            return "absent"
        return "partial"
    return state_of


def _state_query_plain_ref(hac):
    if hac.get_query("/fp") == "fingerprint AND /plain/a" \
            and fp_link_names(hac) == {"notes.txt"}:
        return "applied"
    if hac.get_query("/fp") == "fingerprint" \
            and "a.txt" in fp_link_names(hac):
        return "absent"
    return "partial"


def _state_shelf_at(applied_at, absent_at):
    """``/shelf`` moved with the semantic directory it carries: applied
    at *applied_at*, absent at *absent_at*."""
    def at(hac, top):
        return hac.isdir(top) and hac.dirmap.uid_of(f"{top}/box") is not None \
            and hac.is_semantic(f"{top}/box/sem") \
            and fp_link_names(hac, f"{top}/box/sem") == {"item.txt"}

    def state_of(hac):
        here, there = at(hac, applied_at), at(hac, absent_at)
        if here and not hac.exists(absent_at):
            return "applied"
        if there and not hac.exists(applied_at):
            return "absent"
        return "partial"
    return state_of


def _watch_plain(hac):
    """A watch on a plain directory follows it through a rename, keeps
    what is written there fresh, and ends with its ``rmdir``."""
    hac.rename("/watched", "/plain/watched")
    hac.write_file("/plain/watched/hot.txt", b"fingerprint hot\n")
    assert hac.watches.roots() == ["/plain/watched"]
    assert hac.glimpse("hot") == ["/plain/watched/hot.txt"]
    hac.unlink("/plain/watched/hot.txt")
    hac.rmdir("/plain/watched")
    assert hac.watches.roots() == []


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

#: what a plain directory's op writes: nothing — so it has no crash point,
#: and a reopen right after it finds it applied
UNJOURNALED = {"mkdir", "rmdir", "glimpse_plain"}

#: the ops on directories nothing names (docs/SEMANTICS.md §1), swept on
#: both back-ends and in both maintenance modes
PLAIN_OPERATIONS = {
    "smkdir_unnamed_parent": (lambda h: h.smkdir("/plain/new", "fingerprint"),
                              _state_smkdir_under("/plain")),
    "smkdir_nested": (lambda h: h.smkdir("/plain/a/b/new", "fingerprint"),
                      _state_smkdir_under("/plain/a/b")),
    "query_plain_ref": (lambda h: h.set_query("/fp",
                                              "fingerprint AND /plain/a"),
                        _state_query_plain_ref),
    "rename_carrying": (lambda h: h.rename("/shelf", "/victim/shelf"),
                        _state_shelf_at("/victim/shelf", "/shelf")),
    "rename_carrying_back": (lambda h: h.rename("/victim/shelf", "/shelf"),
                             _state_shelf_at("/shelf", "/victim/shelf")),
    "watch_plain": (_watch_plain, _state_always_applied),
    "glimpse_plain": (lambda h: h.glimpse("fingerprint AND /plain"),
                      _state_always_applied),
}
OPERATIONS.update(PLAIN_OPERATIONS)

#: what each op's world holds beyond :func:`build_world`
SETUPS = {
    "rename_carrying_back": lambda h: h.rename("/shelf", "/victim/shelf"),
    "watch_plain": lambda h: (h.mkdir("/watched"), h.watch("/watched")),
}

#: (backend, maintenance mode) the plain-directory ops are swept on
CONFIGS = [(None, "eager"), (None, "batched"), ("cluster:3", "batched")]


def op_world(op_name, trace: bool = False, backend=None,
             mode: str = "eager") -> HacFileSystem:
    hac = build_world(trace, backend, mode)
    setup = SETUPS.get(op_name)
    if setup is not None:
        setup(hac)
        hac.maintenance.drain()
    return hac


def _dry_run(op_name, backend=None, mode="eager"):
    """Fault-free run: how many record writes the operation performs, and
    the dependency graph the world maintains without and with it."""
    mutate, _state = OPERATIONS[op_name]
    hac = op_world(op_name, backend=backend, mode=mode)
    graphs = {"absent": graph_shape(hac.depgraph)}
    start = hac.fs.device.record_write_index
    mutate(hac)
    graphs["applied"] = graph_shape(hac.depgraph)
    return hac.fs.device.record_write_index - start, graphs


def _assert_rollbacks_correlate(op_name, offset, crashed, recovery_obs,
                                report):
    """Journal seq ↔ span op id, both ways: each rolled-back intent must
    match the crashed run's root span (stamped at ``begin``) and a
    ``journal.rollback`` span emitted during recovery.  A batch group
    commit is stamped onto whatever forced the drain (as in
    :func:`test_crash_sweep_sched_batch`)."""
    trace = crashed.obs.trace
    begin_seqs = {s.op_id for s in trace.spans(name="journal.begin")}
    for seq, op in report.rolled_back:
        where = (op_name, offset, seq, op)
        assert seq in begin_seqs, where
        roots = [s for s in trace.spans(op_id=seq) if s.parent_id is None]
        assert len(roots) == 1, where
        assert roots[0].name in (("sched.drain", "hac.cascade")
                                 if op == "sched_batch" else (f"hac.{op}",)), \
            (where, roots[0].name)
        rollbacks = recovery_obs.trace.spans(name="journal.rollback",
                                             op_id=seq)
        assert len(rollbacks) == 1, where
    # and no rollback span without a recovered intent behind it
    rolled_seqs = {seq for seq, _op in report.rolled_back}
    for span in recovery_obs.trace.spans(name="journal.rollback"):
        assert span.op_id in rolled_seqs, (op_name, offset, span.op_id)


def crash_points(n_writes):
    """Every write index of an op — or, for one that writes nothing, one
    run without a fault (``None``)."""
    return range(n_writes) or [None]


@pytest.mark.parametrize("op_name", sorted(set(OPERATIONS)
                                           - set(PLAIN_OPERATIONS)))
def test_crash_sweep(op_name):
    sweep(op_name)


@pytest.mark.parametrize("backend,mode", CONFIGS)
@pytest.mark.parametrize("op_name", sorted(PLAIN_OPERATIONS))
def test_crash_sweep_plain_directories(op_name, backend, mode):
    """The ops on directories nothing names: a semantic directory made
    under a plain parent and two deep, a query naming a plain directory,
    a plain directory carrying a semantic one moved and moved back, a
    watch on a plain directory through a rename and an ``rmdir``, an
    ad-hoc glimpse naming a plain directory."""
    sweep(op_name, backend, mode)


def sweep(op_name, backend=None, mode="eager"):
    mutate, state_of = OPERATIONS[op_name]
    n_writes, graphs = _dry_run(op_name, backend, mode)
    if op_name in UNJOURNALED:
        assert n_writes == 0, f"{op_name} of a plain directory writes"
    else:
        assert n_writes > 0, f"{op_name} is not journaled (no record writes)"
    rollbacks_seen = 0
    for offset in crash_points(n_writes):
        hac = op_world(op_name, True, backend, mode)
        dev = hac.fs.device
        raised = False
        if offset is not None:
            dev.set_fault_plan(
                FaultPlan(crash_at=dev.record_write_index + offset))
        try:
            mutate(hac)
        except DeviceCrashed:
            raised = True
        # the sweep covers every write
        assert raised == (offset is not None), (op_name, offset)
        recovery_obs = Observability(enabled=True)
        restored = HacFileSystem.restore(hac.fs, obs=recovery_obs,
                                         backend=backend)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (op_name, offset, [str(f) for f in errors])
        state = state_of(restored)
        assert state == "applied" if offset is None \
            else state != "partial", (op_name, offset, state)
        # the graph is derived on reopen, never read back: it must be the
        # one a world that never crashed maintains in the same state
        assert graph_shape(restored.depgraph) == graphs[state], \
            (op_name, offset, state)
        assert_is_derived(restored, (op_name, offset))
        assert_segments_are_derived(restored, (op_name, offset))
        assert_links_hold(restored, (op_name, offset))
        _assert_rollbacks_correlate(op_name, offset, hac, recovery_obs,
                                    restored.last_recovery)
        rollbacks_seen += len(restored.last_recovery.rolled_back)
    # a sweep that never rolled anything back would vacuously pass the
    # correlation contract; every journaled op crashes mid-intent somewhere
    assert (rollbacks_seen > 0) == (op_name not in UNJOURNALED), op_name


def build_mount_world(unmounted: bool) -> HacFileSystem:
    """The sweep world after a semantic directory inside a mount named two
    of its directories (each record placing its directory) and, when
    *unmounted*, after the unmount dropped their records again."""
    hac = build_world()
    other = FileSystem(name="other")
    other.mkdir("/inner")
    other.mkdir("/inner/deeper")
    other.write_file("/inner/c.txt", b"mounted fingerprint\n")
    hac.mkdir("/mnt")
    hac.mount("/mnt", other)
    hac.smkdir("/mnt/inner/deeper/q", "fingerprint")
    if unmounted:
        hac.unmount("/mnt")
    return hac


@pytest.mark.parametrize("unmounted", [False, True],
                         ids=["mounted", "unmounted"])
@pytest.mark.parametrize("op_name", ["mkdir", "rmdir", "rename_dir"])
def test_crash_sweep_keeps_adopted_places(op_name, unmounted):
    """Crash at every write of a structural operation in a world whose
    map a mount grew and an unmount shrank: the map a reopen derives from
    the records is the one the world maintained, with the adopted
    directories where the mount put them — or gone, after the unmount."""
    mutate, state_of = OPERATIONS[op_name]
    dry = build_mount_world(unmounted)
    start = dry.fs.device.record_write_index
    mutate(dry)
    n_writes = dry.fs.device.record_write_index - start
    assert (n_writes == 0) == (op_name in UNJOURNALED), op_name
    for offset in crash_points(n_writes):
        hac = build_mount_world(unmounted)
        adopted = hac.dirmap.uid_of("/mnt/inner/deeper")
        dev = hac.fs.device
        if offset is None:
            mutate(hac)
        else:
            dev.set_fault_plan(
                FaultPlan(crash_at=dev.record_write_index + offset))
            with pytest.raises(DeviceCrashed):
                mutate(hac)
        restored = HacFileSystem.restore(hac.fs)
        where = (op_name, unmounted, offset)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (where, [str(f) for f in errors])
        assert state_of(restored) != "partial", where
        assert restored.dirmap.uid_of("/mnt/inner/deeper") == adopted, where
        assert (adopted is None) == unmounted, where
        assert_is_derived(restored, where)
        assert_segments_are_derived(restored, where)
        assert_links_hold(restored, where)


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
        assert_segments_are_derived(restored, (op_name, offset))
        assert_links_hold(restored, (op_name, offset))
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
        assert_segments_are_derived(restored, offset)
        assert_links_hold(restored, offset)
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


def _pin(hac):
    hac.symlink("/docs/b.txt", "/fp/pin.txt")


def _prohibit(hac):
    hac.unlink("/fp/a.txt")


#: edit -> (setup, edit, link name, its (class, anything prohibited) with
#: the edit applied, and absent)
LINK_EDITS = {
    "prohibit": (None, _prohibit, "a.txt",
                 (None, True), ("transient", False)),
    "unpin": (_pin, lambda h: h.unlink("/fp/pin.txt"), "pin.txt",
              (None, True), ("permanent", False)),
    "symlink": (None, _pin, "pin.txt",
                ("permanent", False), (None, False)),
    "make_permanent": (None, lambda h: h.make_permanent("/fp/a.txt"), "a.txt",
                       ("permanent", False), ("transient", False)),
    "unprohibit": (_prohibit, lambda h: h.unprohibit("/fp", "/docs/a.txt"),
                   "a.txt", ("transient", False), (None, True)),
}


def _link_edit_world(edit):
    hac = build_world()
    setup = LINK_EDITS[edit][0]
    if setup is not None:
        setup(hac)
    return hac


def _state_link_edit(hac, edit):
    _setup, _edit, name, applied, absent = LINK_EDITS[edit]
    seen = (hac.links("/fp").get(name, (None,))[0], bool(hac.prohibited("/fp")))
    return {applied: "applied", absent: "absent"}.get(seen, "partial")


def _link_edit_writes(edit):
    dry = _link_edit_world(edit)
    start = dry.fs.device.record_write_index
    LINK_EDITS[edit][1](dry)
    n_writes = dry.fs.device.record_write_index - start
    assert n_writes > 0, edit
    return n_writes


@pytest.mark.parametrize("edit", sorted(LINK_EDITS))
def test_crash_sweep_link_edits(edit):
    """Crash at every write of a hand edit of ``/fp``'s links: prohibit a
    transient or a permanent link, add a permanent one, promote one, lift
    a prohibition.  The reopened world is fsck-clean, the edit is applied
    or absent, and its links are evaluation's and a reload's."""
    for offset in range(_link_edit_writes(edit)):
        hac = _link_edit_world(edit)
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))
        with pytest.raises(DeviceCrashed):
            LINK_EDITS[edit][1](hac)
        restored = HacFileSystem.restore(hac.fs)
        where = (edit, offset)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (where, [str(f) for f in errors])
        assert _state_link_edit(restored, edit) != "partial", where
        assert_links_hold(restored, where)


@pytest.mark.parametrize("edit", sorted(LINK_EDITS))
def test_enospc_sweep_link_edits(edit):
    """ENOSPC at every write of the same edits: the live instance rolls
    back in process, so the edit is absent when it raised and applied when
    it did not, the world is fsck-clean, and the tables it maintains are
    the ones its records plus its tree load."""
    for offset in range(_link_edit_writes(edit)):
        hac = _link_edit_world(edit)
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(enospc_at={dev.record_write_index + offset}))
        try:
            LINK_EDITS[edit][1](hac)
            expected = "applied"
        except NoSpace:
            expected = "absent"
        dev.clear_faults()
        where = (edit, offset)
        assert _state_link_edit(hac, edit) == expected, where
        errors = [f for f in hac.fsck() if f.severity == "error"]
        assert errors == [], (where, [str(f) for f in errors])
        assert_links_hold(hac, where)


MOVES = {"file": ("/docs/c.txt", "/docs/d.txt"),
         "dir": ("/docs", "/papers")}


@pytest.mark.parametrize("fault", ["crash_at", "enospc_at"])
@pytest.mark.parametrize("move", sorted(MOVES))
def test_rolled_back_move_keeps_link_names(move, fault):
    """A link keeps its name when its file moves, so after one move the
    name is no longer the file's basename.  A move rolled back at any
    write — by a reopen, or in process — re-aims the texts its
    re-evaluation moved, so the load reads the same links back under the
    same names instead of re-making them under the basename."""
    def world():
        hac = build_world()
        hac.rename("/docs/a.txt", "/docs/c.txt")
        return hac

    old, new = MOVES[move]
    dry = world()
    names = set(dry.links("/fp"))
    assert "a.txt" in names
    start = dry.fs.device.record_write_index
    dry.rename(old, new)
    for offset in range(dry.fs.device.record_write_index - start):
        hac = world()
        dev = hac.fs.device
        at = dev.record_write_index + offset
        dev.set_fault_plan(FaultPlan(**{fault: at if fault == "crash_at"
                                        else {at}}))
        try:
            hac.rename(old, new)
        except (DeviceCrashed, NoSpace):
            pass
        if fault == "crash_at":
            hac = HacFileSystem.restore(hac.fs)
        dev.clear_faults()
        where = (move, fault, offset)
        assert set(hac.links("/fp")) == names, where
        errors = [f for f in hac.fsck() if f.severity == "error"]
        assert errors == [], (where, [str(f) for f in errors])
        assert_links_hold(hac, where)


def test_a_landed_prohibition_outlives_its_leftover_symlink():
    """The window between a prohibition's record write and its symlink's
    removal holds no device write, so the sweep cannot crash there; build
    that state by hand.  The leftover symlink loads as transient and the
    reopen's evaluation drops it: a landed prohibition is never undone."""
    hac = build_world()
    text = hac.readlink("/fp/a.txt")
    hac.unlink("/fp/a.txt")
    hac.fs.symlink(text, "/fp/a.txt")           # what the crash would leave
    restored = HacFileSystem.restore(hac.fs)
    assert _state_link_edit(restored, "prohibit") == "applied"
    assert not restored.exists("/fp/a.txt", follow=False)
    assert [f for f in restored.fsck() if f.severity == "error"] == []
    assert_links_hold(restored, "leftover")


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
    assert_links_hold(restored, "second crash")


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
        assert_segments_are_derived(restored, offset)
        assert_links_hold(restored, offset)
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
        assert_segments_are_derived(restored, offset)
        assert_links_hold(restored, offset)
        _assert_segment_list_consistent(restored, offset)
        rollbacks_seen += len(restored.last_recovery.rolled_back)
        # whatever the crash point, the reopened world answers current
        assert "zeta.txt" in fp_link_names(restored), offset
    assert rollbacks_seen > 0


def build_reopen_world() -> HacFileSystem:
    """Several frozen segments on the device, and a write and an unlink
    the index has not seen (batched, never drained): the next reopen
    folds, catches up, merges and re-persists inside its closing sync."""
    hac = build_compact_world()
    hac.clock.tick()
    hac.write_file("/docs/unseen.txt", b"fingerprint unseen\n")
    hac.unlink("/docs/seg0.txt")
    return hac


def _reopen_crashing_at(fs, offset):
    """Reopen *fs* with the device crashing at its *offset*-th record
    write after the reboot (``restore`` lifts any plan set before it)."""
    dev = fs.device
    reboot = dev.clear_faults

    def reboot_then_arm():
        reboot()
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + offset))

    dev.clear_faults = reboot_then_arm
    try:
        with pytest.raises(DeviceCrashed):
            HacFileSystem.restore(fs)
    finally:
        del dev.clear_faults


def test_crash_sweep_reopen_with_work_to_do():
    """Crash at every record write of a reopen whose closing sync has
    segments to merge and writes to catch up on: the next reopen is fsck
    clean, its segment list is whole and folds to its engine, the links
    are current — and a reopen after that has nothing left to write."""
    dry = build_reopen_world()
    start = dry.fs.device.record_write_index
    HacFileSystem.restore(dry.fs)
    n_writes = dry.fs.device.record_write_index - start
    assert len(_seg_keys(dry.fs.device)) == 1
    assert n_writes > 4, "the reopen merged nothing"
    for offset in range(n_writes):
        hac = build_reopen_world()
        _reopen_crashing_at(hac.fs, offset)
        restored = HacFileSystem.restore(hac.fs)
        errors = [f for f in restored.fsck() if f.severity == "error"]
        assert errors == [], (offset, [str(f) for f in errors])
        _assert_segment_list_consistent(restored, offset)
        assert_segments_are_derived(restored, offset)
        assert_links_hold(restored, offset)
        names = fp_link_names(restored)
        assert "unseen.txt" in names and "seg0.txt" not in names, offset
        dev = restored.fs.device
        keys, before = sorted(dev.record_keys()), dev.record_write_index
        HacFileSystem.restore(restored.fs)
        # its own wal: begin and the commit's delete of it, nothing else
        assert dev.record_write_index - before == 2, offset
        assert sorted(dev.record_keys()) == keys, offset


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

"""Crash recovery — replay/rollback of incomplete journal intents.

Recovery has two layers, matching what the journal protects:

* **Records** (:func:`recover_records`) — device-only, runs before any HAC
  structure is rebuilt: every pending intent's pre-images are restored in
  reverse capture order, then the write-ahead log is cleared.  After this
  pass the record store holds exactly the persisted state from before each
  incomplete operation.
* **Tree** (:func:`undo_tree`) — the VFS tree (directories, files, symlinks)
  is not record-backed, so a crashed operation can leave tree-side effects
  the record rollback cannot see: the directory an ``smkdir`` created, the
  ``rename`` it performed, symlinks a re-evaluation materialised.  Using the
  intent's operation name and arguments plus the set of directories whose
  records it touched, this pass puts the tree back in agreement with the
  (already rolled-back) records: stray directories are scrubbed, renames
  reversed, and every touched directory's symlink entries reconciled with
  its tracked link sets.

The same two layers run in-process (:func:`rollback_in_process`) when a
journaled operation fails softly — a transient ``ENOSPC`` mid-``smkdir``
must leave the file system exactly as it was, not merely recoverable after
a restart.

Semantics worth stating (also in DESIGN.md §3c): recovery *rolls back*
incomplete intents rather than rolling them forward, so every crash point
lands on "operation fully absent" (a crash after commit is "fully
present").  Untracked symlinks inside a *semantic* directory whose record
the crashed intent touched are removed — HAC owns semantic directory
entries, and a name the restored link sets do not know is crash debris.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.util import pathutil
from repro.core.journal import Journal, PendingIntent, WAL_PREFIX

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem
    from repro.core.links import Target


class RecoveryReport:
    """What a recovery pass found and did (attached as
    ``HacFileSystem.last_recovery``)."""

    __slots__ = ("rolled_back", "records_restored", "tree_fixes",
                 "links_reconciled", "strays_removed", "wal_records_cleared")

    def __init__(self):
        #: [(seq, op)] of intents rolled back, oldest first
        self.rolled_back: List[tuple] = []
        self.records_restored = 0
        self.tree_fixes = 0
        self.links_reconciled = 0
        self.strays_removed = 0
        self.wal_records_cleared = 0

    @property
    def clean(self) -> bool:
        return not self.rolled_back and not self.wal_records_cleared

    def __repr__(self):
        return (f"RecoveryReport(rolled_back={self.rolled_back}, "
                f"records_restored={self.records_restored}, "
                f"tree_fixes={self.tree_fixes}, "
                f"links_reconciled={self.links_reconciled}, "
                f"strays_removed={self.strays_removed})")


# ----------------------------------------------------------------------
# record-level recovery (device only; runs before structures are rebuilt)
# ----------------------------------------------------------------------

def recover_records(journal: Journal,
                    report: RecoveryReport) -> List[PendingIntent]:
    """Roll back every pending intent's records and clear the wal.

    Returns the pending intents (oldest first) so the caller can run the
    tree pass once the map/state structures are loaded.
    """
    pending = journal.pending()
    for intent in reversed(pending):
        report.records_restored += journal.rollback_records(intent)
        report.rolled_back.append((intent.seq, intent.op))
    report.rolled_back.reverse()
    # anything left under wal: is commit garbage or a torn journal record —
    # either way the operation it belonged to needs no further attention
    for key in journal.device.record_keys():
        if key.startswith(WAL_PREFIX):
            journal.device.delete_record(key)
            report.wal_records_cleared += 1
    return pending


# ----------------------------------------------------------------------
# tree-level recovery (needs dirmap + MetaStore loaded; not the engine)
# ----------------------------------------------------------------------

def undo_tree(hacfs: "HacFileSystem", pending: List[PendingIntent],
              report: RecoveryReport) -> None:
    """Reconcile the VFS tree with the rolled-back records."""
    for intent in reversed(pending):
        _undo_one(hacfs, intent, report)


def _undo_one(hacfs: "HacFileSystem", intent: PendingIntent,
              report: RecoveryReport) -> None:
    op, payload = intent.op, intent.payload
    if op in ("mkdir", "smkdir"):
        path = str(payload.get("path", ""))
        if path and hacfs.dirmap.uid_of(path) is None and hacfs.fs.isdir(path):
            if _scrub_dir(hacfs, path, report):
                report.tree_fixes += 1
    elif op == "rmdir":
        path = str(payload.get("path", ""))
        if path and hacfs.dirmap.uid_of(path) is not None \
                and not hacfs.fs.exists(path, follow=False):
            hacfs.fs.mkdir(path)
            report.tree_fixes += 1
    elif op == "rename":
        _undo_rename(hacfs, payload, report)
    # set_query / reindex / ssync / save_index / sched_batch (the
    # maintenance pipeline's group commit — its payload deliberately
    # carries counts, not paths) touch no tree structure of their own;
    # their symlink churn is handled by reconciliation below
    for uid in _touched_uids(hacfs, intent):
        _reconcile_links(hacfs, uid, report)


def _undo_rename(hacfs: "HacFileSystem", payload, report) -> None:
    old, new = str(payload.get("old", "")), str(payload.get("new", ""))
    if not old or not new:
        return
    moved = hacfs.fs.exists(new, follow=False) \
        and not hacfs.fs.exists(old, follow=False)
    if not moved:
        return
    if payload.get("dir"):
        # the moved directory's record was rolled back to its old place,
        # so the map derived from it has the old path; move the tree back
        if hacfs.dirmap.uid_of(old) is not None \
                and hacfs.dirmap.uid_of(new) is None:
            hacfs.fs.rename(new, old)
            report.tree_fixes += 1
    else:
        # a replaced destination inode is unrecoverable (no data journal);
        # reversing the move itself still restores name-level atomicity
        hacfs.fs.rename(new, old)
        report.tree_fixes += 1


def _touched_uids(hacfs: "HacFileSystem", intent: PendingIntent) -> List[int]:
    uids = set()
    for key in intent.keys:
        if isinstance(key, str) and key.startswith("semdir:"):
            try:
                uids.add(int(key.split(":")[1]))
            except (IndexError, ValueError):
                continue
    # an operation can mutate the tree (e.g. a detach unlinking entries)
    # before its first record write persists — a crash there captures no
    # semdir pre-image, so also reconcile the directories the intent named
    for field in ("path", "old", "new"):
        value = intent.payload.get(field)
        if isinstance(value, str) and value:
            uid = hacfs.dirmap.uid_of(value)
            if uid is not None:
                uids.add(uid)
    return sorted(uids)


def _scrub_dir(hacfs: "HacFileSystem", path: str,
               report: RecoveryReport) -> bool:
    """Remove an unregistered directory left by a crashed mkdir/smkdir.

    Only crash debris is removed: symlink entries (materialised links), then
    the directory if that leaves it empty.  Real files stop the scrub."""
    fs = hacfs.fs
    for name in list(fs.listdir(path)):
        entry = pathutil.join(path, name)
        if fs.islink(entry):
            fs.unlink(entry)
            report.strays_removed += 1
    if fs.listdir(path):
        return False
    fs.rmdir(path)
    return True


def _expected_link_text(hacfs: "HacFileSystem", target: "Target") -> str:
    if target.is_remote:
        return target.remote_id().uri()
    live = hacfs.path_for_target(target)
    return live if live is not None else f"#dangling:{target}"


def _reconcile_links(hacfs: "HacFileSystem", uid: int,
                     report: RecoveryReport) -> None:
    """Make a directory's symlink entries agree with its tracked link sets
    (the rolled-back truth).  Tracked names get their entry re-materialised
    with the expected text; in a semantic directory, untracked symlinks are
    crash debris and are removed."""
    state = hacfs.meta.get(uid)
    path = hacfs.dirmap.path_of(uid)
    if state is None or path is None or not hacfs.fs.isdir(path):
        return
    fs = hacfs.fs
    tracked = dict(state.links.permanent)
    tracked.update(state.links.transient)
    for name, target in tracked.items():
        entry = pathutil.join(path, name)
        text = _expected_link_text(hacfs, target)
        if fs.islink(entry):
            if fs.readlink(entry) != text:
                fs.unlink(entry)
                fs.symlink(text, entry)
                report.links_reconciled += 1
        elif not fs.exists(entry, follow=False):
            fs.symlink(text, entry)
            report.links_reconciled += 1
        # a non-link squatting on a tracked name is user data: leave it for
        # fsck to report rather than destroy it here
    if state.is_semantic:
        for name in list(fs.listdir(path)):
            if name in tracked:
                continue
            entry = pathutil.join(path, name)
            if fs.islink(entry):
                fs.unlink(entry)
                report.strays_removed += 1


# ----------------------------------------------------------------------
# in-process rollback (soft failures: ENOSPC and friends)
# ----------------------------------------------------------------------

def rollback_in_process(hacfs: "HacFileSystem", intent) -> RecoveryReport:
    """Undo a journaled operation that failed without crashing the device.

    Restores the records from the wal, reloads every persisted structure
    into memory, and reconciles the tree — after this the operation is
    fully absent and the instance remains usable.
    """
    report = RecoveryReport()
    journal = hacfs.journal
    report.records_restored += journal.rollback_active(intent)
    report.rolled_back.append((intent.seq, intent.op))
    hacfs.reload_persisted()
    undo_tree(hacfs,
              [PendingIntent(intent.seq, intent.op, intent.payload,
                             [{"key": k, "existed": True, "data": b""}
                              for k in intent.capture_order])],
              report)
    return report

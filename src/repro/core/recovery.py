"""Crash recovery — replay/rollback of incomplete journal intents.

Recovery has two layers, matching what the journal protects:

* **Records** (:func:`recover_records`) — device-only, runs before any HAC
  structure is rebuilt: every pending intent's pre-images are restored in
  reverse capture order, then the write-ahead log is cleared.  After this
  pass the record store holds exactly the persisted state from before each
  incomplete operation.
* **Tree** (:func:`undo_tree`) — the VFS tree (directories, files, symlinks)
  is not record-backed, so a crashed operation can leave structural effects
  the record rollback cannot see: the directory an ``smkdir`` created, the
  ``rename`` it performed.  Using the intent's operation name and
  arguments, this pass puts the tree's structure back in agreement with
  the (already rolled-back) records: stray directories are scrubbed,
  removed ones re-created, renames reversed.

Symlinks need no pass of their own.  A semantic directory's transient
links are not recorded anywhere but the tree, so the loader reads them
back as they are, and the re-evaluation that ends every recovery — the
``ssync`` of ``restore``, the ``reevaluate_all`` of
:func:`rollback_in_process` — recomputes them from the rolled-back
queries, permanent and prohibited sets and index.

The same layers run in-process (:func:`rollback_in_process`) when a
journaled operation fails softly — a transient ``ENOSPC`` mid-``smkdir``
must leave the file system exactly as it was, not merely recoverable after
a restart.

Semantics worth stating (also in DESIGN.md §3c): recovery *rolls back*
incomplete intents rather than rolling them forward, so every crash point
lands on "operation fully absent" (a crash after commit is "fully
present").
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.util import pathutil
from repro.core.journal import Intent, Journal, PendingIntent, WAL_PREFIX
from repro.vfs.inode import SymlinkNode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hacfs import HacFileSystem


class RecoveryReport:
    """What a recovery pass found and did (attached as
    ``HacFileSystem.last_recovery``)."""

    __slots__ = ("rolled_back", "records_restored", "tree_fixes",
                 "strays_removed", "wal_records_cleared")

    def __init__(self):
        #: [(seq, op)] of intents rolled back, oldest first
        self.rolled_back: List[tuple] = []
        self.records_restored = 0
        self.tree_fixes = 0
        self.strays_removed = 0
        self.wal_records_cleared = 0

    @property
    def clean(self) -> bool:
        return not self.rolled_back and not self.wal_records_cleared

    def __repr__(self):
        return (f"RecoveryReport(rolled_back={self.rolled_back}, "
                f"records_restored={self.records_restored}, "
                f"tree_fixes={self.tree_fixes}, "
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

def undo_tree(hacfs: "HacFileSystem", pending: List[Intent | PendingIntent],
              report: RecoveryReport) -> None:
    """Undo the structural tree effects of the rolled-back intents: the
    ones read back from the wal, or the active one an in-process rollback
    undoes (only ``op`` and ``payload`` are read)."""
    for intent in reversed(pending):
        _undo_one(hacfs, intent, report)


def _undo_one(hacfs: "HacFileSystem", intent: Intent | PendingIntent,
              report: RecoveryReport) -> None:
    op, payload = intent.op, intent.payload
    if op == "smkdir":
        path = str(payload.get("path", ""))
        if path and hacfs.dirmap.uid_of(path) is None and hacfs.fs.isdir(path):
            if _scrub_dir(hacfs, path, report):
                report.tree_fixes += 1
    elif op == "rmdir":
        # only a named directory's rmdir is journaled
        path = str(payload.get("path", ""))
        if path and hacfs.dirmap.uid_of(path) is not None \
                and not hacfs.fs.exists(path, follow=False):
            hacfs.fs.mkdir(path)
            report.tree_fixes += 1
    elif op == "rename":
        _undo_rename(hacfs, payload, report)
    elif op == "unlink" and not hacfs.fs.exists(payload["path"], follow=False):
        # the symlink of a tracked link, permanent or transient
        hacfs.fs.symlink(payload["text"], payload["path"])
        report.tree_fixes += 1
    elif op == "symlink" and hacfs.fs.islink(payload["path"]):
        hacfs.fs.unlink(payload["path"])
        report.tree_fixes += 1
    # set_query / smount / unprohibit / reindex / ssync / save_index /
    # sched_batch touch no tree structure of their own; their symlink
    # churn is re-evaluated away


def _undo_rename(hacfs: "HacFileSystem", payload, report) -> None:
    old, new = str(payload.get("old", "")), str(payload.get("new", ""))
    if not old or not new:
        return
    moved = hacfs.fs.exists(new, follow=False) \
        and not hacfs.fs.exists(old, follow=False)
    if not moved:
        return
    # the records of what the move carried — or of the directory it
    # replaced — were rolled back: they place it at the old path, whether
    # or not the moved directory itself is named, so move the tree back.
    # a replaced destination inode is unrecoverable (no data journal);
    # reversing the move itself still restores name-level atomicity
    hacfs.fs.rename(new, old)
    report.tree_fixes += 1
    if payload.get("dir") and hacfs.dirmap.uid_of(new) is not None:
        # the rolled-back records place a directory at *new* too: the
        # empty one the move replaced
        hacfs.fs.mkdir(new)
        report.tree_fixes += 1
    _retext_links(hacfs, new, old, report)


def _retext_links(hacfs: "HacFileSystem", new: str, old: str,
                  report: RecoveryReport) -> None:
    """Re-aim at *old* the semantic-directory symlinks whose text the
    reversed move's re-evaluation had moved to *new* (or below it): a load
    reads each transient link's target from its text."""
    for path in filter(hacfs.fs.isdir, hacfs.semantic_dirs()):
        entries = hacfs.fs.resolve(path).node.entries  # type: ignore[union-attr]
        for name, node in list(entries.items()):
            if isinstance(node, SymlinkNode) and (
                    node.target == new or node.target.startswith(new + "/")):
                entry = pathutil.join(path, name)
                hacfs.fs.unlink(entry)
                hacfs.fs.symlink(old + node.target[len(new):], entry)
                report.tree_fixes += 1


def _scrub_dir(hacfs: "HacFileSystem", path: str,
               report: RecoveryReport) -> bool:
    """Remove the unnamed directory a crashed ``smkdir`` left.

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


# ----------------------------------------------------------------------
# in-process rollback (soft failures: ENOSPC and friends)
# ----------------------------------------------------------------------

def rollback_in_process(hacfs: "HacFileSystem", intent) -> RecoveryReport:
    """Undo a journaled operation that failed without crashing the device.

    Restores the records from the wal, reloads every persisted structure
    into memory (undoing the operation's structural tree effects), and
    re-evaluates every semantic directory, as ``restore`` ends — after
    this the operation is fully absent and the instance remains usable.
    """
    report = RecoveryReport()
    report.records_restored += hacfs.journal.rollback_active(intent)
    report.rolled_back.append((intent.seq, intent.op))
    hacfs.reload_persisted([intent], report)
    hacfs.consistency.reevaluate_all()
    return report

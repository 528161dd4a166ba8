"""Write-ahead intent journal — crash consistency for multi-structure ops.

HAC's mutations touch up to five structures (VFS tree, global UID map,
per-directory MetaStore records, dependency graph, content index), and the
paper's consistency guarantees assume all of them move together.  Nothing in
a user-level library stops the process dying between the second and third
record write of an ``smkdir``, so every multi-structure mutation runs under
an *intent*:

1. ``begin`` durably appends ``wal:<seq>:begin`` — the operation name and
   arguments — before the operation touches any record;
2. while the intent is active, the journal hooks the block device and, for
   the **first** touch of each record key, durably writes the key's
   pre-image as ``wal:<seq>:u<i>`` *before* the touching write persists
   (strict write-ahead: a record never changes on disk unless its old value
   is already in the journal);
3. ``commit`` deletes ``wal:<seq>:begin`` first — that single delete is the
   atomic commit point — then garbage-collects the pre-images.

A crash at any point therefore leaves either no ``begin`` record (the
operation never started, or committed: nothing to do) or a ``begin`` plus a
prefix of pre-images (roll back by restoring pre-images in reverse order —
see :mod:`repro.core.recovery`).  Rolling back restores the *records*
exactly; the VFS tree, which is not record-backed, is reconciled against the
restored records by the recovery pass.

The same rollback runs in-process when an operation fails softly (e.g. a
transient ``ENOSPC`` mid-``smkdir``), which is what makes journaled
operations atomic — fully applied or fully absent — rather than merely
recoverable.

**Group commit.**  An intent's cost is per *operation*, not per record
write: one ``begin`` plus one pre-image per distinct key touched.  The
maintenance pipeline (:mod:`repro.core.scheduler`) exploits this by
applying a whole coalesced batch of index updates under a single
``sched_batch`` intent — N documents, one ``begin``, shared pre-images —
so batched maintenance writes a fraction of the journal records the same
updates would cost as individual intents, while a crash mid-batch still
rolls the *entire* batch back atomically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import CorruptRecord
from repro.obs.trace import NULL_TRACER, TraceContext
from repro.util import serialization
from repro.util.stats import Counters
from repro.vfs.blockdev import BlockDevice

#: every journal record key starts with this; the capture hook ignores them
WAL_PREFIX = "wal:"


class Intent:
    """One active (or recovered) journaled operation."""

    __slots__ = ("seq", "op", "payload", "captured", "capture_order")

    def __init__(self, seq: int, op: str, payload: Dict[str, object]):
        self.seq = seq
        self.op = op
        self.payload = payload
        #: record keys whose pre-image is already journaled
        self.captured: Set[str] = set()
        #: capture order, so rollback can run in reverse
        self.capture_order: List[str] = []

    def __repr__(self):
        return f"Intent(seq={self.seq}, op={self.op!r}, " \
               f"captured={len(self.captured)})"


class PendingIntent:
    """An intent read back from the device during recovery."""

    __slots__ = ("seq", "op", "payload", "pre_images", "keys")

    def __init__(self, seq: int, op: str, payload: Dict[str, object],
                 pre_images: List[Dict[str, object]]):
        self.seq = seq
        self.op = op
        self.payload = payload
        #: [{"key", "existed", "data"}] in capture order
        self.pre_images = pre_images
        self.keys = [p["key"] for p in pre_images]

    def __repr__(self):
        return f"PendingIntent(seq={self.seq}, op={self.op!r}, " \
               f"pre_images={len(self.pre_images)})"


class Journal:
    """The write-ahead intent journal over one block device.

    Exactly one intent may be active at a time; a nested ``begin`` (e.g.
    ``smkdir`` calling ``mkdir``) returns ``None`` and the outer intent owns
    the whole operation.
    """

    def __init__(self, device: BlockDevice,
                 counters: Optional[Counters] = None,
                 tracer: Optional[TraceContext] = None):
        self.device = device
        self._stats = (counters or Counters()).scoped("journal")
        #: observability hook; journal events carry the intent seq as their
        #: op id, which is what correlates a recovered intent to its trace
        self._trace = tracer if tracer is not None else NULL_TRACER
        self._active: Optional[Intent] = None
        #: tenant attribution context: while set (by the tenant facade),
        #: every intent opened carries the tenant id in its payload, so
        #: the WAL itself records which namespace each mutation belongs to
        self.tenant: Optional[str] = None
        self._seq = self._scan_next_seq()
        device.record_hook = self._on_record_touch

    def _scan_next_seq(self) -> int:
        top = -1
        for key in self.device.record_keys():
            if key.startswith(WAL_PREFIX):
                try:
                    top = max(top, int(key.split(":")[1]))
                except (IndexError, ValueError):
                    continue
        return top + 1

    # -- the write-ahead capture hook -------------------------------------------

    def _on_record_touch(self, key: str, old: Optional[bytes]) -> None:
        intent = self._active
        if intent is None or key.startswith(WAL_PREFIX):
            return
        if key in intent.captured:
            return
        intent.captured.add(key)
        index = len(intent.capture_order)
        intent.capture_order.append(key)
        record = {"key": key, "existed": old is not None, "data": old or b""}
        # this nested write_record is ignored by the hook (wal: prefix) and
        # must complete before the touching write — write-ahead, literally
        payload = serialization.dumps(record)
        self.device.write_record(f"{WAL_PREFIX}{intent.seq}:u{index}", payload)
        self._stats.add("preimages")
        self._stats.add("wal_bytes", len(payload))

    def capture(self, key: str) -> None:
        """Journal *key*'s pre-image now, ahead of tree-side effects.

        The hook only fires when a record is written, but some operations
        mutate the (non-record-backed) VFS tree first — e.g. a re-evaluation
        materialises a directory's symlinks before flushing its record.  A
        crash in that window would leave tree debris with no journaled key
        telling recovery which directory to reconcile.  Capturing the
        pre-image first extends the write-ahead rule to the tree: a
        directory's entries never change unless its record's old value is
        already in the journal.  No-op outside an intent or on a key the
        intent already captured.
        """
        if self._active is None or key in self._active.captured:
            return
        self._on_record_touch(key, self.device.read_record(key))

    # -- the intent lifecycle ----------------------------------------------------

    @property
    def active(self) -> Optional[Intent]:
        return self._active

    def begin(self, op: str, payload: Dict[str, object]) -> Optional[Intent]:
        """Open an intent; returns None when one is already active (nested)."""
        if self._active is not None:
            return None
        if self.tenant is not None and "tenant" not in payload:
            payload = dict(payload, tenant=self.tenant)
        seq = self._seq
        self._seq += 1
        intent = Intent(seq, op, payload)
        begin = serialization.dumps({"op": op, "seq": seq, "payload": payload})
        self.device.write_record(f"{WAL_PREFIX}{seq}:begin", begin)
        self._active = intent
        self._stats.add("begins")
        self._stats.add("wal_bytes", len(begin))
        # the operation's root span now carries this intent's sequence —
        # the journal↔trace correlation the crash sweep asserts on
        self._trace.set_op_id(seq)
        self._trace.event("journal.begin", op_id=seq, op=op)
        return intent

    def commit(self, intent: Intent) -> None:
        """Atomically commit: drop the begin record, then the pre-images."""
        if self._active is intent:
            self._active = None
        self.device.delete_record(f"{WAL_PREFIX}{intent.seq}:begin")
        for index in range(len(intent.capture_order)):
            self.device.delete_record(f"{WAL_PREFIX}{intent.seq}:u{index}")
        self._stats.add("commits")
        self._trace.event("journal.commit", op_id=intent.seq, op=intent.op,
                          preimages=len(intent.capture_order))

    def note_publish(self, version: int, seq: Optional[int] = None) -> None:
        """Record a snapshot publish against the intent that produced it.

        Publishes happen strictly *after* the producing intent commits
        (publishing mid-intent could leave replicas ahead of a rolled-back
        primary), so the event cannot ride the intent itself; instead the
        caller passes the committed intent's *seq* and the event carries it
        as its op id — the same correlation key ``journal.begin`` stamped
        on the operation's root span.  *seq* is ``None`` for publishes no
        intent produced (a forced ``sched publish``, an empty drain).
        """
        self._stats.add("publishes")
        self._trace.event("journal.sched_publish", op_id=seq,
                          version=version)

    def abandon(self, intent: Intent) -> None:
        """Deactivate without committing — the wal records stay for recovery
        (used when a device crash propagates out of the operation)."""
        if self._active is intent:
            self._active = None
        self._stats.add("abandons")
        self._trace.event("journal.abandon", op_id=intent.seq, op=intent.op)

    # -- recovery-side reading ---------------------------------------------------

    def pending(self) -> List[PendingIntent]:
        """Intents whose begin record survives on the device, oldest first.

        Corrupt wal records are counted and skipped: a torn pre-image means
        the crash happened *during* the journal write itself, so the record
        it was about to protect was never touched.
        """
        by_seq: Dict[int, Dict[str, str]] = {}
        for key in self.device.record_keys():
            if not key.startswith(WAL_PREFIX):
                continue
            parts = key.split(":")
            try:
                seq = int(parts[1])
            except (IndexError, ValueError):
                continue
            by_seq.setdefault(seq, {})[parts[2]] = key
        out: List[PendingIntent] = []
        for seq in sorted(by_seq):
            keys = by_seq[seq]
            if "begin" not in keys:
                # committed (or begin never landed): the pre-images are
                # garbage — recovery clears them
                self._stats.add("orphan_walsets")
                continue
            begin = self._read_wal(keys["begin"])
            if begin is None:
                self._stats.add("corrupt_wal_records")
                continue
            pre_images: List[Dict[str, object]] = []
            for index in range(len(keys)):
                part = f"u{index}"
                if part not in keys:
                    break
                rec = self._read_wal(keys[part])
                if rec is None:
                    self._stats.add("corrupt_wal_records")
                    break
                pre_images.append(rec)
            out.append(PendingIntent(seq, str(begin["op"]),
                                     dict(begin["payload"]), pre_images))
        return out

    def _read_wal(self, key: str):
        try:
            raw = self.device.read_record(key)
        except CorruptRecord:
            return None
        if raw is None:
            return None
        try:
            return serialization.loads(raw)
        except serialization.SerializationError:
            return None

    # -- rollback ----------------------------------------------------------------

    def rollback_records(self, pending: PendingIntent) -> int:
        """Restore every captured pre-image, newest first, then clear the
        intent's wal records.  Returns the number of records restored.

        Must run with no intent active (the hook would otherwise journal the
        rollback itself).
        """
        assert self._active is None, "cannot roll back inside an intent"
        restored = 0
        with self._trace.span("journal.rollback", op_id=pending.seq,
                              op=pending.op) as span:
            for rec in reversed(pending.pre_images):
                key = str(rec["key"])
                if rec["existed"]:
                    self.device.write_record(key, bytes(rec["data"]))
                else:
                    self.device.delete_record(key)
                restored += 1
            self.clear(pending.seq, len(pending.pre_images))
            span.set(restored=restored)
        self._stats.add("rollbacks")
        return restored

    def rollback_active(self, intent: Intent) -> int:
        """In-process rollback of a just-failed operation (soft failure)."""
        self.abandon(intent)
        pre_images: List[Dict[str, object]] = []
        for index, key in enumerate(intent.capture_order):
            rec = self._read_wal(f"{WAL_PREFIX}{intent.seq}:u{index}")
            if rec is None:
                break
            pre_images.append(rec)
        return self.rollback_records(
            PendingIntent(intent.seq, intent.op, intent.payload, pre_images))

    def clear(self, seq: int, n_pre_images: Optional[int] = None) -> None:
        """Delete the wal records of one intent (begin first)."""
        self.device.delete_record(f"{WAL_PREFIX}{seq}:begin")
        if n_pre_images is None:
            n_pre_images = sum(
                1 for key in self.device.record_keys()
                if key.startswith(f"{WAL_PREFIX}{seq}:u"))
        for index in range(n_pre_images):
            self.device.delete_record(f"{WAL_PREFIX}{seq}:u{index}")

    def clear_orphans(self) -> int:
        """Drop wal record sets whose begin record is gone (post-commit
        leftovers from a crash mid-garbage-collection)."""
        seqs: Dict[int, List[str]] = {}
        with_begin: Set[int] = set()
        for key in self.device.record_keys():
            if not key.startswith(WAL_PREFIX):
                continue
            parts = key.split(":")
            try:
                seq = int(parts[1])
            except (IndexError, ValueError):
                continue
            seqs.setdefault(seq, []).append(key)
            if parts[2] == "begin":
                with_begin.add(seq)
        dropped = 0
        for seq, keys in seqs.items():
            if seq in with_begin:
                continue
            for key in keys:
                self.device.delete_record(key)
                dropped += 1
        return dropped

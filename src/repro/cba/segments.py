"""LSM-style storage for the Glimpse index: memtable + immutable segments.

The live :class:`~repro.cba.engine.CBAEngine` keeps serving queries from
its in-memory aggregates — nothing on the read path changes, which is
what makes the segmented engine trivially bit-identical to the monolith.
What this module restructures is the *storage and publication* plane:
every mutation the engine performs is also noted as a :class:`SegmentRow`
in a small mutable **memtable**; sealing freezes the memtable into an
immutable, doc-id-sorted :class:`Segment`; and background **compaction**
folds the frozen segment list into one merged segment, newest row per
document key winning.  Rows carry the term set the engine computed, so
every downstream consumer — replica catch-up, compaction, recovery —
is pure index manipulation: the tokenizer never runs off the write path.

Three consumers share the rows, and only the first one seals:

* **Persistence** — :meth:`SegmentStore.sync` seals and compacts as the
  store's thresholds (or a forcing caller) demand, then writes each
  frozen segment as a ``seg:<id>`` device record plus a ``segmanifest``
  listing the live segment ids (only this module knows the two formats);
  :class:`~repro.core.hacfs.HacFileSystem` says *when*, and calls it
  *only inside journal intents* (the scheduler's ``sched_batch`` drains
  and ``reindex``), so the WAL's pre-images roll a mid-seal or
  mid-compaction crash back to a consistent segment list.  Frozen
  segments drop the document text (recovery re-reads through the
  loader), in memory and on the device.
* **Publication** — ``publish()`` closes a *publication cut*
  (:meth:`SegmentStore.cut`): the rows noted since the last cut,
  coalesced per key, join an append-only log that replicas catch up
  from, truncated at their min cursor.  Rows are buffered for it only
  while a replica reads publications.  A cut is never persisted and
  never seals, so whether a snapshot reader exists changes nothing about
  what is written to the device, or when.
* **Recovery** — restore folds the persisted segments back into engine
  state with **zero tokenisation** (reindex-as-merge); rows that were
  still in the memtable at the crash are healed by the recovery
  ``ssync``'s mtime diff, exactly like any other un-reindexed write.

Compaction policy: seal when the memtable holds ``seal_threshold`` rows
(or when ``reindex`` forces it), compact when the frozen list exceeds
``compact_threshold`` segments (or at ``reindex``).  Both thresholds are
knobs; the crash sweep pins ``seal_threshold=1`` to force a
seal-and-persist inside every drain.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.errors import CorruptRecord
from repro.util import pathutil, serialization
from repro.util.stats import Counters

#: memtable rows before a drain-time seal
DEFAULT_SEAL_THRESHOLD = 32
#: frozen segments before drain-time compaction folds them into one
DEFAULT_COMPACT_THRESHOLD = 8

#: device records: one per frozen segment (prefix + segment id), and the
#: manifest naming the live ids in fold order plus the two id counters
SEGMENT_PREFIX = "seg:"
MANIFEST_RECORD = "segmanifest"


class SegmentRow(NamedTuple):
    """One document's latest state within a segment.

    ``kind`` is ``'upsert'`` (document present, with its term set),
    ``'remove'`` (a tombstone: the key is gone, shadowing any older
    segment's upsert), or ``'rename'`` (path-only refresh of a document
    whose upsert lives in an older segment).  ``text`` rides along in the
    memtable and the publication cuts for replica catch-up; sealed and
    compacted segments drop it, and it is never serialized.
    """

    kind: str
    doc_id: int
    key: Hashable
    path: str
    mtime: float
    size: int
    terms: Optional[frozenset] = None
    text: Optional[str] = None

    def to_obj(self):
        return [self.kind, self.doc_id, list(self.key), self.path,
                self.mtime, self.size,
                None if self.terms is None else sorted(self.terms)]

    @classmethod
    def from_obj(cls, obj) -> "SegmentRow":
        kind, doc_id, raw_key, path, mtime, size, terms = obj
        return cls(kind, doc_id, (raw_key[0], raw_key[1]), path, mtime,
                   size, None if terms is None else frozenset(terms), None)


class Segment:
    """An immutable run of rows: a doc-id-sorted seal or compaction, or
    one publication cut (rows in noting order, never persisted)."""

    __slots__ = ("seg_id", "rows")

    def __init__(self, seg_id: str, rows: Tuple[SegmentRow, ...]):
        self.seg_id = seg_id
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Segment({self.seg_id!r}, rows={len(self.rows)})"

    def cas_runs(self) -> Dict[str, Tuple[SegmentRow, ...]]:
        """The segment's CAS runs: upsert rows grouped by parent-directory
        prefix, path-ordered within each run — the path-dimension view of
        this immutable run of rows.  The CAS index itself is derived state
        (rebuilt from registry + term store on restore), so runs are
        materialised from the rows already persisted, never written twice;
        audits fold them to cross-check prefix keys against the registry.
        """
        grouped: Dict[str, List[SegmentRow]] = {}
        for row in self.rows:
            if row.kind != "upsert":
                continue
            grouped.setdefault(pathutil.dirname(row.path), []).append(row)
        return {prefix: tuple(sorted(rows, key=lambda r: (r.path, r.doc_id)))
                for prefix, rows in grouped.items()}

    def to_obj(self):
        return {"id": self.seg_id, "rows": [r.to_obj() for r in self.rows]}

    @classmethod
    def from_obj(cls, obj) -> "Segment":
        return cls(obj["id"],
                   tuple(SegmentRow.from_obj(r) for r in obj["rows"]))


def _coalesce(prior: Optional[SegmentRow], row: SegmentRow) -> SegmentRow:
    """Newest-wins merge of two rows for the same document key.

    Upserts and removes replace outright; a rename folds its path into a
    prior upsert (the document's contents are unchanged), replaces a prior
    rename, and stands alone otherwise, waiting for an older segment's
    upsert to absorb it.
    """
    if row.kind != "rename" or prior is None or prior.kind == "rename":
        return row
    if prior.kind == "upsert":
        return prior._replace(path=row.path, mtime=row.mtime)
    return prior  # rename after remove: the tombstone wins


class SegmentStore:
    """The memtable + frozen-segment list behind a segmented engine.

    The store formats, reads and audits its own device records
    (:meth:`sync`, :meth:`load`, :meth:`audit`) but holds no device: the
    owning :class:`~repro.core.hacfs.HacFileSystem` passes one in,
    together with the open journal intent every ``sync`` must run under.
    """

    def __init__(self, counters: Optional[Counters] = None,
                 seal_threshold: int = DEFAULT_SEAL_THRESHOLD,
                 compact_threshold: int = DEFAULT_COMPACT_THRESHOLD):
        #: key → coalesced newest row (insertion-ordered)
        self.memtable: Dict[Hashable, SegmentRow] = {}
        #: the live segment list, oldest first (compaction rewrites it)
        self.frozen: List[Segment] = []
        #: rows noted since the last publication cut, coalesced per key;
        #: ``None`` until the first cut — nobody reads publications yet
        self.unpublished: Optional[Dict[Hashable, SegmentRow]] = None
        #: publication cuts for replica catch-up, oldest first; the engine
        #: truncates it at the replicas' min cursor
        self.log: List[Segment] = []
        self.seal_threshold = seal_threshold
        self.compact_threshold = compact_threshold
        self._next_seg = 0
        counters = counters if counters is not None else Counters()
        self._stats = counters.scoped("segments")

    # ------------------------------------------------------------------
    # memtable
    # ------------------------------------------------------------------

    def note(self, kind: str, doc_id: int, key: Hashable, path: str,
             mtime: float, terms: Optional[Set[str]] = None,
             text: Optional[str] = None) -> None:
        """Append one engine mutation to the memtable (coalescing), and
        to the next publication cut once cuts are read.

        ``kind`` uses the engine's emission vocabulary: ``index`` and
        ``update`` both become upserts, ``remove`` a tombstone,
        ``rename`` a path refresh.
        """
        if kind in ("index", "update"):
            row = SegmentRow("upsert", doc_id, key, path, mtime,
                             len(text or ""),
                             None if terms is None else frozenset(terms),
                             text)
        elif kind == "remove":
            row = SegmentRow("remove", doc_id, key, path, mtime, 0)
        elif kind == "rename":
            row = SegmentRow("rename", doc_id, key, path, mtime, 0)
        else:
            raise ValueError(f"unknown segment row kind: {kind!r}")
        self.memtable[key] = _coalesce(self.memtable.get(key), row)
        if self.unpublished is not None:
            self.unpublished[key] = _coalesce(self.unpublished.get(key), row)
        self._stats.add("noted")

    # ------------------------------------------------------------------
    # sealing and compaction
    # ------------------------------------------------------------------

    @property
    def should_seal(self) -> bool:
        return len(self.memtable) >= self.seal_threshold

    @property
    def should_compact(self) -> bool:
        return len(self.frozen) > self.compact_threshold

    def _mint(self, rows: Iterable[SegmentRow]) -> Segment:
        """A doc-id-sorted segment of *rows* under the next unused id,
        without their text: only publication cuts are read for it, and a
        frozen copy would hold the corpus in memory a second time."""
        rows = (r._replace(text=None) if r.text is not None else r
                for r in rows)
        seg = Segment(f"s{self._next_seg:06d}",
                      tuple(sorted(rows, key=lambda r: (r.doc_id, r.kind))))
        self._next_seg += 1
        return seg

    def seal(self) -> Optional[Segment]:
        """Freeze the memtable into a new immutable segment at the end of
        the live list; returns ``None`` when the memtable is empty."""
        if not self.memtable:
            return None
        seg = self._mint(self.memtable.values())
        self.memtable.clear()
        self.frozen.append(seg)
        self._stats.add("seals")
        self._stats.add("sealed_rows", len(seg))
        return seg

    def compact(self) -> Optional[Tuple[Segment, List[str]]]:
        """Fold the whole frozen list into one merged segment.

        Newest row per key wins; tombstones drop out entirely (after a
        full merge, an absent key *is* the tombstone) and renames fold
        into the upserts they refreshed.  Returns the merged segment and
        the replaced segment ids (whose device records are now garbage),
        or ``None`` when there is nothing to merge down.
        """
        if len(self.frozen) <= 1:
            return None
        merged: Dict[Hashable, SegmentRow] = {}
        for seg in self.frozen:
            for row in seg.rows:
                merged[row.key] = _coalesce(merged.get(row.key), row)
        dropped = [seg.seg_id for seg in self.frozen]
        seg = self._mint(r for r in merged.values() if r.kind != "remove")
        self.frozen = [seg]
        self._stats.add("compactions")
        self._stats.add("compacted_rows", len(seg))
        return seg, dropped

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------

    def cut(self) -> int:
        """Close the publication cut: the rows noted since the last cut
        join :attr:`log` as one coalesced run, and noting buffers rows for
        the next one from here on.  Seals nothing.  Returns the log
        length — the cursor of a reader current as of this moment."""
        if self.unpublished:
            self.log.append(Segment("cut", tuple(self.unpublished.values())))
        self.unpublished = {}
        return len(self.log)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def live_rows(self) -> Dict[Hashable, SegmentRow]:
        """Fold the frozen list (oldest → newest) into final per-key rows.

        Tombstoned keys and renames that never found their upsert are
        dropped — what remains is exactly the document set a restore
        should rebuild, with zero tokenisation.
        """
        folded: Dict[Hashable, SegmentRow] = {}
        for seg in self.frozen:
            for row in seg.rows:
                folded[row.key] = _coalesce(folded.get(row.key), row)
        return {key: row for key, row in folded.items()
                if row.kind == "upsert"}

    def load_frozen(self, manifest: Dict[str, object],
                    segments: List[Segment]) -> None:
        """Adopt persisted segments as the frozen list (restore path)."""
        self.frozen = list(segments)
        self._next_seg = max(self._next_seg,
                             int(manifest.get("next_seg", len(segments))))
        self._stats.add("segments_loaded", len(segments))

    def resume(self, device) -> None:
        """Continue segment ids above every ``seg:`` id *device* holds,
        renumbering the segments minted before the device was known (a
        base seeded over a restored ``cbaindex``).  :meth:`sync` takes an
        id already on the device as written, so a reopen that reused one
        would keep the stale record and delete every newer segment."""
        held = [int(seg_id[1:]) for seg_id in _segment_ids(device)
                if seg_id[1:].isdigit()]
        self._next_seg = max([self._next_seg] + [n + 1 for n in held])
        self.frozen = [self._mint(seg.rows) for seg in self.frozen]

    def seed_base(self, rows: Dict[Hashable, SegmentRow]) -> None:
        """Install a synthetic base segment covering *rows*.

        Used when segments are enabled over pre-existing engine state
        (e.g. a restore from a ``cbaindex`` snapshot): later compactions
        and segment restores need every live document to have an upsert
        row somewhere in the frozen list.
        """
        if not rows:
            return
        base = self._mint(rows.values())
        self.frozen.insert(0, base)
        self._stats.add("base_seeded", len(base))

    # ------------------------------------------------------------------
    # device records
    # ------------------------------------------------------------------

    def sync(self, device, next_doc_id: int, tracer,
             force_seal: bool = False, force_compact: bool = False) -> None:
        """Seal and compact as the thresholds (or the caller) demand, then
        make *device* hold exactly the frozen list.  MUST run inside an
        open journal intent.  What to write and delete is derived from
        the records the device holds, not from a memory of past syncs: a
        soft-failure rollback can restore records underneath the store,
        and re-deriving self-heals that divergence."""
        changed = False
        if force_seal or self.should_seal:
            with tracer.span("cba.seal", rows=len(self.memtable)):
                changed = self.seal() is not None or changed
        if force_compact or self.should_compact:
            with tracer.span("cba.compact", segments=len(self.frozen)):
                changed = self.compact() is not None or changed
        on_device = _segment_ids(device)
        live = [seg.seg_id for seg in self.frozen]
        for seg in self.frozen:
            if seg.seg_id not in on_device:
                device.write_record(SEGMENT_PREFIX + seg.seg_id,
                                    serialization.dumps(seg.to_obj()))
                changed = True
        for seg_id in sorted(on_device.difference(live)):
            device.delete_record(SEGMENT_PREFIX + seg_id)
            changed = True
        if changed:
            device.write_record(MANIFEST_RECORD, serialization.dumps(
                {"segments": live, "next_seg": self._next_seg,
                 "next": next_doc_id}))

    @classmethod
    def load(cls, device, counters: Counters
             ) -> Optional[Tuple["SegmentStore", int]]:
        """The persisted segment list as ``(store, next doc id)``, or
        ``None`` when *device* holds no usable manifest.  One naming a
        missing segment record is unusable (counted; a rebuild takes
        over) — recovery has already rolled incomplete intents back, so
        records were lost outside any journaled write.  An unreadable
        record raises :class:`~repro.errors.CorruptRecord`, the same
        acknowledge-your-data-loss contract as ``cbaindex``."""
        restore_stats = counters.scoped("restore")
        try:
            manifest = _read(device, MANIFEST_RECORD)
            if not manifest:
                return None
            segments = []
            for seg_id in manifest.get("segments", ()):
                raw = _read(device, SEGMENT_PREFIX + seg_id)
                if raw is None:
                    restore_stats.add("segment_missing")
                    return None
                segments.append(Segment.from_obj(raw))
        except CorruptRecord:
            restore_stats.add("segment_corrupt")
            raise
        store = cls(counters=counters)
        store.resume(device)
        store.load_frozen(manifest, segments)
        return store, int(manifest.get("next", 0))

    @staticmethod
    def audit(device) -> List[Tuple[str, str, str]]:
        """Disagreements between *device*'s segment records and manifest
        as ``(kind, record key, detail)``.  An ``orphan-segment`` is what
        a crashed (un-rolled-back) seal or compaction left behind —
        unreachable, since :meth:`load` folds only what the manifest
        names; a ``missing-segment`` is state the manifest promises and
        recovery cannot deliver."""
        try:
            manifest = _read(device, MANIFEST_RECORD) or {}
        except CorruptRecord:
            manifest = {}
        named, held = set(manifest.get("segments", ())), _segment_ids(device)
        return [("orphan-segment", SEGMENT_PREFIX + seg_id,
                 "segment record not named by the manifest")
                for seg_id in sorted(held - named)] + [
                ("missing-segment", SEGMENT_PREFIX + seg_id,
                 "manifest names a segment with no record")
                for seg_id in sorted(named - held)]

    def __repr__(self):
        return (f"SegmentStore(memtable={len(self.memtable)}, "
                f"frozen={len(self.frozen)}, "
                f"log={len(self.log)})")


def _segment_ids(device) -> Set[str]:
    """Ids of the segment records *device* holds."""
    return {key[len(SEGMENT_PREFIX):] for key in device.record_keys()
            if key.startswith(SEGMENT_PREFIX)}


def _read(device, key: str):
    raw = device.read_record(key)
    return serialization.loads(raw) if raw is not None else None

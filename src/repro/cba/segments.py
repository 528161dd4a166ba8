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

A frozen segment is **columnar**: a segment-local term dictionary, held
once, then one column per row field (kind, doc id, key, path, mtime,
size) and the rows' terms as one packed array of dictionary ids.  That
is its in-memory form and, byte for byte, its device record, so a
restore decodes a handful of arrays instead of one string per (document,
term) pair, and compaction remaps ids instead of re-spelling terms.

Three consumers share the rows, and only the first one seals:

* **Persistence** — :meth:`SegmentStore.sync` seals and compacts as the
  store's thresholds (or a forcing caller) demand, then writes each
  frozen segment as a ``seg:<id>`` device record plus a ``segmanifest``
  listing the live segment ids (only this module knows the two formats;
  both carry :data:`FORMAT_VERSION`, and a record of another version, or
  one whose columns disagree, reads as
  :class:`~repro.errors.CorruptRecord`);
  :class:`~repro.core.hacfs.HacFileSystem` says *when*, and calls it
  *only inside journal intents* (the scheduler's ``sched_batch`` drains
  and ``reindex``), so the WAL's pre-images roll a mid-seal or
  mid-compaction crash back to a consistent segment list.  Frozen
  segments hold no document text (recovery re-reads through the
  loader), in memory and on the device.
* **Publication** — ``publish()`` closes a *publication cut*
  (:meth:`SegmentStore.cut`): the rows noted since the last cut,
  coalesced per key, join an append-only log that replicas catch up
  from, truncated at their min cursor.  Rows are buffered for it only
  while a replica reads publications.  A cut is never persisted and
  never seals, so whether a snapshot reader exists changes nothing about
  what is written to the device, or when.
* **Recovery** — the segments are the only persisted index (the
  monolith's ``save_index`` seals and merges them; a cluster's freezes
  each shard's live rows as one segment, :meth:`SegmentStore.freeze_live`,
  under the manifest's shard map).  Restore folds them into one columnar
  run of live rows per engine (:func:`fold`), which the engine installs in
  bulk by term id with **zero tokenisation**; rows that were still in the
  memtable at the crash are healed by the recovery ``ssync``'s mtime
  diff, exactly like any other un-reindexed write.

Compaction policy: seal when the memtable holds ``seal_threshold`` rows
(or when ``reindex`` forces it), compact when the frozen list exceeds
``compact_threshold`` segments (or at ``reindex``).  Both thresholds are
knobs; the crash sweep pins ``seal_threshold=1`` to force a
seal-and-persist inside every drain.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate, chain
from typing import (Dict, Hashable, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from repro.errors import CorruptRecord
from repro.util import serialization
from repro.util.stats import Counters

#: memtable rows before a drain-time seal
DEFAULT_SEAL_THRESHOLD = 32
#: frozen segments before drain-time compaction folds them into one
DEFAULT_COMPACT_THRESHOLD = 8

#: device records: one per frozen segment (prefix + segment id), and the
#: manifest naming the live ids in fold order plus the two id counters
SEGMENT_PREFIX = "seg:"
MANIFEST_RECORD = "segmanifest"
#: the layout of both records; a reader refuses any other
FORMAT_VERSION = 1

#: row kinds, by the code a segment's ``kinds`` column stores
KINDS = ("upsert", "remove", "rename")
_CODE = {kind: code for code, kind in enumerate(KINDS)}
_UPSERT = _CODE["upsert"]


class SegmentRow(NamedTuple):
    """One document's latest state in the memtable or a publication cut
    (a frozen segment stores the same fields as columns).

    ``kind`` is ``'upsert'`` (document present, with its term set),
    ``'remove'`` (a tombstone: the key is gone, shadowing any older
    segment's upsert), or ``'rename'`` (path-only refresh of a document
    whose upsert lives in an older segment).  ``text`` rides along in the
    memtable and the publication cuts for replica catch-up; frozen
    segments drop it, and it is never serialized.
    """

    kind: str
    doc_id: int
    key: Hashable
    path: str
    mtime: float
    size: int
    terms: Optional[frozenset] = None
    text: Optional[str] = None


class Cut(NamedTuple):
    """One publication cut: the rows noted between two publishes,
    coalesced per key, in noting order, text included.  Never persisted."""

    rows: Tuple[SegmentRow, ...]


def _coalesce(prior, row):
    """Newest-wins merge of two rows for the same document key.

    Upserts and removes replace outright; a rename folds its path into a
    prior upsert (the document's contents are unchanged), replaces a prior
    rename, and stands alone otherwise, waiting for an older segment's
    upsert to absorb it.  Rows are :class:`SegmentRow`\\ s or :class:`_Ref`\\ s
    (only ``kind``, ``path`` and ``mtime`` are read).
    """
    if row.kind != "rename" or prior is None or prior.kind == "rename":
        return row
    if prior.kind == "upsert":
        return prior._replace(path=row.path, mtime=row.mtime)
    return prior  # rename after remove: the tombstone wins


class _Ref(NamedTuple):
    """A folded row that still lives in its segment: row *i* of *seg*,
    under the path and mtime a later rename may have given it."""

    kind: str
    path: str
    mtime: float
    seg: "Segment"
    i: int


class Segment:
    """An immutable run of rows in columnar form; sealing and compaction
    make doc-id-sorted ones.

    ``terms`` is the segment's dictionary, sorted; row *i* holds
    ``ids[offsets[i]:offsets[i + 1]]``, ascending, and ``kinds`` the row
    kinds as :data:`KINDS` codes.  :meth:`to_bytes` / :meth:`from_bytes`
    are the ``seg:`` record codec.
    """

    __slots__ = ("seg_id", "terms", "kinds", "doc_ids", "keys", "paths",
                 "mtimes", "sizes", "offsets", "ids")

    def __init__(self, seg_id: str, rows: Iterable[SegmentRow]):
        rows = list(rows)
        terms = sorted(set().union(*(r.terms for r in rows if r.terms)))
        where = {term: tid for tid, term in enumerate(terms)}
        ids: List[int] = []
        offsets = [0]
        for r in rows:
            if r.terms:
                ids.extend(sorted(map(where.__getitem__, r.terms)))
            offsets.append(len(ids))
        self._fill(seg_id, terms, bytes(_CODE[r.kind] for r in rows),
                   array("q", [r.doc_id for r in rows]),
                   [r.key for r in rows], [r.path for r in rows],
                   array("d", [r.mtime for r in rows]),
                   array("q", [r.size for r in rows]),
                   offsets, array(_id_code(terms), ids))

    def _fill(self, seg_id, terms, kinds, doc_ids, keys, paths, mtimes,
              sizes, offsets, ids) -> None:
        self.seg_id = seg_id
        self.terms: List[str] = terms
        self.kinds: bytes = kinds
        self.doc_ids = doc_ids
        self.keys: List[Hashable] = keys
        self.paths: List[str] = paths
        self.mtimes = mtimes
        self.sizes = sizes
        self.offsets: List[int] = offsets
        self.ids = ids

    @classmethod
    def _of(cls, seg_id: str, *columns) -> "Segment":
        seg = cls.__new__(cls)
        seg._fill(seg_id, *columns)
        return seg

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self):
        return f"Segment({self.seg_id!r}, rows={len(self)})"

    def term_ids(self, i: int):
        """Row *i*'s terms as dictionary ids."""
        return self.ids[self.offsets[i]:self.offsets[i + 1]]

    def runs(self) -> List[List[int]]:
        """Every row's term ids, in row order."""
        ids, offsets = self.ids.tolist(), self.offsets
        return [ids[a:b] for a, b in zip(offsets, offsets[1:])]

    def row(self, i: int) -> SegmentRow:
        kind = KINDS[self.kinds[i]]
        terms = None
        if kind == "upsert":
            terms = frozenset(map(self.terms.__getitem__, self.term_ids(i)))
        return SegmentRow(kind, self.doc_ids[i], self.keys[i], self.paths[i],
                          self.mtimes[i], self.sizes[i], terms)

    @property
    def rows(self) -> Tuple[SegmentRow, ...]:
        """The rows spelled out, terms as strings (no text)."""
        return tuple(map(self.row, range(len(self))))

    # -- the ``seg:`` record ---------------------------------------------

    def to_bytes(self) -> bytes:
        fsids = sorted({key[0] for key in self.keys})
        fs_of = {fsid: n for n, fsid in enumerate(fsids)}
        offsets = self.offsets
        return serialization.dumps({
            "v": FORMAT_VERSION, "id": self.seg_id,
            "terms": _pack_strs(self.terms),
            "kinds": self.kinds,
            "doc_ids": _pack("q", self.doc_ids),
            "fsids": fsids,
            "fs": _pack("I", [fs_of[key[0]] for key in self.keys]),
            "inos": _pack("q", [key[1] for key in self.keys]),
            "paths": _pack_strs(self.paths),
            "mtimes": _pack("d", self.mtimes),
            "sizes": _pack("q", self.sizes),
            "counts": _pack("I", [b - a for a, b in zip(offsets,
                                                        offsets[1:])]),
            "id_code": self.ids.typecode,
            "ids": _pack(self.ids.typecode, self.ids),
        })

    @classmethod
    def from_bytes(cls, raw: bytes, key: str = "") -> "Segment":
        """Decode a ``seg:`` record, checking that it holds together: the
        version is :data:`FORMAT_VERSION`, every column has one entry per
        row, the per-row id counts sum to the id array, every id is below
        the dictionary's length, doc ids ascend, no key or term appears
        twice, and the id is *key*'s.  Anything else raises
        :class:`~repro.errors.CorruptRecord` naming *key*."""
        try:
            obj = serialization.loads(raw)
            if not isinstance(obj, dict) or obj.get("v") != FORMAT_VERSION:
                raise ValueError("unknown segment format version")
            terms = _unpack_strs(obj["terms"])
            kinds = obj["kinds"]
            n = len(kinds)
            doc_ids = _unpack("q", obj["doc_ids"])
            fsids, fs = obj["fsids"], _unpack("I", obj["fs"])
            inos = _unpack("q", obj["inos"])
            paths = _unpack_strs(obj["paths"])
            mtimes = _unpack("d", obj["mtimes"])
            sizes = _unpack("q", obj["sizes"])
            counts = _unpack("I", obj["counts"])
            if obj["id_code"] not in ("H", "I"):
                raise ValueError("unknown term-id width")
            ids = _unpack(obj["id_code"], obj["ids"])
            if any(len(col) != n for col in (doc_ids, fs, inos, paths,
                                             mtimes, sizes, counts)):
                raise ValueError("column lengths disagree")
            if sum(counts) != len(ids):
                raise ValueError("id counts do not sum to the id array")
            if ids and max(ids) >= len(terms):
                raise ValueError("term id beyond the dictionary")
            if kinds and max(kinds) >= len(KINDS):
                raise ValueError("unknown row kind")
            if not isinstance(fsids, list) or \
                    not all(isinstance(fsid, str) for fsid in fsids) or \
                    fs and max(fs) >= len(fsids):
                raise ValueError("bad file-system id column")
            if any(a >= b for a, b in zip(doc_ids, doc_ids[1:])) or \
                    doc_ids and doc_ids[0] < 0:
                raise ValueError("doc ids do not ascend")
            keys = list(zip(map(fsids.__getitem__, fs), inos))
            if len(set(keys)) != n or len(set(terms)) != len(terms):
                raise ValueError("a key or a term appears twice")
            if key and key != SEGMENT_PREFIX + str(obj["id"]):
                raise ValueError("the segment's id is not its record's")
            return cls._of(str(obj["id"]), terms, bytes(kinds), doc_ids,
                           keys, paths, mtimes, sizes,
                           list(accumulate(counts, initial=0)), ids)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            # a field of the wrong type; SerializationError and
            # UnicodeDecodeError are ValueErrors
            raise CorruptRecord(key, f"unreadable segment: {exc}") from None


def _id_code(terms: Sequence[str]) -> str:
    """The narrowest array code that holds an id into *terms*."""
    return "H" if len(terms) <= 0xFFFF else "I"


def _pack(code: str, values) -> bytes:
    """*values* as a little-endian array of *code*."""
    arr = array(code, values)
    if sys.byteorder != "little":
        arr.byteswap()
    return arr.tobytes()


def _unpack(code: str, raw: bytes) -> array:
    """Inverse of :func:`_pack`; a ragged *raw* raises ValueError."""
    arr = array(code)
    arr.frombytes(raw)
    if sys.byteorder != "little":
        arr.byteswap()
    return arr


def _pack_strs(strs: Sequence[str]) -> List[bytes]:
    """*strs* as their lengths (in characters) and their UTF-8 text."""
    return [_pack("I", map(len, strs)), "".join(strs).encode("utf-8")]


def _unpack_strs(packed) -> List[str]:
    lens_raw, blob = packed
    text = blob.decode("utf-8")
    cuts = list(accumulate(_unpack("I", lens_raw), initial=0))
    if cuts[-1] != len(text):
        raise ValueError("string lengths do not sum to the text")
    return [text[a:b] for a, b in zip(cuts, cuts[1:])]


def _fold(segments: Iterable[Segment]) -> Dict[Hashable, _Ref]:
    """Newest-wins fold of *segments* (oldest first), per document key."""
    folded: Dict[Hashable, _Ref] = {}
    for seg in segments:
        for i, (code, key, path, mtime) in enumerate(
                zip(seg.kinds, seg.keys, seg.paths, seg.mtimes)):
            folded[key] = _coalesce(folded.get(key),
                                    _Ref(KINDS[code], path, mtime, seg, i))
    return folded


def _gather(seg_id: str, refs: Sequence[_Ref]) -> Segment:
    """One segment of the rows *refs* name, in their order, over a
    dictionary of exactly the terms they use.  Each source segment's ids
    are remapped once per (row, id) through an id → id table; no term is
    spelled out per row."""
    used: Dict[Segment, Set[int]] = {}
    for ref in refs:
        used.setdefault(ref.seg, set()).update(ref.seg.term_ids(ref.i))
    terms = sorted({seg.terms[tid] for seg, tids in used.items()
                    for tid in tids})
    where = {term: tid for tid, term in enumerate(terms)}
    remap = {seg: {tid: where[seg.terms[tid]] for tid in tids}
             for seg, tids in used.items()}
    ids = array(_id_code(terms))
    offsets = [0]
    for ref in refs:
        ids.extend(map(remap[ref.seg].__getitem__, ref.seg.term_ids(ref.i)))
        offsets.append(len(ids))
    return Segment._of(
        seg_id, terms, bytes(_CODE[ref.kind] for ref in refs),
        array("q", [ref.seg.doc_ids[ref.i] for ref in refs]),
        [ref.seg.keys[ref.i] for ref in refs], [ref.path for ref in refs],
        array("d", [ref.mtime for ref in refs]),
        array("q", [ref.seg.sizes[ref.i] for ref in refs]), offsets, ids)


def _by_doc_id(ref: _Ref) -> Tuple[int, str]:
    return ref.seg.doc_ids[ref.i], ref.kind


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
        self.log: List[Cut] = []
        self.seal_threshold = seal_threshold
        self.compact_threshold = compact_threshold
        self._next_seg = 0
        #: a cluster's shard map: shard id → the ids of its segments
        self.shards: Optional[Dict[str, List[str]]] = None
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

    def _next_id(self) -> str:
        seg_id = f"s{self._next_seg:06d}"
        self._next_seg += 1
        return seg_id

    def seal(self) -> Optional[Segment]:
        """Freeze the memtable into a new immutable, doc-id-sorted segment
        at the end of the live list (without the rows' text: only
        publication cuts are read for it, and a frozen copy would hold the
        corpus in memory a second time); returns ``None`` when the
        memtable is empty."""
        if not self.memtable:
            return None
        seg = Segment(self._next_id(),
                      sorted(self.memtable.values(),
                             key=lambda r: (r.doc_id, r.kind)))
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
        or ``None`` when there is nothing to merge down (one segment, or
        a cluster's, whose shards each keep their own).
        """
        if len(self.frozen) <= 1 or self.shards is not None:
            return None
        refs = sorted((ref for ref in _fold(self.frozen).values()
                       if ref.kind != "remove"), key=_by_doc_id)
        dropped = [seg.seg_id for seg in self.frozen]
        seg = _gather(self._next_id(), refs)
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
            self.log.append(Cut(tuple(self.unpublished.values())))
        self.unpublished = {}
        return len(self.log)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def live_rows(self) -> Dict[Hashable, SegmentRow]:
        """The frozen list's :func:`fold` spelled out, per document key."""
        return {row.key: row for row in fold(self.frozen).rows}

    def load_frozen(self, manifest: Dict[str, object],
                    segments: List[Segment]) -> None:
        """Adopt persisted segments and shard map (restore path)."""
        self.frozen = list(segments)
        self.shards = manifest.get("shards")
        self._next_seg = max(self._next_seg,
                             int(manifest.get("next_seg", len(segments))))
        self._stats.add("segments_loaded", len(segments))

    @classmethod
    def resume(cls, device, counters: Optional[Counters] = None
               ) -> "SegmentStore":
        """An empty store whose segment ids continue above every ``seg:``
        id *device* holds.  :meth:`sync` takes an id already on the device
        as written, so a store that reused one — a rebuild's first seal —
        would keep the stale record under it."""
        store = cls(counters=counters)
        store._next_seg = max([0] + [int(seg_id[1:]) + 1
                                     for seg_id in _segment_ids(device)
                                     if seg_id[1:].isdigit()])
        return store

    # ------------------------------------------------------------------
    # device records
    # ------------------------------------------------------------------

    def freeze_live(self, engine) -> None:
        """Freeze *engine*'s live rows (:meth:`~repro.cba.engine.CBAEngine.
        live_segment`) as one segment, or a cluster's as one per shard
        under :attr:`shards`: the save of an engine without a store."""
        shards = getattr(engine, "shards", None)
        for part in [engine] if shards is None else shards.values():
            self.frozen.append(getattr(part, "engine", part).live_segment(
                self._next_id()))
        if shards is not None:
            self.shards = {sid: [seg.seg_id] for sid, seg in
                           zip(shards, self.frozen[-len(shards):])}

    def sync(self, device, next_doc_id: int, tracer,
             force_seal: bool = False, force_compact: bool = False) -> None:
        """Seal and compact as the thresholds (or the caller) demand, then
        make *device* hold exactly the frozen list, under a manifest that
        carries :attr:`shards` when set.  MUST run inside an open journal
        intent.  What to write and delete is derived from the records the
        device holds, not from a memory of past syncs: a soft-failure
        rollback can restore records underneath the store, and
        re-deriving self-heals that divergence."""
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
                                    seg.to_bytes())
                changed = True
        for seg_id in sorted(on_device.difference(live)):
            device.delete_record(SEGMENT_PREFIX + seg_id)
            changed = True
        if changed:
            shards = {} if self.shards is None else {"shards": self.shards}
            device.write_record(MANIFEST_RECORD, serialization.dumps(
                {"v": FORMAT_VERSION, "segments": live,
                 "next_seg": self._next_seg, "next": next_doc_id, **shards}))

    def persisted_bytes(self, device) -> int:
        """Bytes the frozen list's ``seg:`` records hold on *device*."""
        return sum(len(device.read_record(SEGMENT_PREFIX + seg.seg_id))
                   for seg in self.frozen)

    @classmethod
    def load(cls, device, counters: Counters
             ) -> Optional[Tuple["SegmentStore", int]]:
        """The persisted segment list as ``(store, next doc id)``, or
        ``None`` when *device* holds no usable manifest.  One naming a
        missing segment record is unusable (counted; a rebuild takes
        over) — recovery has already rolled incomplete intents back, so
        records were lost outside any journaled write.  An unreadable
        record — a checksum failure, another format version, columns that
        disagree, a shard map that does not partition them, or a doc id at
        or above the manifest's allocator or under two keys — raises
        :class:`~repro.errors.CorruptRecord`
        (counted): the caller acknowledges the data loss by asking for a
        rebuild.  Ids continue above every segment the device holds
        (:meth:`resume`)."""
        restore_stats = counters.scoped("restore")
        try:
            manifest = _manifest(device)
            if not manifest:
                return None
            segments = []
            for seg_id in manifest["segments"]:
                key = SEGMENT_PREFIX + seg_id
                raw = device.read_record(key)
                if raw is None:
                    restore_stats.add("segment_missing")
                    return None
                segments.append(Segment.from_bytes(raw, key))
            _check_doc_ids(segments, manifest["next"],
                           "shards" in manifest)
        except CorruptRecord:
            restore_stats.add("segment_corrupt")
            raise
        store = cls.resume(device, counters)
        store.load_frozen(manifest, segments)
        return store, manifest["next"]

    @staticmethod
    def audit(device) -> List[Tuple[str, str, str]]:
        """Disagreements between *device*'s segment records and manifest
        as ``(kind, record key, detail)``.  An ``orphan-segment`` is what
        a crashed (un-rolled-back) seal or compaction left behind —
        unreachable, since :meth:`load` folds only what the manifest
        names; a ``missing-segment`` is state the manifest promises and
        recovery cannot deliver."""
        try:
            manifest = _manifest(device) or {}
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


def fold(segments: Sequence[Segment]) -> Segment:
    """*segments* (oldest → newest) folded into one doc-id-sorted segment
    of the live documents' final rows.

    Tombstoned keys and renames that never found their upsert are dropped
    — what remains is exactly the document set a restore should rebuild,
    with zero tokenisation.  A lone segment of upserts (what
    ``save_index`` leaves) is its own fold."""
    if len(segments) == 1:
        [seg] = segments
        if seg.kinds.count(_UPSERT) == len(seg):
            return seg
    return _gather("live", sorted(
        (ref for ref in _fold(segments).values() if ref.kind == "upsert"),
        key=_by_doc_id))


def _segment_ids(device) -> Set[str]:
    """Ids of the segment records *device* holds."""
    return {key[len(SEGMENT_PREFIX):] for key in device.record_keys()
            if key.startswith(SEGMENT_PREFIX)}


def _manifest(device) -> Optional[Dict[str, object]]:
    """The manifest record, checked, or ``None`` when there is none."""
    raw = device.read_record(MANIFEST_RECORD)
    if raw is None:
        return None
    try:
        manifest = serialization.loads(raw)
        if not isinstance(manifest, dict) or \
                manifest.get("v") != FORMAT_VERSION:
            raise ValueError("unknown manifest format version")
        if not isinstance(manifest["segments"], list) or \
                not all(isinstance(seg_id, str)
                        for seg_id in manifest["segments"]) or \
                not all(isinstance(manifest[field], int) and
                        manifest[field] >= 0
                        for field in ("next_seg", "next")):
            raise ValueError("malformed manifest")
        shards = manifest.get("shards", {"": manifest["segments"]})
        if not shards or sorted(chain(*shards.values())) != \
                sorted(manifest["segments"]):
            raise ValueError("the shard map does not partition the segments")
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise CorruptRecord(MANIFEST_RECORD,
                            f"unreadable manifest: {exc}") from None
    return manifest


def _check_doc_ids(segments: List[Segment], next_doc_id: int,
                   sharded: bool = False) -> None:
    """Every doc id lies below the allocator and names one key across
    the list (ids are never reused), so a bulk install cannot be handed
    an id twice or one a bitmap would have to grow to, nor (*sharded*)
    a document two shards hold."""
    owner: Dict[int, Hashable] = {}
    keys: Set[Hashable] = set()
    for seg in segments:
        if seg.doc_ids and seg.doc_ids[-1] >= next_doc_id:
            raise CorruptRecord(SEGMENT_PREFIX + seg.seg_id,
                                "doc id at or above the allocator")
        for doc_id, key in zip(seg.doc_ids, seg.keys):
            if owner.setdefault(doc_id, key) != key or \
                    sharded and key in keys:
                raise CorruptRecord(SEGMENT_PREFIX + seg.seg_id,
                                    f"doc id {doc_id} under two keys "
                                    "or in two shards")
            keys.add(key)

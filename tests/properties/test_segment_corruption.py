"""The restore boundary of the segment plane, fuzzed.

A ``seg:`` or ``segmanifest`` record that passes its checksum can still be
wrong: truncated, bit-flipped, or with columns that disagree (a term id
beyond the dictionary, a length column one short, an unknown format
version, a cluster's shard map that does not partition the segments).
Each mutation is written back under a valid checksum, so only the decoder
stands between it and the engine.  ``restore`` must then either finish or
raise :class:`~repro.errors.CorruptRecord`, counted as
``restore.segment_corrupt``, after which ``reuse_index=False`` rebuilds an
fsck-clean instance.  It never raises anything else — in particular no
``IndexError``, ``ValueError`` or ``UnicodeDecodeError`` from the decode or
the bulk install.  Every case runs on a monolith's records and on a
three-shard cluster's (one segment per shard under the shard map).  A
``semdir:`` record is not derived state: a corrupt one is refused with a
counted ``CorruptRecord`` that no rebuild gets past.

``CRASH_SWEEP_SEED`` (CI matrix) varies the world layout and the flipped
bytes.
"""

import os
import random

import pytest

from repro.core.hacfs import HacFileSystem
from repro.errors import CorruptRecord
from repro.util import serialization
from repro.util.stats import Counters

SEED = int(os.environ.get("CRASH_SWEEP_SEED", "0"))
#: the backends whose saved records are fuzzed
WORLDS = ("monolith", "cluster:3")
WORDS = ("fingerprint", "ridge", "minutiae", "sensor", "lunch", "banana",
         "recipe", "walnut", "matcher", "prototype")
#: bytes flipped per record
FLIPS = 24


def saved_world(backend: str = "monolith") -> HacFileSystem:
    """A few directories of files, a semantic directory, some churn, and
    the index saved: one merged segment, or one per shard."""
    rng = random.Random(SEED)
    hac = HacFileSystem(backend=backend)
    for d in ("/docs", "/docs/deep", "/mail"):
        hac.makedirs(d)
    for i in range(6 + SEED % 4):
        words = " ".join(rng.choice(WORDS) for _ in range(5))
        hac.write_file(f"{rng.choice(['/docs', '/docs/deep', '/mail'])}"
                       f"/f{i}.txt", words.encode() + b"\n")
    hac.smkdir("/fp", "fingerprint")
    hac.ssync("/")
    links = hac.listdir("/fp")
    if links:
        hac.unlink(f"/fp/{links[0]}")            # a prohibition
    hac.rename("/docs/deep", "/docs/moved")
    hac.save_index()
    return hac


def segment_key(hac) -> str:
    """The largest segment record: every field mutation below needs two
    rows or more, and a cluster's other shards may hold fewer."""
    dev = hac.fs.device
    return max((k for k in dev.record_keys() if k.startswith("seg:")),
               key=lambda k: (len(dev.read_record(k)), k))


def shard_map_edits(shards):
    """``(label, manifest fields)``: a cluster's shard map made to
    disagree with the segment list it partitions."""
    first, second = sorted(shards)[:2]
    yield "shared-segment", {"shards": dict(
        shards, **{second: shards[second] + shards[first]})}
    yield "unknown-shard", {"shards": dict(shards, shard9=["s999999"])}
    yield "non-string-id", {"shards": dict(shards, **{first: [7]})}
    yield "not-a-map", {"shards": sorted(shards)}
    yield "empty-map", {"shards": {}, "segments": []}


def field_mutations(raw: bytes):
    """``(label, bytes)``: the decoded record with one field made
    inconsistent, re-encoded."""
    def edit(change):
        obj = serialization.loads(raw)
        change(obj)
        return serialization.dumps(obj)

    def ragged(field):
        def change(obj):
            obj[field] = obj[field][:-1]
        return change

    def short(field):
        def change(obj):
            lens, text = obj[field]
            obj[field] = [lens[:-4], text]
        return change

    def out_of_range(obj):
        terms = serialization.loads(raw)["terms"][0]
        obj["ids"] = (len(terms) // 4).to_bytes(2, "little") + obj["ids"][2:]

    yield "version", edit(lambda obj: obj.update(v=2))
    yield "no-version", edit(lambda obj: obj.pop("v"))
    yield "id-width", edit(lambda obj: obj.update(id_code="Q"))
    yield "id-out-of-range", edit(out_of_range)
    yield "kind-unknown", edit(lambda obj: obj.update(
        kinds=b"\x07" + obj["kinds"][1:]))
    yield "fsid-out-of-range", edit(lambda obj: obj.update(fsids=[]))
    yield "fsids-not-a-list", edit(lambda obj: obj.update(fsids="x"))
    yield "doc-ids-descend", edit(lambda obj: obj.update(
        doc_ids=obj["doc_ids"][8:16] + obj["doc_ids"][:8]
        + obj["doc_ids"][16:]))
    yield "doc-id-above-allocator", edit(lambda obj: obj.update(
        doc_ids=obj["doc_ids"][:-8] + (10 ** 6).to_bytes(8, "little")))
    yield "duplicate-key", edit(lambda obj: obj.update(
        inos=obj["inos"][:8] * 2 + obj["inos"][16:]))
    yield "counts-sum", edit(lambda obj: obj.update(
        counts=(1 + int.from_bytes(obj["counts"][:4], "little"))
        .to_bytes(4, "little") + obj["counts"][4:]))
    for field in ("kinds", "doc_ids", "fs", "inos", "mtimes", "sizes",
                  "counts", "ids"):
        yield f"ragged-{field}", edit(ragged(field))
    for field in ("terms", "paths"):
        yield f"short-{field}", edit(short(field))
    yield "text-not-bytes", edit(lambda obj: obj.update(
        terms=[obj["terms"][0], "alpha"]))
    yield "not-a-dict", serialization.dumps([1, 2, 3])


def byte_mutations(raw: bytes, rng):
    """``(label, bytes)``: truncations and single flipped bytes."""
    for cut in sorted({0, 1, len(raw) // 3, len(raw) // 2, len(raw) - 1}):
        yield f"truncate@{cut}", raw[:cut]
    for at in sorted(rng.sample(range(len(raw)), min(FLIPS, len(raw)))):
        yield f"flip@{at}", raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]


def rebuild(hac, backend):
    """The opt-in rebuild after a refused record: fsck-clean at once."""
    rebuilt = HacFileSystem.restore(hac.fs, reuse_index=False,
                                    backend=backend)
    assert [f for f in rebuilt.fsck() if f.severity == "error"] == []
    return rebuilt


def restore_or_rebuild(hac, backend):
    """Restore *hac*'s device; on ``CorruptRecord`` (and only then)
    check it was counted and rebuild.  Returns the working instance."""
    counters = Counters()
    try:
        return HacFileSystem.restore(hac.fs, counters=counters)
    except CorruptRecord:
        assert counters.get("restore.segment_corrupt") == 1
    return rebuild(hac, backend)


def manifest_edits(fields):
    """``(label, manifest fields)`` edits every manifest must refuse."""
    yield from (("version", {"v": 99}),
                ("segments-not-a-list", {"segments": "s000001"}),
                ("next-below-doc-ids", {"next": 0}),
                ("next-negative", {"next": -1}))
    if "shards" in fields:
        yield from shard_map_edits(fields["shards"])


def cases(backend):
    hac = saved_world(backend)
    dev = hac.fs.device
    rng = random.Random(0xC0DE + SEED)
    seg = dev.read_record(segment_key(hac))
    manifest = dev.read_record("segmanifest")
    out = [("seg", label, data) for label, data in field_mutations(seg)]
    out += [("seg", label, data) for label, data in byte_mutations(seg, rng)]
    out += [("segmanifest", label, data)
            for label, data in byte_mutations(manifest, rng)]
    fields = serialization.loads(manifest)
    out += [("segmanifest", label, serialization.dumps(dict(fields, **edit)))
            for label, edit in manifest_edits(fields)]
    return [(backend,) + case for case in out]


CASES = [case for backend in WORLDS for case in cases(backend)]


@pytest.mark.parametrize("backend,record,label,data", CASES,
                         ids=[f"{r}-{label}-{b}" for b, r, label, _d in CASES])
def test_a_mutated_record_restores_or_raises_corrupt(backend, record, label,
                                                     data):
    hac = saved_world(backend)
    key = segment_key(hac) if record == "seg" else record
    hac.fs.device.write_record(key, data)
    restored = restore_or_rebuild(hac, backend)
    assert restored.glimpse("fingerprint") is not None


def refused(hac, key, data, label):
    """Write *data* under *key*; a restore must refuse it, counted."""
    hac.fs.device.write_record(key, data)
    counters = Counters()
    with pytest.raises(CorruptRecord):
        HacFileSystem.restore(hac.fs, counters=counters)
        pytest.fail(f"{label}: restored")
    assert counters.get("restore.segment_corrupt") == 1, label


def test_every_field_mutation_is_refused():
    """A record whose columns disagree never reaches the engine — nor
    does a manifest whose fields do, a cluster's shard map included; a
    rebuild then comes back fsck-clean."""
    for backend in WORLDS:
        hac = saved_world(backend)
        key = segment_key(hac)
        raw = hac.fs.device.read_record(key)
        for label, data in field_mutations(raw):
            refused(hac, key, data, (backend, label))
        hac.fs.device.write_record(key, raw)
        HacFileSystem.restore(hac.fs)
        manifest = hac.fs.device.read_record("segmanifest")
        fields = serialization.loads(manifest)
        for label, edit in manifest_edits(fields):
            refused(hac, "segmanifest", serialization.dumps(
                dict(fields, **edit)), (backend, label))
            rebuild(hac, backend)
            hac = saved_world(backend)


@pytest.mark.parametrize("backend", WORLDS)
def test_a_truncated_semdir_record_raises_a_counted_corrupt_record(backend):
    """A ``semdir:`` record cut short under a fresh checksum is refused
    by name and counted, not left to the decoder's own error; the
    directory's query and prohibitions are the user's, so no rebuild
    stands in for them."""
    hac = saved_world(backend)
    dev = hac.fs.device
    key = min(k for k in dev.record_keys() if k.startswith("semdir:"))
    dev.write_record(key, dev.read_record(key)[:-3])
    for reuse_index in (True, False):
        counters = Counters()
        with pytest.raises(CorruptRecord) as refusal:
            HacFileSystem.restore(hac.fs, counters=counters,
                                  reuse_index=reuse_index)
        assert refusal.value.path == key
        assert counters.get("restore.semdir_corrupt") == 1

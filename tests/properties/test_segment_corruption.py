"""The restore boundary of the segment plane, fuzzed.

A ``seg:`` or ``segmanifest`` record that passes its checksum can still be
wrong: truncated, bit-flipped, or with columns that disagree (a term id
beyond the dictionary, a length column one short, an unknown format
version).  Each mutation is written back under a valid checksum, so only
the decoder stands between it and the engine.  ``restore`` must then either
finish or raise :class:`~repro.errors.CorruptRecord`, counted as
``restore.segment_corrupt``, after which ``reuse_index=False`` rebuilds an
fsck-clean instance.  It never raises anything else — in particular no
``IndexError``, ``ValueError`` or ``UnicodeDecodeError`` from the decode or
the bulk install.

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
WORDS = ("fingerprint", "ridge", "minutiae", "sensor", "lunch", "banana",
         "recipe", "walnut", "matcher", "prototype")
#: bytes flipped per record
FLIPS = 24


def saved_world() -> HacFileSystem:
    """A few directories of files, a semantic directory, some churn, and
    one merged segment saved."""
    rng = random.Random(SEED)
    hac = HacFileSystem()
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
    [key] = [k for k in hac.fs.device.record_keys() if k.startswith("seg:")]
    return key


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


def restore_or_rebuild(hac):
    """Restore *hac*'s device; on ``CorruptRecord`` (and only then)
    check it was counted and rebuild.  Returns the working instance."""
    counters = Counters()
    try:
        return HacFileSystem.restore(hac.fs, counters=counters)
    except CorruptRecord:
        assert counters.get("restore.segment_corrupt") == 1
    rebuilt = HacFileSystem.restore(hac.fs, reuse_index=False)
    assert [f for f in rebuilt.fsck() if f.severity == "error"] == []
    return rebuilt


def cases():
    hac = saved_world()
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
            for label, edit in (("version", {"v": 99}),
                                ("segments-not-a-list",
                                 {"segments": "s000001"}),
                                ("next-below-doc-ids", {"next": 0}),
                                ("next-negative", {"next": -1}))]
    return out


CASES = cases()


@pytest.mark.parametrize("record,label,data", CASES,
                         ids=[f"{r}-{label}" for r, label, _d in CASES])
def test_a_mutated_record_restores_or_raises_corrupt(record, label, data):
    hac = saved_world()
    key = segment_key(hac) if record == "seg" else record
    hac.fs.device.write_record(key, data)
    restored = restore_or_rebuild(hac)
    assert restored.glimpse("fingerprint") is not None


def test_every_field_mutation_is_refused():
    """A record whose columns disagree never reaches the engine."""
    hac = saved_world()
    key = segment_key(hac)
    raw = hac.fs.device.read_record(key)
    for label, data in field_mutations(raw):
        hac.fs.device.write_record(key, data)
        counters = Counters()
        with pytest.raises(CorruptRecord):
            HacFileSystem.restore(hac.fs, counters=counters)
            pytest.fail(f"{label}: restored")
        assert counters.get("restore.segment_corrupt") == 1, label
    hac.fs.device.write_record(key, raw)
    HacFileSystem.restore(hac.fs)

"""Property: the segmented index store is observationally identical to
the monolithic one.

The segment plane (DESIGN.md §3i) restructures *how* GlimpseIndex state
is buffered, published, persisted, and recovered — memtable, frozen
segments, sealed log — while the live aggregates keep answering every
query.  Its contract is bit-identity: after any interleaving of writes,
removals, moves, strong and snapshot queries, async syncs, drains,
publishes, and reindexes, the segmented world's query answers, final
engine state, and serialized index must equal the monolithic world's,
byte for byte.  Both worlds share one pinned fsid and identical op
schedules, so doc keys and ids line up exactly and raw bitmap / to_obj
comparisons are meaningful.

A separate crash test arms a device crash inside the batched drain and
proves both worlds recover — the segmented one by folding its persisted
segments back (or rebuilding when the crash beat the first persist) —
to the same canonical state digest.

``SEG_SEED`` shifts the fuzz seeds and ``SEG_K`` (>0) runs the same
property against a sharded search cluster (CI matrix).
"""

import os
import random
from types import SimpleNamespace

import pytest

from repro.cba.backend import open_backend
from repro.cba.queryparser import parse_query
from repro.chaos.invariants import state_digest
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.shell.session import HacShell
from repro.util import serialization
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

from tests.properties.reference import assert_paths_column

BASE_SEED = int(os.environ.get("SEG_SEED", "0"))
K = int(os.environ.get("SEG_K", "0"))

NAMES = [f"m{i}.txt" for i in range(8)]
WORDS = ["fingerprint", "banana", "ridge", "recipe", "lunch", "budget",
         "minutiae", "bread"]
QUERIES = ["fingerprint", "banana AND recipe", "fingerprint OR lunch",
           "ridge AND NOT banana", '"fingerprint ridge"']


def build_world(segmented: bool) -> HacShell:
    # one pinned fsid in both worlds: doc keys embed it, and the twin
    # runs are op-for-op identical, so with the id pinned the serialized
    # indexes must match byte for byte
    clock = VirtualClock()
    counters = Counters()
    fs = FileSystem(name="hac", clock=clock, counters=counters,
                    fsid="hac#segeq")
    backend = (open_backend("cluster", shards=K, latency=0.0,
                            segmented=segmented) if K
               else open_backend("monolith", segmented=segmented))
    shell = HacShell(HacFileSystem(fs=fs, clock=clock, counters=counters,
                                   backend=backend))
    hac = shell.hacfs
    hac.makedirs("/mail")
    hac.write_file("/mail/seed.txt", b"fingerprint ridge baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.watch("/mail")
    hac.maintenance.set_mode("batched")
    return shell


def op_script(seed: int, n_ops: int = 90):
    rng = random.Random(seed)
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.40:
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 6))) + "\n"
            ops.append(("write", rng.choice(NAMES), text))
        elif r < 0.52:
            ops.append(("rm", rng.choice(NAMES)))
        elif r < 0.62:
            ops.append(("mv", rng.choice(NAMES), rng.choice(NAMES)))
        elif r < 0.74:
            ops.append(("query", rng.choice(QUERIES)))
        elif r < 0.80:
            ops.append(("snap_query", rng.choice(QUERIES)))
        elif r < 0.86:
            ops.append(("ssync_async",))
        elif r < 0.92:
            ops.append(("drain",))
        elif r < 0.96:
            ops.append(("publish",))
        else:
            ops.append(("reindex",))
    ops.append(("query", QUERIES[0]))
    return ops


def apply_op(shell: HacShell, op):
    """Run one scripted op; both worlds guard identically (same tree), so
    an op that is a no-op in one is a no-op in the other."""
    hac = shell.hacfs
    kind = op[0]
    if kind == "write":
        shell.write(f"/mail/{op[1]}", op[2])
        hac.clock.tick()
    elif kind == "rm":
        if hac.isfile(f"/mail/{op[1]}"):
            shell.rm(f"/mail/{op[1]}")
    elif kind == "mv":
        src, dst = f"/mail/{op[1]}", f"/mail/{op[2]}"
        if hac.isfile(src) and not hac.exists(dst):
            shell.mv(src, dst)
    elif kind == "query":
        return shell.glimpse(op[1])
    elif kind == "snap_query":
        # the zero-barrier path: answered by a replica fed segments (or
        # the op log in the monolithic-store world)
        return shell.glimpse(op[1], consistency="snapshot")
    elif kind == "ssync_async":
        shell.ssync("/", asynchronous=True)
    elif kind == "drain":
        shell.sched_drain()
    elif kind == "publish":
        hac.maintenance.publish()
    elif kind == "reindex":
        hac.reindex()
    return None


def engine_state(hac: HacFileSystem) -> dict:
    eng = hac.engine
    assert_paths_column(eng)
    docs = []
    for doc_id in eng.all_docs():
        doc = eng.doc_by_id(doc_id)
        docs.append((doc_id, doc.path, doc.mtime))
    return {
        "next_doc_id": eng._next_doc_id,
        "all_docs": eng.all_docs().to_bytes(),
        "mtimes": {eng.doc_id_of(k): m
                   for k, m in eng.mtime_snapshot().items()},
        "docs": sorted(docs),
    }


def raw_answer(hac: HacFileSystem, query: str) -> bytes:
    ast = parse_query(query, resolve_dir=hac.dirmap.uid_of)
    return hac.engine.search(ast).to_bytes()


def as_world(shell: HacShell) -> SimpleNamespace:
    return SimpleNamespace(hac=shell.hacfs, shell=shell)


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_segmented_is_bit_identical_to_monolithic(seed):
    mono, seg = build_world(False), build_world(True)
    for op in op_script(seed):
        a = apply_op(mono, op)
        b = apply_op(seg, op)
        if op[0] in ("query", "snap_query"):
            assert a == b, (seed, op)

    # settle both worlds the same way, then compare everything observable
    for shell in (mono, seg):
        shell.hacfs.maintenance.barrier()
    assert engine_state(mono.hacfs) == engine_state(seg.hacfs), seed
    for query in QUERIES:
        assert raw_answer(mono.hacfs, query) == \
            raw_answer(seg.hacfs, query), (seed, query)
    # the serialized index (save_index payload) is byte-identical: the
    # segment plane changes buffering and persistence, never the index
    assert serialization.dumps(mono.hacfs.engine.to_obj()) == \
        serialization.dumps(seg.hacfs.engine.to_obj()), seed
    assert set(mono.hacfs.links("/fp")) == set(seg.hacfs.links("/fp")), seed
    assert state_digest(as_world(mono), queries=QUERIES) == \
        state_digest(as_world(seg), queries=QUERIES), seed

    # and the segment plane actually engaged: rows coalesced into the
    # memtable and at least one seal cut (reindex forces one; so does any
    # publish once a snapshot query attached a replica)
    c = seg.hacfs.counters
    assert c.get("segments.noted") > 0, seed
    assert c.get("segments.seals") > 0, seed
    assert mono.hacfs.counters.get("segments.noted") == 0, seed


@pytest.mark.skipif(K > 0, reason="segment-merge restore is the monolith "
                                  "engine's path; clusters restore via "
                                  "their persisted cbaindex")
@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_crash_recovery_converges_identically(seed):
    """Crash both twins mid-drain, restore both, and require the same
    canonical state digest.  The intact intent journal makes the crash
    atomic in either store; restore's catch-up sync then converges them
    regardless of which record the crash fell on."""
    mono, seg = build_world(False), build_world(True)
    script = op_script(seed)
    for op in script[:40]:
        apply_op(mono, op)
        apply_op(seg, op)
    restored = []
    for shell in (mono, seg):
        hac = shell.hacfs
        hac.clock.tick()
        hac.write_file("/mail/crashy.txt", b"fingerprint at the scene\n")
        hac.write_file("/mail/seed.txt", b"ridge rewritten baseline\n")
        dev = hac.fs.device
        dev.set_fault_plan(
            FaultPlan(crash_at=dev.record_write_index + seed % 3))
        with pytest.raises(DeviceCrashed):
            hac.maintenance.drain()
            hac.ssync("/")
        revived = HacFileSystem.restore(hac.fs)
        assert [f for f in revived.fsck() if f.severity == "error"] == [], \
            seed
        restored.append(as_world(HacShell(revived)))
    assert state_digest(restored[0], queries=QUERIES) == \
        state_digest(restored[1], queries=QUERIES), seed

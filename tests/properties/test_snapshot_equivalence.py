"""Property: snapshot reads equal eager reads *as of the publish point*.

The serving tier's contract (DESIGN.md §3g) has two halves:

(a) a snapshot read answers exactly what an always-fresh (eager) world
    answered at the moment the snapshot's version was published — never a
    torn in-between state, never anything newer — and performs **zero**
    scheduler drains doing it;

(b) ``consistency='strong'`` is bit-identical to the PR 5 barrier path
    (the default ``glimpse``), which in turn is bit-identical to eager.

This suite fuzzes both against scripted interleavings of writes,
removals, moves, strong and snapshot queries, async syncs, drains, and
*forced publishes*.  The eager world doubles as the oracle: after every
op we record its raw doc-id answers, and note which op index each
batched-world snapshot version was published at.  A snapshot read at
version *v* must then reproduce the oracle's answers from *v*'s publish
point, bit for bit — doc ids are comparable across worlds because
enqueue-time reservation pins them (PR 5 property).

``SNAP_SEED`` shifts the fuzz seeds and ``SNAP_K`` (>0) runs the same
property against a sharded search cluster with per-shard read replicas
(CI matrix).
"""

import os
import random

import pytest

from repro.cba.backend import open_backend
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.shell.session import HacShell

from tests.properties.reference import assert_paths_column

BASE_SEED = int(os.environ.get("SNAP_SEED", "0"))
K = int(os.environ.get("SNAP_K", "0"))

NAMES = [f"m{i}.txt" for i in range(8)]
WORDS = ["fingerprint", "banana", "ridge", "recipe", "lunch", "budget",
         "minutiae", "bread"]
QUERIES = ["fingerprint", "banana AND recipe", "fingerprint OR lunch",
           "ridge AND NOT banana", '"fingerprint ridge"']


def build_world(mode: str) -> HacShell:
    backend = open_backend("cluster", shards=K, latency=0.0) if K else None
    shell = HacShell(HacFileSystem(backend=backend))
    hac = shell.hacfs
    hac.makedirs("/mail")
    hac.write_file("/mail/seed.txt", b"fingerprint ridge baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/mail")
    hac.maintenance.set_mode(mode)
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
            ops.append(("snap_query", rng.choice(QUERIES)))
        elif r < 0.84:
            ops.append(("strong_query", rng.choice(QUERIES)))
        elif r < 0.90:
            ops.append(("ssync_async",))
        elif r < 0.95:
            ops.append(("drain",))
        else:
            ops.append(("publish",))
    ops.append(("drain",))
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
    elif kind == "strong_query":
        return shell.glimpse(op[1], consistency="strong")
    elif kind == "ssync_async":
        shell.ssync("/", asynchronous=True)
    elif kind == "drain":
        shell.sched_drain()
    elif kind == "publish":
        shell.sched_publish()
    return None


def raw_answers(hac: HacFileSystem) -> dict:
    return {q: hac.engine.search(parse_query(q)).to_bytes() for q in QUERIES}


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
        "docs": sorted(docs),
    }


def check_snapshot_read(hac: HacFileSystem, version_content, context):
    """A snapshot read must reproduce its version's published answers,
    bit for bit, without draining anything."""
    drains = hac.counters.get("sched.drains")
    view = hac.engine.snapshot_view()
    assert view.version in version_content, (context, view.version)
    assert_paths_column(view)
    expected = version_content[view.version]
    for query in QUERIES:
        got = view.search(parse_query(query)).to_bytes()
        assert got == expected[query], (context, view.version, query)
    assert hac.counters.get("sched.drains") == drains, context


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_snapshot_reads_match_eager_at_publish_point(seed):
    eager, batched = build_world("eager"), build_world("batched")
    version_content = {}  # snapshot version -> answers published under it

    def sample(context):
        """Record what each new version published, and pin drain-produced
        versions to the eager oracle: whenever the batched world has no
        pending work, its published state must equal eager's *right now*
        (a forced publish with work pending legitimately republishes the
        older, last-drained state instead)."""
        eager_now = raw_answers(eager.hacfs)
        version = batched.hacfs.engine.snapshot_info()["version"]
        if version not in version_content:
            version_content[version] = raw_answers(batched.hacfs)
            if batched.hacfs.maintenance.pending == 0:
                assert version_content[version] == eager_now, context
        return eager_now

    sample("baseline")  # the settled state both worlds start from
    for step, op in enumerate(op_script(seed)):
        a = apply_op(eager, op)
        b = apply_op(batched, op)
        sample((seed, step, op))
        if op[0] == "strong_query":
            # (b) strong == the PR 5 barrier path == eager, bit-identical
            assert a == b, (seed, step, op)
            assert b == batched.glimpse(op[1]), (seed, step, op)
        if op[0] in ("snap_query", "drain", "publish"):
            # (a) snapshot reads serve the published past, drain-free
            check_snapshot_read(batched.hacfs, version_content,
                                (seed, step, op))

    # converged: one more barrier and the snapshot serves the present
    batched.hacfs.maintenance.barrier()
    final = sample((seed, "final"))
    assert engine_state(eager.hacfs) == engine_state(batched.hacfs), seed
    check_snapshot_read(batched.hacfs, version_content, (seed, "final"))
    view = batched.hacfs.engine.snapshot_view()
    assert version_content[view.version] == final, seed

    # every replica caught up — no lag left after the final publish
    status = batched.sched_status()
    assert all(lag == 0 for lag in status["replica_lag"].values()), status


def test_forced_publish_is_not_a_barrier():
    """``sched publish`` advances the version without draining: pending
    dirty docs stay pending and stay invisible to snapshot readers."""
    shell = build_world("batched")
    shell.hacfs.engine.snapshot_view()  # attach replicas first
    assert "seed.txt" in " ".join(
        shell.glimpse("baseline", consistency="snapshot"))
    before = shell.hacfs.engine.snapshot_info()["version"]

    shell.write("/mail/m0.txt", "solitary fingerprint clue\n")
    pending = shell.hacfs.maintenance.pending
    assert pending > 0
    drains = shell.hacfs.counters.get("sched.drains")

    version = shell.sched_publish()
    assert version > before
    assert shell.hacfs.maintenance.pending == pending
    assert shell.hacfs.counters.get("sched.drains") == drains
    assert shell.glimpse("clue", consistency="snapshot") == []

    shell.sched_drain()
    assert shell.glimpse("clue", consistency="snapshot") != []

"""Twin worlds: one seeded op alphabet, and every world under test run in
lockstep with the twins that say what it must answer.

The paper's guarantees — the scope invariant, and data consistency after
a reindex under lazy maintenance (§2.3–2.4) — hold here by comparison: a
world that batches, segments, maps paths and shares its tree must answer
exactly as a twin that does the same work the plain way.  The world under
test is batched over the segmented store, on the monolith or a K=3
cluster; after every op of a seeded script:

(a) an **eager twin** (DESIGN.md §3f) gives the same strong answers; at
    the end its engine state, raw answers and ``/fp`` links are equal, bit
    for bit — doc ids are reserved at enqueue, so they line up — and
    batching really coalesced;
(b) the eager twin is also the serving tier's clock (§3g): a snapshot
    read reproduces the answers published under its version with zero
    drains, a version a drain produced equals eager's answers at that
    moment, and every replica has caught up at the end;
(c) an **op-log twin** (``segmented=False``, §3i) gives the same answers,
    snapshot ones included, and the same engine state and ``to_obj``
    bytes; the device's segments plus the memtable are the engine's live
    rows;
(d) the **component walk** (§3i, Yodaiken's tree folded into a map):
    every pooled path, both follow modes, resolves through the path map
    exactly as ``FileSystem._walk`` does;
(e) **solo twins** (§3k, a namespace as a view of one shared tree): two
    tenants plus host noise share one world, and each tenant's answers,
    tree, links and digest equal a world hosting it alone, with its quota
    ledger equal to a recount.

Every ``WINDOW`` steps the map and the graph are the ones a load derives
(:mod:`tests.properties.derived`).  One crash helper arms a device crash
mid-drain or mid-``smkdir`` and requires the twins to recover to one
digest, with the map still agreeing with the walk.

This module is the harness and runs (e); the end-of-run checks of (a)–(d)
and the two crash sites keep their suites' names, each a few lines over
:func:`settled` and :func:`crash_and_recover`:
``test_scheduler_equivalence`` (a), ``test_snapshot_equivalence`` (b),
``test_segment_equivalence`` (c, crash mid-drain) and
``test_pathmap_equivalence`` (d, crash mid-``smkdir``).

``TWIN_SEED`` shifts every seed (the CI ``twins`` cell runs three).
"""

import functools
import os
import random
from collections import namedtuple

import pytest

from repro.cba.backend import open_backend
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec, recompute_usage
from repro.errors import DeviceCrashed, VfsError
from repro.util import serialization
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

from tests.chaos.soak import digest
from tests.properties.derived import (assert_is_derived,
                                      assert_segments_are_derived)
from tests.properties.reference import assert_paths_column

SEED = int(os.environ.get("TWIN_SEED", "0"))
SEEDS = (SEED, SEED + 1, SEED + 2)
KS = (0, 3)
WINDOW = 20

#: the tree's subdirectories, parents before children
DIRS = ("/t/a", "/t/b", "/t/c", "/t/a/x", "/t/a/y", "/t/b/z")
#: where file ops land — the top more than half the time, so names collide:
#: writes, removals and moves over one small pool drive the tombstone and
#: revival paths that doc-id reservation must pin
PLACES = ("/t",) * 8 + DIRS
NAMES = tuple(f"m{i}.txt" for i in range(4))
WORDS = ("fingerprint", "banana", "ridge", "recipe", "lunch", "budget",
         "minutiae", "bread")
QUERIES = ("fingerprint", "banana AND recipe", "fingerprint OR lunch",
           "ridge AND NOT banana", '"fingerprint ridge"')

#: every path an op can touch — and ``/ridge``, which the crashed
#: ``smkdir`` makes and recovery removes — plus shapes the map must never
#: cache (``..`` components) or must cache under the normalized key
POOL = (("/", "/t", "/fp", "/ridge", "/fp/seed.txt", "/t/seed.txt") + DIRS
        + tuple(f"{d}/{n}" for d in ("/t",) + DIRS
                for n in NAMES + ("q", "q/m0.txt"))
        + ("/t/a/../b", "/t//a/", "/t/a/x/../../b/z", "/fp/../t/seed.txt"))

#: (kind, weight): the union of the tree, index and serving alphabets
ALPHABET = (("write", 24), ("fdwrite", 3), ("truncate", 1), ("rm", 5),
            ("mv", 6), ("mkdir", 4), ("rmdir", 2), ("mvdir", 5),
            ("smkdir", 1), ("stat", 2), ("listdir", 2), ("strong", 5),
            ("snapshot", 4), ("ssync", 1), ("ssync_async", 1), ("drain", 2),
            ("publish", 1), ("reindex", 1))

Op = namedtuple("Op", "actor kind src name dst name2 dir dir2 text query "
                       "mode")


def backend(k: int, segmented: bool = True):
    # latency 0 keeps the virtual clocks in step across twins
    return (open_backend("cluster", shards=k, latency=0.0,
                         segmented=segmented) if k
            else open_backend("monolith", segmented=segmented))


def world(k: int = 0, mode: str = "batched", segmented: bool = True,
          actors=(None,)) -> HacFileSystem:
    """One world over a pinned fsid, so doc keys and ``to_obj`` bytes
    compare across worlds.  Each actor — the host (None) or a tenant —
    gets ``/t/a``, ``/t/b``, ``/t/seed.txt`` and a semantic directory
    ``/fp``."""
    clock, counters = VirtualClock(), Counters()
    fs = FileSystem(name="hac", clock=clock, counters=counters,
                    fsid="hac#twin")
    hac = HacFileSystem(fs=fs, clock=clock, counters=counters,
                        backend=backend(k, segmented))
    for actor in actors:
        if actor is not None:
            hac.tenants.create(actor, quota=QuotaSpec(
                weight=3 if actor == "alpha" else 1))
        for path in DIRS[:2]:
            surface(hac, actor).makedirs(path)
        surface(hac, actor).write_file("/t/seed.txt",
                                       b"fingerprint ridge baseline\n")
    clock.tick()
    hac.ssync("/")
    for actor in actors:
        surface(hac, actor).smkdir("/fp", "fingerprint")
    if None in actors:
        hac.watch("/t")     # a tenant's root is watched from its creation
    hac.maintenance.set_mode(mode)
    return hac


def surface(hac: HacFileSystem, actor):
    return hac if actor is None else hac.tenants.get(actor)


def script(seed: int, steps: int, actors=(None,)):
    """*steps* ops drawn from :data:`ALPHABET`, a pure function of the
    seed; every op draws every argument, so no op's kind shifts the draws
    of the ops after it."""
    rng = random.Random(seed)
    kinds = [kind for kind, weight in ALPHABET for _ in range(weight)]
    return [Op(rng.choice(actors), rng.choice(kinds), rng.choice(PLACES),
               rng.choice(NAMES), rng.choice(PLACES), rng.choice(NAMES),
               rng.choice(DIRS), rng.choice(DIRS),
               " ".join(rng.choices(WORDS, k=rng.randint(2, 6))) + "\n",
               rng.choice(QUERIES), rng.choice(("w", "a", "rw")))
            for _ in range(steps)]


def apply(hac: HacFileSystem, op: Op):
    """Run *op* on its actor's surface of *hac*, guarded on that surface's
    tree — twins with the same tree make the same call — and return what
    it observed.  Every write ticks the clock, so mtimes tell versions
    apart (``test_recovery.py`` pins what a same-instant rewrite loses)."""
    s = surface(hac, op.actor)
    root = "/" if op.actor is None else s.root
    src, dst = f"{op.src}/{op.name}", f"{op.dst}/{op.name2}"
    kind, data = op.kind, op.text.encode()
    if kind == "write" and s.isdir(op.src) and not s.isdir(src):
        s.write_file(src, data)
        hac.clock.tick()
    elif kind == "fdwrite" and s.isfile(src):
        fd = s.open(src, op.mode)
        s.write(fd, data)
        s.close(fd)
        hac.clock.tick()
    elif kind == "truncate" and s.isfile(src):
        s.truncate(src, len(data) // 2)
        hac.clock.tick()
    elif kind == "rm" and s.isfile(src):
        s.unlink(src)
    elif kind == "mv" and src != dst and s.isfile(src) \
            and s.isdir(op.dst) and not s.isdir(dst):
        s.rename(src, dst)          # over an existing file, too
    elif kind == "mkdir" and not s.exists(op.dir) \
            and s.isdir(op.dir.rsplit("/", 1)[0]):
        s.mkdir(op.dir)
    elif kind == "rmdir" and s.isdir(op.dir) and not s.listdir(op.dir):
        s.rmdir(op.dir)
    elif kind == "mvdir":
        parent = op.dir2.rsplit("/", 1)[0]
        if (s.isdir(op.dir) and not s.exists(op.dir2) and s.isdir(parent)
                and not parent.startswith(op.dir)):
            s.rename(op.dir, op.dir2)
    elif kind == "smkdir" and s.isdir(op.src) \
            and not s.exists(f"{op.src}/q"):
        s.smkdir(f"{op.src}/q", op.query)
    elif kind == "stat":
        return ("file", s.read_file(src)) if s.isfile(src) \
            else ("nofile", s.exists(src))
    elif kind == "listdir":
        return sorted(s.listdir(op.src)) if s.isdir(op.src) else None
    elif kind in ("strong", "snapshot"):
        return s.glimpse(op.query, consistency=kind)
    elif kind == "ssync":
        hac.clock.tick()
        s.ssync("/")
    elif kind == "ssync_async":
        hac.maintenance.request_sync(root) or hac.ssync(root)
    elif kind == "drain":
        hac.maintenance.drain(tenant=op.actor)
    elif kind == "publish":
        hac.maintenance.publish()
    elif kind == "reindex":
        hac.reindex(root)
    return None


def raw_answers(surface) -> dict:
    """Doc-id answers of a live engine or a snapshot view, as bytes."""
    return {q: surface.search(parse_query(q)).to_bytes() for q in QUERIES}


def engine_state(hac: HacFileSystem) -> dict:
    # docs by doc id — which reservation pins — plus path and mtime
    eng = hac.engine
    assert_paths_column(eng)
    return {
        "next_doc_id": eng._next_doc_id,
        "all_docs": eng.all_docs().to_bytes(),
        "mtimes": {eng.doc_id_of(k): m
                   for k, m in eng.mtime_snapshot().items()},
        "docs": sorted((i, eng.doc_by_id(i).path, eng.doc_by_id(i).mtime)
                       for i in eng.all_docs()),
    }


def _outcome(fn):
    try:
        return fn()
    except VfsError as exc:
        return type(exc)


def disagreements(hac: HacFileSystem) -> list:
    """Every pooled path under every surface's root, and follow mode, for
    which ``resolve()`` (map first) and a fresh ``_walk()`` of the same
    tree do not reach the same node or raise the same error."""
    fs = hac.fs
    roots = [""] + [hac.tenants.get(n).root for n in hac.tenants.names()]
    found = []
    for path in (root + p for root in roots for p in POOL):
        for follow in (True, False):
            res = _outcome(lambda: fs.resolve(path, follow=follow))
            mapped = res if isinstance(res, type) else (res.fs, res.node)
            walked = _outcome(lambda: fs._walk(path, follow_last=follow)[:2])
            if mapped != walked:
                found.append((path, follow))
    return found


def sweep_steps(hac: HacFileSystem) -> tuple:
    """Components walked by a warmed sweep of the pool through
    ``resolve()``, and by walking the same pool."""
    counters = hac.counters
    for path in POOL:
        hac.exists(path)
    steps0 = counters.get("vfs.walk_steps")
    for path in POOL:
        hac.exists(path)
    mapped = counters.get("vfs.walk_steps") - steps0
    for path in POOL:
        _outcome(lambda: hac.fs._walk(path, follow_last=True))
    return mapped, counters.get("vfs.walk_steps") - steps0 - mapped


def assert_ledgers(hac: HacFileSystem, where) -> None:
    """The quota ledger is a measurement of the tree."""
    for name in hac.tenants.names():
        tenant = hac.tenants.get(name)
        assert tenant.usage() == recompute_usage(hac.fs, tenant.root), \
            (where, name)


class Serving:
    """(b): what each snapshot version of *subject* published, pinned to
    the *eager* twin's answers whenever a drain produced it."""

    def __init__(self, subject, eager):
        self.subject, self.eager = subject, eager
        self.published = {}

    def sample(self, where) -> dict:
        """Record a new version's answers; a version published with no
        work pending must equal eager's *now* (a forced publish with work
        pending republishes the older, last-drained state)."""
        eager_now = raw_answers(self.eager.engine)
        version = self.subject.engine.snapshot_info()["version"]
        if version not in self.published:
            self.published[version] = raw_answers(self.subject.engine)
            if self.subject.maintenance.pending == 0:
                assert self.published[version] == eager_now, where
        return eager_now

    def read(self) -> tuple:
        """A snapshot read: its version, its raw answers and the drains
        it made."""
        hac = self.subject
        drains = hac.counters.get("sched.drains")
        view = hac.engine.snapshot_view()
        assert_paths_column(view)
        return (view.version, raw_answers(view),
                hac.counters.get("sched.drains") - drains)

    def check_read(self, where) -> None:
        """A snapshot read reproduces its version's published answers,
        bit for bit, and drains nothing."""
        version, answers, drains = self.read()
        assert version in self.published, (where, version)
        assert answers == self.published[version], where
        assert drains == 0, where


def lockstep(subject, twins, ops, serving=None, where=()) -> None:
    """Run *ops* on *subject* and on every twin hosting the op's actor.
    *twins* are ``(world, actors hosted, snapshot reads comparable)``."""
    for step, op in enumerate(ops):
        at = where + (step, op)
        ours = apply(subject, op)
        for twin, hosted, snapshots in twins:
            if op.actor in hosted:
                theirs = apply(twin, op)
                if op.kind != "snapshot" or snapshots:
                    assert ours == theirs, (at, theirs)
        for hac in [subject] + [twin for twin, _h, _s in twins]:
            assert_ledgers(hac, at)
        assert_segments_are_derived(subject, at)
        assert disagreements(subject) == [], at
        if serving is not None:
            serving.sample(at)
            if op.kind in ("snapshot", "drain", "publish", "reindex"):
                serving.check_read(at)
        if (step + 1) % WINDOW == 0:
            assert_is_derived(subject, at)
    assert_is_derived(subject, where)


def observe(hac: HacFileSystem) -> dict:
    """What the end-of-run checks compare between a world and its twin."""
    return {"state": engine_state(hac), "answers": raw_answers(hac.engine),
            "obj": serialization.dumps(hac.engine.to_obj()),
            "links": hac.links("/fp"), "digest": digest(hac, QUERIES)}


Settled = namedtuple("Settled", "published final counts seen")


@functools.cache
def settled(seed: int, k: int) -> Settled:
    """The lockstep run of ``script(seed, 100)`` on the batched world
    (monolith or K shards) and its eager and op-log twins — strong answers
    equal to both twins', (b)–(d) checked after every step — settled by
    one barrier more.  The suites that read it (a: scheduler, b: snapshot,
    c: segment, d: path-map equivalence) each compare one facet of this one
    run, so it is memoized per (seed, K), and every read they compare is
    made here, once, in one order — digests drain and glimpse, sweeps warm
    the map — so no suite sees another's reads: *counts* is each world's
    counters (subject, eager, op-log) as the run left them, *seen* what
    :func:`observe` read of each, the subject's also holding its final
    snapshot read, replica lag, map-vs-walk disagreements and warmed
    sweep."""
    worlds = subject, eager, oplog = (world(k), world(k, mode="eager"),
                                      world(k, segmented=False))
    serving = Serving(subject, eager)
    serving.sample("baseline")
    lockstep(subject, [(eager, {None}, False), (oplog, {None}, True)],
             script(seed, 100), serving, (seed, k))
    for hac in (subject, oplog):
        hac.maintenance.barrier()
    final = serving.sample("final")
    counts = [hac.counters.snapshot() for hac in worlds]
    read, lag = serving.read(), subject.maintenance.status()["replica_lag"]
    seen = [observe(hac) for hac in worlds]
    seen[0].update(read=read, lag=lag, disagreements=disagreements(subject),
                   sweep=sweep_steps(subject))
    return Settled(serving.published, final, counts, seen)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("seed", SEEDS)
def test_tenants_match_solo_twins(seed, k):
    """(e): alpha, beta and the host's noise interleave over one world;
    each tenant's observations match a world that hosts it alone."""
    shared = world(k, actors=("alpha", "beta", None))
    solos = {name: world(actors=(name,)) for name in ("alpha", "beta")}
    lockstep(shared, [(solo, {name}, False) for name, solo in solos.items()],
             script(0x7E4A + seed, 100, ("alpha", "alpha", "beta", None)),
             where=(seed, k))
    for name, solo in solos.items():
        assert digest(shared.tenants.get(name), QUERIES) == \
            digest(solo.tenants.get(name), QUERIES), name


def crash_and_recover(site: str, k: int, seed: int) -> None:
    """Crash the segmented twin and the op-log one mid-drain or
    mid-``smkdir``, restore both, and require one digest, derived
    segments, map and graph, a map that agrees with the walk — recovery's
    tree undo goes through the same invalidating fs operations — and
    twins that stay in lockstep after it.  A drain that touches no record
    writes only its begin and its commit, so the third seed's crash lands
    in the ``ssync`` after it."""
    revived = []
    twins = (world(k), world(k, segmented=False))
    for op in script(seed, 40):
        for hac in twins:
            apply(hac, op)
    for hac, segmented in zip(twins, (True, False)):
        for path in POOL:            # warm the map before the crash
            hac.exists(path)
        hac.clock.tick()
        if site == "drain":
            hac.write_file("/t/crashy.txt", b"fingerprint at the scene\n")
            hac.write_file("/t/seed.txt", b"ridge rewritten baseline\n")
        dev = hac.fs.device
        dev.set_fault_plan(FaultPlan(
            crash_at=dev.record_write_index + seed % 3
            + (2 if site == "smkdir" else 0)))
        with pytest.raises(DeviceCrashed):
            if site == "drain":
                hac.maintenance.drain()
            else:
                hac.smkdir("/ridge", "ridge")
            hac.ssync("/")
        back = HacFileSystem.restore(hac.fs, backend=backend(k, segmented))
        assert [f for f in back.fsck() if f.severity == "error"] == []
        assert_segments_are_derived(back, (seed, site))
        assert disagreements(back) == [], (seed, site)
        revived.append(back)
    assert digest(revived[0], QUERIES) == digest(revived[1], QUERIES)
    lockstep(revived[0], [(revived[1], {None}, True)],
             script(seed + 100, 40), where=(seed, site, "revived"))


def test_mode_change_strands_nothing():
    """Leaving batched mode drains the queue — no update may be lost."""
    hac = world()
    hac.write_file("/t/m0.txt", b"solitary fingerprint clue\n")
    assert hac.maintenance.pending > 0
    hac.maintenance.set_mode("eager")
    assert hac.maintenance.pending == 0
    assert hac.glimpse("clue") == ["/t/m0.txt"]


def test_forced_publish_is_not_a_barrier():
    """A forced publish advances the version without draining: pending
    dirty docs stay pending and stay invisible to snapshot readers."""
    hac = world()
    hac.engine.snapshot_view()  # attach replicas first
    assert hac.glimpse("baseline", consistency="snapshot") == ["/t/seed.txt"]
    before = hac.engine.snapshot_info()["version"]

    hac.write_file("/t/m0.txt", b"solitary fingerprint clue\n")
    pending = hac.maintenance.pending
    assert pending > 0
    drains = hac.counters.get("sched.drains")

    assert hac.maintenance.publish() > before
    assert hac.maintenance.pending == pending
    assert hac.counters.get("sched.drains") == drains
    assert hac.glimpse("clue", consistency="snapshot") == []

    hac.maintenance.drain()
    assert hac.glimpse("clue", consistency="snapshot") != []


@pytest.mark.parametrize("k", KS)
def test_neighbour_churn_never_leaks_into_query_answers(k):
    """Beta issues only queries while alpha churns hard; every answer
    beta sees equals the answer from a world where alpha never was."""
    shared = world(k, actors=("alpha", "beta"))
    solo = world(actors=("beta",))
    beta = shared.tenants.get("beta"), solo.tenants.get("beta")
    for t in beta:
        t.smkdir("/hits", "fingerprint")
        for i in range(4):
            t.write_file(f"/doc{i}.txt", b"fingerprint ridge %d minutiae" % i)
        t.barrier()
    for step, op in enumerate(script(0xBEEF + SEED, 30, ("alpha",))):
        apply(shared, op)
        assert beta[0].glimpse(op.query) == beta[1].glimpse(op.query), \
            (step, op)
    assert sorted(beta[0].links("/hits")) == sorted(beta[1].links("/hits"))
    assert digest(beta[0], QUERIES) == digest(beta[1], QUERIES)

"""The four workloads and the op classes every one of them runs.

A workload builds one HAC world through the public surface only
(``HacFileSystem(backend=...)``, ``hac.tenants.create``, the ``Tenant``
facade, ``hac.save_index``, ``HacFileSystem.restore``), mirrors every
mutation into an :class:`~e2e.oracle.Oracle`, and then serves *class
rounds*: one call runs one op class once and returns its timed samples.
The op classes are the same code for every workload; what differs is the
world (generator, tree shape, semantic directories, back-end, tenants) and
the workload's own op mix.

Timing rules (README, "Measurement rules"): an op faster than 50 us is
timed as a batch under one ``perf_counter`` pair; everything a sample needs
(payload bytes, paths, markers) is prepared before the timer starts and
every oracle check runs after it stops.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.hacfs import HacFileSystem
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig
from repro.workloads.coderepo import CodeRepoGenerator
from repro.workloads.digilib import DigitalLibraryGenerator, ZipfSampler
from repro.workloads.mailgen import MailGenerator

from e2e.oracle import Oracle, Query, link_targets, tree_digest

pc = time.perf_counter

#: op classes in the order a round runs them (rule 2: round-robin)
CLASSES = ("mix", "path", "write_drain", "query", "snap", "fresh", "smkdir",
           "dirmove", "restore")

#: every CHECK_EVERY-th query of a stream is compared with the oracle
CHECK_EVERY = 20
#: calls in one path-op batch and how they split over the four calls
PATH_BATCH = {"stat": 400, "exists": 300, "listdir": 100, "read_file": 200}
#: files rewritten (round-robin) by write batches and fresh samples
HOT = 16
#: alternative texts kept per hot file
VARIANTS = 4
#: terms the Zipf query stream draws from (most frequent first)
VOCABULARY = 48
#: distinct pre-generated queries per stream
POOL = 2048
#: empty file whose rewrite gives ``settle`` something to drain
SCRATCH = "/.settle"


class Sizes(NamedTuple):
    """Samples per class round, sized per workload by measured time so a
    round of all classes fits the run budget (README, "Sizing")."""

    path_batches: int
    write_batches: int
    write_batch: int
    queries: int
    fresh: int
    smkdirs: int
    dirmove_pairs: int
    mix_ops: int


class Round(NamedTuple):
    """What one class round hands back to the driver."""

    samples: Dict[str, List[float]]      # metric sample set -> seconds
    attempted: int                       # facade calls issued
    timed_s: float                       # wall under the benchmark's timers
    extra: Dict[str, float] = {}


class Workload:
    """Shared world plumbing and the generic op classes."""

    name = ""
    backend = "monolith"
    #: tenant that writes and the one that reads (one tenant on monoliths)
    writer = "main"
    reader = "main"
    sizes: Sizes

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        #: the e2e.trace.Tracer of a traced run, else None
        self.tracer = tracer
        self.failed = 0
        self.failures: List[str] = []
        self.oracles: Dict[str, Oracle] = {}
        #: permanent semantic directories: (tenant, path, query, parent path)
        self.semdirs: List[Tuple[str, str, Query, Optional[str]]] = []
        self.hot: List[str] = []
        self.variants: Dict[str, List[str]] = {}
        self.scope_dirs: List[str] = ["/"]
        self.move_dir = ""
        self._marker = 0
        #: oracle work deferred while a mix is being timed
        self._log: Optional[list] = None

    # ------------------------------------------------------------------
    # world
    # ------------------------------------------------------------------

    def build(self) -> None:
        self.hac = HacFileSystem(backend=self.backend)
        self.hac.maintenance.set_mode("batched")
        self.tenants = {}
        for name in dict.fromkeys((self.writer, self.reader)):
            self.tenants[name] = self.hac.tenants.create(name)
            self.oracles[name] = Oracle()
        self.populate()
        self.put(self.writer, SCRATCH, "")
        self.settle()
        self.make_semdirs()
        self.settle()
        self._prepare_streams()
        engine = self.hac.engine
        self.index_ratio = engine.index_size_bytes() / engine.corpus_bytes()

    def populate(self) -> None:
        raise NotImplementedError

    def make_semdirs(self) -> None:
        pass

    def variant(self, path: str, k: int) -> str:
        raise NotImplementedError

    def mix(self, rnd: int, ops: int) -> Tuple[int, int]:
        """Run the workload's own op mix; returns (facade calls, user
        bytes written)."""
        raise NotImplementedError

    def rng(self, *what) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, self.name) + what)))

    def put(self, tname: str, path: str, text: str) -> int:
        data = text.encode("utf-8")
        self.tenants[tname].write_file(path, data)
        self.mirror("put", tname, path, text)
        return len(data)

    def mirror(self, *op) -> None:
        """Apply a mutation (or a ``check``) to the oracle — at once, or,
        inside a timed mix, after its timer stops, in the order issued."""
        if self._log is not None:
            self._log.append(op)
            return
        kind, tname = op[0], op[1]
        if kind == "check":
            query, got = op[2], op[3]
            self.expect(got == self.oracles[tname].answer(query),
                        f"mix glimpse({query.text()!r}) differs from "
                        "the oracle")
        else:
            getattr(self.oracles[tname], kind)(*op[2:])

    def add_semdir(self, tname: str, path: str, query: Query,
                   parent: Optional[str] = None) -> None:
        tenant = self.tenants[tname]
        tenant.smkdir(path, query.text(tenant.root))
        self.semdirs.append((tname, path, query, parent))

    def settle(self, reset_budget: bool = False) -> None:
        """Drain everything pending.  Only a full drain that applies
        something resets the scheduler's op budget (256 events), so with
        *reset_budget* one scratch write makes sure it does: the batch of
        fewer than 256 writes that follows is then enqueue-only."""
        if reset_budget and not self.hac.maintenance.pending:
            self.put(self.writer, SCRATCH, "")
        self.hac.maintenance.drain()

    def expected_links(self, tname: str, path: str) -> List[str]:
        """Targets the oracle expects in permanent semantic dir *path*."""
        for owner, spath, query, parent in self.semdirs:
            if owner == tname and spath == path:
                within = None if parent is None \
                    else self.expected_links(tname, parent)
                return self.oracles[tname].answer(query, within)
        raise KeyError(path)

    def _prepare_streams(self) -> None:
        reader = self.oracles[self.reader]
        vocab = reader.vocabulary()[:VOCABULARY]
        zipf = ZipfSampler(len(vocab), s=1.1)
        # the *ranks* drawn are the workload's, the same for every seed;
        # which term sits at a rank is the seed's corpus.  Every seed then
        # asks the same mix of frequent and rare terms.
        rng = random.Random(f"{self.name}:queries")
        self.queries: List[Query] = []
        for i in range(POOL):
            first = vocab[zipf.draw(rng)]
            kind = i % 6
            if kind in (1, 4):                      # a third: two-term AND
                second = vocab[zipf.draw(rng)]
                must = (first,) if second == first else (first, second)
                self.queries.append(Query(must=must))
            elif kind == 5:                         # a sixth: scoped
                self.queries.append(Query(
                    must=(first,), scope=rng.choice(self.scope_dirs)))
            else:
                self.queries.append(Query(must=(first,)))
        self.sem_pool = self.semdir_pool(vocab)
        writer = self.oracles[self.writer]
        for path in self.hot:
            assert path in writer, path
            self.variants[path] = [self.variant(path, k)
                                   for k in range(VARIANTS)]

    def semdir_pool(self, vocab: List[str]) -> List[Query]:
        """Queries the ``smkdir`` class creates directories for: the eight
        terms found in closest to an eighth of the reader's documents,
        alone or narrowed by a frequent term and a subdirectory.  Every
        seed then creates directories of about the same sizes, and the
        p50 over them is not a lottery between 3 links and 300."""
        oracle = self.oracles[self.reader]
        target = len(oracle) / 8
        terms = sorted(oracle.vocabulary(), key=lambda t: (
            abs(oracle.frequency(t) - target), t))[:8]
        return [Query(must=(terms[i % 8],)) if i % 3 else
                Query(must=(terms[i % 8], vocab[i % 4]),
                      scope=self.scope_dirs[i % len(self.scope_dirs)])
                for i in range(64)]

    # ------------------------------------------------------------------
    # timers and failure accounting
    # ------------------------------------------------------------------

    def start(self) -> float:
        """Start a timer; a traced run records spans only under timers."""
        if self.tracer is not None:
            self.tracer.on = True
        return pc()

    def stop(self) -> float:
        now = pc()
        if self.tracer is not None:
            self.tracer.on = False
        return now

    def device_bytes(self) -> float:
        """Bytes the device has been asked to write so far, in whole
        blocks: file data, journal, metadata and index records alike."""
        return self.hac.counters.get("blockdev.write_blocks") \
            * self.hac.fs.device.block_size

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    # ------------------------------------------------------------------
    # the op classes
    # ------------------------------------------------------------------

    def run_class(self, cls: str, rnd: int, scale: float = 1.0) -> Round:
        """One class round.  An exception anywhere in it counts as one
        failed operation and yields no samples."""
        try:
            return getattr(self, "do_" + cls)(rnd, scale)
        except Exception as exc:                      # boundary: keep going
            self.fail(f"{cls} round {rnd}: {type(exc).__name__}: {exc}")
            return Round({}, 1, 0.0)

    @staticmethod
    def _n(count: int, scale: float) -> int:
        return max(1, round(count * scale))

    def do_mix(self, rnd: int, scale: float) -> Round:
        self.settle()
        ops = self._n(self.sizes.mix_ops, scale)
        dev0 = self.device_bytes()
        self._log = []
        try:
            t0 = self.start()
            calls, user_bytes = self.mix(rnd, ops)
            wall = self.stop() - t0
        finally:
            log, self._log = self._log, None
        for op in log:
            self.mirror(*op)
        return Round({"mix": [wall / calls]}, calls, wall,
                     {"user_bytes": user_bytes,
                      "dev_bytes": self.device_bytes() - dev0})

    def do_path(self, rnd: int, scale: float) -> Round:
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        paths = oracle.paths()
        dirs = sorted({p.rsplit("/", 1)[0] or "/" for p in paths})
        rng = self.rng("path", rnd)
        stat, exists, listdir, read_file = (tenant.stat, tenant.exists,
                                            tenant.listdir, tenant.read_file)
        samples = []
        batches = self._n(self.sizes.path_batches, scale)
        batch = sum(PATH_BATCH.values())
        for _b in range(batches):
            to_stat = rng.choices(paths, k=PATH_BATCH["stat"])
            to_test = rng.choices(paths, k=PATH_BATCH["exists"])
            to_list = [dirs[j % len(dirs)]
                       for j in range(PATH_BATCH["listdir"])]
            to_read = rng.choices(paths, k=PATH_BATCH["read_file"])
            want = sum(oracle.size(p) for p in to_read) \
                + sum(oracle.size(p) for p in to_stat)
            got = 0
            found = 0
            t0 = self.start()
            for p in to_stat:
                got += stat(p).size
            for p in to_test:
                found += exists(p)
            for d in to_list:
                listdir(d)
            for p in to_read:
                got += len(read_file(p))
            wall = self.stop() - t0
            samples.append(wall / batch)
            self.expect(got == want and found == len(to_test),
                        f"path batch: {got} bytes for {want}, "
                        f"{found}/{len(to_test)} exist")
        return Round({"path": samples}, batches * batch,
                     sum(samples) * batch)

    def do_write_drain(self, rnd: int, scale: float) -> Round:
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        write = tenant.write_file
        writes, drains = [], []
        timed = user_bytes = dev_bytes = 0.0
        batches = self._n(self.sizes.write_batches, scale)
        size = self.sizes.write_batch
        for b in range(batches):
            self.settle(reset_budget=True)
            plan = []
            for i in range(size):
                path = self.hot[i % HOT]
                text = self.variants[path][(rnd + b + i // HOT) % VARIANTS]
                plan.append((path, text, text.encode("utf-8")))
            dev0 = self.device_bytes()
            t0 = self.start()
            for path, _text, data in plan:
                write(path, data)
            t1 = pc()
            drained = tenant.barrier()
            t2 = self.stop()
            dev_bytes += self.device_bytes() - dev0
            user_bytes += sum(len(data) for _p, _t, data in plan)
            for path, text, _data in plan[-HOT:]:
                oracle.put(path, text)
            writes.append((t1 - t0) / size)
            timed += t2 - t0
            self.expect(drained == min(HOT, size),
                        f"barrier drained {drained} docs, not {HOT}")
            if drained:
                drains.append((t2 - t1) / drained)
        return Round({"write": writes, "drain": drains},
                     batches * (size + 1), timed,
                     {"user_bytes": user_bytes, "dev_bytes": dev_bytes})

    def _query_stream(self, rnd: int, scale: float, consistency: str) -> Round:
        self.settle()
        tenant = self.tenants[self.reader]
        oracle = self.oracles[self.reader]
        glimpse = tenant.glimpse
        n = self._n(self.sizes.queries, scale)
        start = (rnd * 7919 + (0 if consistency == "strong" else 997)) % POOL
        samples = []
        for i in range(n):
            query = self.queries[(start + i) % POOL]
            text = query.text()
            t0 = self.start()
            got = glimpse(text, scope_path=query.scope,
                          consistency=consistency)
            samples.append(self.stop() - t0)
            if i % CHECK_EVERY == 0:
                self.expect(got == oracle.answer(query),
                            f"{consistency} glimpse({text!r}, "
                            f"{query.scope!r}) differs from the oracle")
        key = "query" if consistency == "strong" else "snap"
        return Round({key: samples}, n, sum(samples))

    def do_query(self, rnd: int, scale: float) -> Round:
        return self._query_stream(rnd, scale, "strong")

    def do_snap(self, rnd: int, scale: float) -> Round:
        return self._query_stream(rnd, scale, "snapshot")

    def do_fresh(self, rnd: int, scale: float) -> Round:
        self.settle()
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        n = self._n(self.sizes.fresh, scale)
        samples = []
        user_bytes = 0
        dev0 = self.device_bytes()
        for i in range(n):
            path = self.hot[(rnd + i) % HOT]
            self._marker += 1
            marker = f"zq{self.seed}m{self._marker}"
            text = self.variants[path][i % VARIANTS] + f"{marker}\n"
            data = text.encode("utf-8")
            t0 = self.start()
            tenant.write_file(path, data)
            got = tenant.glimpse(marker)
            samples.append(self.stop() - t0)
            user_bytes += len(data)
            oracle.put(path, text)
            self.expect(got == [path],
                        f"read-your-write: glimpse({marker}) -> {got}")
        return Round({"fresh": samples}, 2 * n, sum(samples),
                     {"user_bytes": user_bytes,
                      "dev_bytes": self.device_bytes() - dev0})

    def do_smkdir(self, rnd: int, scale: float) -> Round:
        self.settle()
        tenant = self.tenants[self.reader]
        oracle = self.oracles[self.reader]
        n = self._n(self.sizes.smkdirs, scale)
        samples = []
        for i in range(n):
            query = self.sem_pool[(rnd * 13 + i) % len(self.sem_pool)]
            text = query.text(tenant.root)
            path = f"/bench_sem{i}"
            t0 = self.start()
            tenant.smkdir(path, text)
            samples.append(self.stop() - t0)
            self.expect(link_targets(tenant, path) == oracle.answer(query),
                        f"smkdir({text!r}) links differ from the oracle")
            tenant.set_query(path, None)
            tenant.rmdir(path)
        return Round({"smkdir": samples}, n, sum(samples))

    def do_dirmove(self, rnd: int, scale: float) -> Round:
        self.settle()
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        here, there = self.move_dir, self.move_dir + "_mv"
        samples = []
        for _i in range(self._n(self.sizes.dirmove_pairs, scale)):
            for old, new in ((here, there), (there, here)):
                t0 = self.start()
                tenant.rename(old, new)
                tenant.barrier()
                samples.append(self.stop() - t0)
                oracle.rename_prefix(old, new)
        self._check_semdirs("dirmove")
        return Round({"dirmove": samples}, 2 * len(samples), sum(samples))

    def do_restore(self, rnd: int, scale: float) -> Round:
        self.settle()
        self.hac.save_index()
        before = {name: tree_digest(t) for name, t in self.tenants.items()}
        query = self.queries[(rnd * 31) % POOL]
        old = self.hac
        t0 = self.start()
        hac = HacFileSystem.restore(old.fs, clock=old.clock,
                                    counters=old.counters,
                                    backend=self.backend)
        got = hac.tenants.get(self.reader).glimpse(
            query.text(), scope_path=query.scope)
        wall = self.stop() - t0
        # the reopened instance is the world from here on, as after a reboot
        self.hac = hac
        hac.maintenance.set_mode("batched")
        self.tenants = {name: hac.tenants.get(name) for name in self.tenants}
        del old                 # so the collection below can reclaim it
        self.expect(got == self.oracles[self.reader].answer(query),
                    "first query after restore differs from the oracle")
        after = {name: tree_digest(t) for name, t in self.tenants.items()}
        self.expect(after == before, "tree/link digest changed over restore")
        self._check_semdirs("restore")
        # restore empties the path map; refill it and park the new world
        # in the permanent generation, outside any timer
        tenant = self.tenants[self.writer]
        for path in self.oracles[self.writer].paths():
            tenant.stat(path)
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        return Round({"restore": [wall]}, 2, wall)

    def _check_semdirs(self, when: str) -> None:
        for tname, path, _query, _parent in self.semdirs:
            self.expect(
                link_targets(self.tenants[tname], path)
                == self.expected_links(tname, path),
                f"links of {tname}:{path} differ from the oracle "
                f"after {when}")

    # -- helpers for the mixes ------------------------------------------------

    def mix_query(self, i: int, rnd: int, snapshot: bool = False) -> None:
        """One read of the mix: a stream query, strong ones checked at the
        same 1-in-CHECK_EVERY rate as the query classes."""
        query = self.queries[(rnd * 4231 + i) % POOL]
        tenant = self.tenants[self.reader]
        got = tenant.glimpse(query.text(), scope_path=query.scope,
                             consistency="snapshot" if snapshot else "strong")
        if not snapshot and i % CHECK_EVERY == 0:
            self.mirror("check", self.reader, query, got)


# ======================================================================
# andrew_path
# ======================================================================

class _CountingTarget:
    """The Andrew driver's target: the tenant facade, counting calls and
    the bytes it is asked to write."""

    def __init__(self, tenant):
        self.tenant = tenant
        self.calls = 0
        self.bytes = 0

    def mkdir(self, path):
        self.calls += 1
        return self.tenant.mkdir(path)

    def write_file(self, path, data):
        self.calls += 1
        self.bytes += len(data)
        return self.tenant.write_file(path, data)

    def read_file(self, path):
        self.calls += 1
        return self.tenant.read_file(path)

    def stat(self, path):
        self.calls += 1
        return self.tenant.stat(path)

    def listdir(self, path):
        self.calls += 1
        return self.tenant.listdir(path)

    def open(self, path, mode="r"):
        self.calls += 1
        return self.tenant.open(path, mode)

    def read(self, fd, size=-1):
        self.calls += 1
        return self.tenant.read(fd, size)

    def close(self, fd):
        self.calls += 1
        return self.tenant.close(fd)


class AndrewPath(Workload):
    """The paper's Andrew phases through one tenant, no semantic dirs."""

    name = "andrew_path"
    sizes = Sizes(path_batches=12, write_batches=4, write_batch=192,
                  queries=200, fresh=32, smkdirs=12, dirmove_pairs=6,
                  mix_ops=1)
    #: (dirs, files per dir) of the static tree and of the tree each mix
    #: round copies, scans, reads, compiles and removes
    BULK = (8, 40)
    MIX = (5, 8)
    CHAIN = 48

    def populate(self) -> None:
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        self.sources: Dict[str, str] = {}
        for (dirs, files), root in ((self.BULK, "/bulk"),
                                    (self.MIX, "/andrew/src")):
            config = AndrewConfig(dirs=dirs, files_per_dir=files,
                                  functions_per_file=5,
                                  seed=self.seed * 31 + dirs)
            bench = AndrewBenchmark(tenant, config, src_root=root,
                                    dst_root="/andrew/dst")
            bench.install_sources()
            for rel, text in bench.source.items():
                oracle.put(f"{root}/{rel}", text)
                self.sources[f"{root}/{rel}"] = text
        self.andrew = bench
        deep = ""
        for level in range(self.CHAIN):
            deep += f"/d{level:02d}"
            tenant.mkdir(deep)
        self.put(self.writer, deep + "/leaf.c", "int deep_leaf(void);\n")
        bulk = [p for p in oracle.paths() if p.startswith("/bulk/")]
        self.hot = bulk[3::len(bulk) // HOT][:HOT]
        self.scope_dirs = ["/bulk/module00", "/bulk/module03", "/andrew"]
        self.move_dir = "/bulk/module01"

    def variant(self, path: str, k: int) -> str:
        return self.sources[path] \
            + f"\n/* revision {k} */ int patch_{k}(int a);\n"

    def mix(self, rnd: int, ops: int) -> Tuple[int, int]:
        target = _CountingTarget(self.tenants[self.writer])
        bench = self.andrew
        bench.target = target
        for _ in range(ops):
            bench.phase_makedir()
            bench.phase_copy()
            bench.phase_scan()
            bench.phase_read()
            bench.phase_make()
            self._clean(target, bench.dst_root)
        return target.calls, target.bytes

    def _clean(self, target: _CountingTarget, top: str) -> None:
        """``make clean``: remove the destination tree, files first."""
        tenant = target.tenant
        dirs = [top]
        for cur in dirs:
            for name in tenant.listdir(cur):
                path = f"{cur}/{name}"
                target.calls += 2
                if tenant.isdir(path):
                    dirs.append(path)
                else:
                    tenant.unlink(path)
        for cur in reversed(dirs):
            target.calls += 1
            tenant.rmdir(cur)


# ======================================================================
# library_query
# ======================================================================

class LibraryQuery(Workload):
    """Bulk ingest into a flat directory, then a 95 % read mix."""

    name = "library_query"
    sizes = Sizes(path_batches=6, write_batches=2, write_batch=192,
                  queries=120, fresh=6, smkdirs=6, dirmove_pairs=1,
                  mix_ops=100)
    DOCS = 1200
    WAVE = 250

    def populate(self) -> None:
        self.gen = DigitalLibraryGenerator(seed=self.seed)
        tenant = self.tenants[self.writer]
        oracle = self.oracles[self.writer]
        for path in self.gen.ingest(tenant, count=self.DOCS, batch=self.WAVE):
            oracle.put(path, self.gen.render(int(path[-8:-4])))
        tenant.makedirs("/annex")
        for index in range(self.DOCS, self.DOCS + self.DOCS // 7):
            self.put(self.writer, f"/annex/vol{index:04d}.txt",
                     self.gen.render(index))
        stacks = [p for p in oracle.paths() if p.startswith("/stacks/")]
        self.hot = stacks[5::len(stacks) // HOT][:HOT]
        self.scope_dirs = ["/stacks", "/annex"]
        self.move_dir = "/annex"

    def make_semdirs(self) -> None:
        self.add_semdir(self.reader, "/shelf_fingerprint", Query(
            must=("fingerprint",), must_not=("survey",)))
        self.add_semdir(self.reader, "/shelf_caching", Query(
            must=("caching",), must_not=("latency", "corpus")))

    def variant(self, path: str, k: int) -> str:
        return self.gen.render(10_000 + k * 1000 + int(path[-8:-4]))

    def mix(self, rnd: int, ops: int) -> Tuple[int, int]:
        rng = self.rng("mix", rnd)
        written = 0
        for i in range(ops):
            if i % 20 == 10:                    # 5 % writes
                path = self.hot[rng.randrange(HOT)]
                text = self.variants[path][rng.randrange(VARIANTS)]
                written += self.put(self.writer, path, text)
            else:                               # a third of reads: snapshot
                self.mix_query(i, rnd, snapshot=i % 3 == 2)
        return ops, written


# ======================================================================
# repo_churn
# ======================================================================

class RepoChurn(Workload):
    """A source tree under edit/rename/delete churn with ten semantic
    directories watching it (one nested, two ``scope:``-restricted).

    File *contents* come from :class:`CodeRepoGenerator` and change with
    the seed; the *shape* does not: slot ``s`` always lives in module
    ``s % 5`` and always carries the same trailer line (owner team, review
    status, tier), and the semantic directories select on those tags, so
    every seed has the same number of files per module and links per
    directory and the cascade does the same amount of work.
    """

    name = "repo_churn"
    sizes = Sizes(path_batches=6, write_batches=2, write_batch=192,
                  queries=160, fresh=4, smkdirs=8, dirmove_pairs=2,
                  mix_ops=18)
    FILES = 120
    MODULES = ("core", "vfs", "index", "shell", "util")
    STEMS = ("matcher", "parser", "walker", "buffer", "codec", "router")
    STATUS = ("draft", "review", "stable", "frozen")
    #: six edits, two renames, one delete+create per nine steps
    PATTERN = "eereedeer"
    STORM = 2               # round trips of the hot-prefix rename storm

    def text_of(self, slot: int, index: int, revision: int = 0) -> str:
        return self.gen.render(index, revision) + (
            f"# owner team{slot % 6} status {self.STATUS[slot % 4]} "
            f"tier{slot % 10}\n")

    def path_of(self, slot: int, generation: int = 0) -> str:
        stem = self.STEMS[slot // 5 % 6]
        suffix = f"_g{generation}" if generation else ""
        return f"/src/{self.MODULES[slot % 5]}/{stem}{slot:03d}{suffix}.py"

    def populate(self) -> None:
        self.gen = CodeRepoGenerator(seed=self.seed)
        tenant = self.tenants[self.writer]
        for module in self.MODULES:
            tenant.makedirs(f"/src/{module}")
        #: live files, one per slot, as [path, generator index]
        self.files = []
        for slot in range(self.FILES):
            self.files.append([self.path_of(slot), slot])
            self.put(self.writer, self.path_of(slot),
                     self.text_of(slot, slot))
        self.next_index = self.FILES
        self.revision = 0
        self.hot = [path for path, _index in self.files[:HOT]]
        self.scope_dirs = [f"/src/{module}" for module in self.MODULES]
        self.move_dir = "/src/core"
        self.storm_dir = "/src/vfs"

    def make_semdirs(self) -> None:
        name = self.reader
        self.add_semdir(name, "/q_team0", Query(must=("team0",)))
        self.add_semdir(name, "/q_team1_stable", Query(
            must=("team1", "stable")))
        self.add_semdir(name, "/q_draft", Query(
            must=("draft",), must_not=("team2",)))
        self.add_semdir(name, "/q_frozen", Query(
            phrase=("status", "frozen")))
        self.add_semdir(name, "/q_team3_open", Query(
            must=("team3",), must_not=("review",)))
        self.add_semdir(name, "/q_tier7", Query(must=("tier7",)))
        self.add_semdir(name, "/q_team4_tiers", Query(
            must=("team4",), must_not=("tier0", "tier5")))
        self.add_semdir(name, "/q_core_review", Query(
            must=("review",), scope="/src/core"))
        self.add_semdir(name, "/q_vfs_stable", Query(
            must=("stable",), scope="/src/vfs"))
        self.add_semdir(name, "/q_team0/deep", Query(must=("stable",)),
                        parent="/q_team0")

    def variant(self, path: str, k: int) -> str:
        slot = self.hot.index(path)
        return self.text_of(slot, slot, revision=1000 + k)

    def semdir_pool(self, vocab: List[str]) -> List[Query]:
        # on the tags, like the permanent ones: 10, 5 or 2 links each
        pool = []
        for i in range(64):
            team, status = f"team{i % 6}", self.STATUS[i // 6 % 4]
            if i % 3 == 0:
                pool.append(Query(must=(team, status)))
            elif i % 3 == 1:
                pool.append(Query(must=(team,), must_not=(status,),
                                  scope=self.scope_dirs[i % 5]))
            else:
                pool.append(Query(must=(f"tier{i % 10}",)))
        return pool

    def mix(self, rnd: int, ops: int) -> Tuple[int, int]:
        tenant = self.tenants[self.writer]
        rng = self.rng("mix", rnd)
        cold = range(HOT, len(self.files))
        hot_quarter = len(self.files) // 4
        calls = written = 0
        for step in range(ops):
            op = self.PATTERN[step % len(self.PATTERN)]
            self.revision += 1
            if op == "e":
                slot = rng.randrange(hot_quarter)
                path, index = self.files[slot]
                written += self.put(self.writer, path, self.text_of(
                    slot, index, self.revision))
            elif op == "r":
                slot = rng.choice(cold)
                old = self.files[slot][0]
                new = self.path_of(slot, self.revision)
                tenant.rename(old, new)
                self.mirror("rename", self.writer, old, new)
                self.files[slot][0] = new
            else:
                slot = rng.choice(cold)
                tenant.unlink(self.files[slot][0])
                self.mirror("remove", self.writer, self.files[slot][0])
                self.files[slot] = [self.path_of(slot, self.revision),
                                    self.next_index]
                self.next_index += 1
                written += self.put(self.writer, self.files[slot][0],
                                    self.text_of(slot, self.files[slot][1]))
                calls += 1
            calls += 1
            if step % 9 == 8:
                self.mix_query(step // 9 * CHECK_EVERY, rnd)
                calls += 1
        # the hot-prefix rename storm: a directory hot files live in moves
        # away and back, every path under it rebased each time
        here, there = self.storm_dir, self.storm_dir + "_storm"
        for _trip in range(self.STORM):
            for old, new in ((here, there), (there, here)):
                tenant.rename(old, new)
                self.mirror("rename_prefix", self.writer, old, new)
                calls += 1
        tenant.barrier()
        return calls + 1, written

    def do_mix(self, rnd: int, scale: float) -> Round:
        result = super().do_mix(rnd, scale)
        self._check_semdirs("mix")
        return result


# ======================================================================
# mail_sync_k3
# ======================================================================

class MailSyncK3(Workload):
    """Two tenants on a three-shard cluster: ``alpha`` delivers mail and
    moves folders, ``beta`` keeps a ``fingerprint`` directory and reads."""

    name = "mail_sync_k3"
    backend = "cluster:3"
    writer = "alpha"
    reader = "beta"
    sizes = Sizes(path_batches=6, write_batches=3, write_batch=192,
                  queries=120, fresh=24, smkdirs=6, dirmove_pairs=3,
                  mix_ops=192)
    ALPHA = 480
    BETA = 400
    KEEP = 64               # delivered messages alpha keeps before expunging

    def populate(self) -> None:
        self.gen = MailGenerator(seed=self.seed)
        alpha = self.tenants["alpha"]
        for folder in ("/mail/inbox", "/mail/lists", "/mail/work",
                       "/mail/archive"):
            alpha.makedirs(folder)
        for index in range(self.ALPHA):
            folder = "lists" if index % 8 == 7 else \
                "work" if index % 8 == 3 and index < 160 else "inbox"
            self.put("alpha", f"/mail/{folder}/msg{index:04d}.txt",
                     self.gen.render(index))
        beta = self.tenants["beta"]
        beta.makedirs("/mail/inbox")
        beta.makedirs("/mail/archive")
        for index in range(self.BETA):
            folder = "archive" if index % 4 == 3 else "inbox"
            self.put("beta", f"/mail/{folder}/msg{index:04d}.txt",
                     self.gen.render(5000 + index))
        inbox = [p for p in self.oracles["alpha"].paths()
                 if p.startswith("/mail/inbox/")]
        self.hot = inbox[2::len(inbox) // HOT][:HOT]
        self.scope_dirs = ["/mail/inbox", "/mail/archive"]
        self.move_dir = "/mail/lists"
        self.work_at = "/mail/work"
        #: delivered messages, oldest first; alpha expunges past KEEP, so
        #: the mix alternates deliver and expunge from its first round on
        self.delivered: List[str] = []
        self.deliveries = 0
        while len(self.delivered) <= self.KEEP:
            self._deliver()

    def _deliver(self) -> int:
        self.deliveries += 1
        path = f"/mail/inbox/new{self.deliveries:06d}.txt"
        self.delivered.append(path)
        return self.put("alpha", path,
                        self.gen.render(30_000 + self.deliveries))

    def make_semdirs(self) -> None:
        self.add_semdir("beta", "/fingerprint", Query(must=("fingerprint",)))

    def variant(self, path: str, k: int) -> str:
        return self.gen.render(20_000 + k * 1000 + int(path[-8:-4]))

    def mix(self, rnd: int, ops: int) -> Tuple[int, int]:
        alpha = self.tenants["alpha"]
        written = 0
        for i in range(ops):
            if i % 4 == 3:                                  # beta reads
                self.mix_query(i // 4, rnd, snapshot=i // 4 % 3 == 2)
            elif i % 48 == 46:                              # alpha files mail
                new = "/mail/archive/work" \
                    if self.work_at == "/mail/work" else "/mail/work"
                alpha.rename(self.work_at, new)
                self.mirror("rename_prefix", "alpha", self.work_at, new)
                self.work_at = new
            elif len(self.delivered) > self.KEEP:           # alpha expunges
                path = self.delivered.pop(0)
                alpha.unlink(path)
                self.mirror("remove", "alpha", path)
            else:                                           # alpha delivers
                written += self._deliver()
        return ops, written


WORKLOADS = {cls.name: cls for cls in
             (AndrewPath, LibraryQuery, RepoChurn, MailSyncK3)}

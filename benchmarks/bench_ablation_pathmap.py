"""Ablation N — folding the tree into a map, and reindex-as-merge.

Two storage-plane claims from DESIGN.md §3i, measured on the same
corpus shapes the other ablations use:

* **Path map**: resolving a deep path by component walk
  (``FileSystem._walk``, the map's miss path and the reference here)
  costs one step per component; ``resolve()`` answers warmed resolutions
  with a single hash probe on the same tree.  Counted in
  ``vfs.walk_steps`` (deterministic), reported in wall seconds.
* **Segment plane**: recovery with persisted segments folds rows back
  into the index with zero tokenisation, while a rebuild re-reads and
  re-tokenises the whole corpus.  Counted in ``engine.tokenisations``.
  And publishing is not persisting: one-document drains write the same
  device records with a snapshot replica attached as without one, and
  no segment below the seal threshold.  Counted in ``blockdev.write_ops``
  and ``segments.seals`` / ``segments.compactions``.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

DEPTH = 8
FANOUT = 3
ROUNDS = 5
N_FILES = 400


def build_deep_fs():
    """A depth-8 tree with files at every level — the worst case for
    component-wise ``namei`` and the best for the map."""
    fs = FileSystem()
    leaves = []
    stack = [("", 0)]
    while stack:
        prefix, depth = stack.pop()
        if depth == DEPTH:
            continue
        for i in range(FANOUT if depth < 3 else 1):
            path = f"{prefix}/d{depth}_{i}"
            fs.mkdir(path)
            fpath = f"{path}/f.txt"
            fs.write_file(fpath, b"payload")
            leaves.append(fpath)
            stack.append((path, depth + 1))
    return fs, leaves


def resolve_workload(resolve, leaves):
    for _ in range(ROUNDS):
        for path in leaves:
            resolve(path)


@pytest.mark.benchmark(group="ablation-pathmap")
def test_map_vs_walk_resolution(benchmark, record_report):
    def run():
        out = {}
        fs, leaves = build_deep_fs()

        def walk(path):
            return fs._walk(path, follow_last=True)

        for label, resolve in (("walk", walk), ("map", fs.resolve)):
            resolve_workload(resolve, leaves)  # warm both the same way
            steps0 = fs.counters.get("vfs.walk_steps")
            hits0 = fs.counters.get("pathmap.hit")
            secs, _ = time_call(lambda: resolve_workload(resolve, leaves))
            out[label] = (secs,
                          fs.counters.get("vfs.walk_steps") - steps0,
                          fs.counters.get("pathmap.hit") - hits0,
                          len(leaves))
        assert all(fs.resolve(p).node is walk(p)[1] for p in leaves)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    (walk_s, walk_steps, _h, n_paths) = out["walk"]
    (map_s, map_steps, map_hits, _n) = out["map"]

    results = [
        BenchResult("paths resolved per round", n_paths),
        BenchResult("resolution rounds", ROUNDS),
        BenchResult("walk-only steps", walk_steps),
        BenchResult("path-map steps", map_steps),
        # a fully-warmed map walks zero steps; clamp the denominator so
        # the ratio stays a finite lower bound
        BenchResult("walk / map step ratio",
                    walk_steps / max(map_steps, 1)),
        BenchResult("path-map hits", map_hits),
        BenchResult("walk-only s", walk_s),
        BenchResult("path-map s", map_s),
    ]
    record_report(report("Ablation N: path resolution — component walk "
                         "vs folded map", results))

    # the contract: a warmed map resolves without re-walking — at least
    # 2x fewer steps than namei (in practice it is ~steps-per-path x)
    assert map_steps * 2 <= walk_steps, (
        f"path map shed too few walk steps: {map_steps} vs {walk_steps}")
    assert map_hits >= n_paths * ROUNDS, "warmed resolutions missed the map"


def build_corpus_world():
    gen = CorpusGenerator(CorpusConfig(n_files=N_FILES, words_per_file=120,
                                       dirs=12, seed=77))
    hac = HacFileSystem()
    gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/q", "data OR file")
    hac.reindex()  # seals + compacts: the segment list now covers /db
    return hac


@pytest.mark.benchmark(group="ablation-pathmap")
def test_segment_merge_vs_rebuild_recovery(benchmark, record_report):
    def run():
        merge_world = build_corpus_world()
        merge_s, merged = time_call(
            lambda: HacFileSystem.restore(merge_world.fs))
        merge_tok = merged.counters.get("engine.tokenisations")
        merge_docs = merged.counters.get("engine.restored_docs")

        rebuild_world = build_corpus_world()
        rebuild_s, rebuilt = time_call(
            lambda: HacFileSystem.restore(rebuild_world.fs,
                                          reuse_index=False))
        rebuild_tok = rebuilt.counters.get("engine.tokenisations")
        return merge_s, merge_tok, merge_docs, rebuild_s, rebuild_tok

    (merge_s, merge_tok, merge_docs, rebuild_s,
     rebuild_tok) = benchmark.pedantic(run, rounds=1, iterations=1,
                                       warmup_rounds=1)

    results = [
        BenchResult("corpus files", N_FILES),
        BenchResult("segment-merge restore s", merge_s),
        BenchResult("rebuild restore s", rebuild_s),
        BenchResult("tokenisations (segment merge)", merge_tok),
        BenchResult("tokenisations (rebuild)", rebuild_tok),
        BenchResult("docs folded from segments", merge_docs),
    ]
    record_report(report("Ablation N2: recovery — segment merge vs "
                         "rebuild", results))

    # reindex-as-merge: recovery folds persisted term sets back without
    # running the tokenizer; a rebuild re-tokenises every document
    assert merge_tok < rebuild_tok, (
        f"segment merge should out-tokenise a rebuild: "
        f"{merge_tok} vs {rebuild_tok}")
    assert merge_tok == 0, "segment restore ran the tokenizer"
    assert merge_docs >= N_FILES
    assert rebuild_tok >= N_FILES


DRAINS = 20
COUNTED = ("blockdev.write_ops", "segments.seals", "segments.compactions")


def drain_counts(with_replica: bool):
    """Deltas of :data:`COUNTED` over ``DRAINS`` one-document drains of
    distinct files, with or without a snapshot replica attached."""
    hac = HacFileSystem()
    hac.makedirs("/inbox")
    hac.write_file("/inbox/seed.txt", b"fingerprint baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/inbox")
    hac.maintenance.set_mode("batched")
    if with_replica:
        hac.engine.attach_replica()
    before = [hac.counters.get(name) for name in COUNTED]
    for i in range(DRAINS):
        hac.clock.tick()
        hac.write_file(f"/inbox/m{i}.txt", b"fingerprint lead %d\n" % i)
        hac.maintenance.drain()
    return {name: hac.counters.get(name) - was
            for name, was in zip(COUNTED, before)}


@pytest.mark.benchmark(group="ablation-pathmap")
def test_replica_does_not_change_what_drains_persist(benchmark,
                                                     record_report):
    plain, replicated = benchmark.pedantic(
        lambda: (drain_counts(False), drain_counts(True)),
        rounds=1, iterations=1)

    results = [BenchResult("one-document drains", DRAINS)]
    for name in COUNTED:
        results.append(BenchResult(f"{name} (no replica)", plain[name]))
        results.append(BenchResult(f"{name} (replica)", replicated[name]))
    record_report(report("Ablation N3: publishing is not persisting",
                         results))

    # a snapshot reader must not change what drains persist: no seal on
    # publish, so no segment record and no compaction below the threshold
    assert replicated == plain, (replicated, plain)
    assert plain["segments.seals"] == plain["segments.compactions"] == 0

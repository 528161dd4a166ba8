"""The paper's two wall-clock shapes: Table 1's phase ratios and Table 3's
indexing time overhead.

Every other bound the paper's tables and the ablations set is a count
(device ops, record bytes, counters) and is a tier-1 test under
``tests/paper/`` and ``tests/ablations/``.  These two cannot be restated
on counts: Andrew's device ops come out as makedir 1.00x and make 1.33x,
the inverse of the makedir > make shape the paper reports.  So they stay
timed, outside tier-1, and run as::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_wall_ratios.py

Both sides of each ratio run interleaved, the side that goes first
alternating, with the garbage collector off, and each side keeps its
median over the repetitions: a stretch of machine noise lands on both
sides alike, and one outlier run moves neither median.
"""

import gc
import statistics
from time import perf_counter

from repro.cba.engine import CBAEngine
from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig, PHASES, RawFsAdapter
from repro.workloads.corpus import CorpusConfig, CorpusGenerator


def interleaved(repetitions, run):
    """``run(rep, first)`` for every repetition, with the garbage collector
    off and collected before each one; *first* alternates between the two
    sides."""
    gc.collect()
    gc.disable()
    try:
        for rep in range(repetitions):
            gc.collect()
            run(rep, rep % 2 == 0)
    finally:
        gc.enable()


# Table 1 — the Andrew Benchmark: plain FS ("UNIX") vs HAC.  Paper
# (seconds): UNIX 2/5/5/8/19 = 38; HAC 4/9/8/14/22 = 57.  Shape: HAC is
# slower overall (~1.5x), the relative overhead is largest in Makedir
# (2.0x) and smallest in the compute-bound Make phase (~1.16x).

# sized so the metadata phases are well above timer noise while Make still
# dominates, as in the paper's profile
ANDREW = AndrewConfig(dirs=15, files_per_dir=10, functions_per_file=8)


def test_table1_andrew():
    """UNIX and HAC interleaved phase by phase in every repetition; each
    side keeps its per-phase median, and the sum of those as its total, as
    the paper's total row sums its phases.  Not the minimum: on a shared
    CPU the fastest of fifteen runs of a phase is an outlier of its own,
    and the ratio of two such outliers swung Make from 0.80x to 1.33x
    between processes."""
    runs = {"unix": [], "hac": []}

    def run(rep, _first):
        benches = {"unix": AndrewBenchmark(RawFsAdapter(FileSystem()), ANDREW),
                   "hac": AndrewBenchmark(HacFileSystem(), ANDREW)}
        for bench in benches.values():
            bench.install_sources()
        times = {side: {} for side in benches}
        for i, phase in enumerate(PHASES):
            for side in sorted(benches, reverse=bool((rep + i) % 2)):
                times[side][phase] = benches[side].run_phase(phase)
        for side, phases in times.items():
            runs[side].append(phases)

    interleaved(15, run)
    median = {side: {phase: statistics.median(r[phase] for r in reps)
                     for phase in PHASES} for side, reps in runs.items()}
    ratios = {phase: median["hac"][phase] / median["unix"][phase]
              for phase in PHASES}
    ratios["total"] = sum(median["hac"].values()) / sum(median["unix"].values())
    shape = "  ".join(f"{p}={r:.2f}x" for p, r in ratios.items())
    print(f"\nTable 1 HAC/UNIX: {shape}")

    assert 1.02 <= ratios["total"] <= 5.0, (
        f"HAC total slowdown outside [1.02, 5.0]: {shape}")
    # metadata-heavy phases carry more relative overhead than Make
    assert ratios["makedir"] > ratios["make"], (
        f"Makedir should carry the largest relative overhead (paper: 2.0x "
        f"vs 1.16x): {shape}")
    assert ratios["make"] < ratios["total"] * 1.05, \
        f"the compute-bound Make phase should dilute HAC overhead: {shape}"


# Table 3 — indexing a 17 000-file / 150 MB database directly with Glimpse
# vs through the HAC library: a 27 % time overhead (its space overhead is
# a byte count, in tests/paper/test_table3_indexing.py).  "Direct Glimpse"
# is the CBA engine fed from a plain dict; "through HAC" is a full
# ``reindex`` walking the live file system and charging the block device.

CORPUS = CorpusConfig(n_files=1500, words_per_file=160, dirs=30, seed=3)


def test_table3_indexing_time():
    gen = CorpusGenerator(CORPUS)
    docs = {("direct", ino): doc for ino, doc in enumerate(gen.documents())}
    times = {"direct": [], "hac": []}

    def direct():
        start = perf_counter()
        engine = CBAEngine(loader=lambda key: docs[key][1])
        for key, (rel, text) in docs.items():
            engine.index_document(key, path="/" + rel, mtime=1.0, text=text)
        times["direct"].append(perf_counter() - start)

    def through_hac():
        hac = HacFileSystem()
        gen.populate(hac, "/db")
        hac.clock.tick()
        start = perf_counter()
        hac.reindex("/")
        times["hac"].append(perf_counter() - start)

    def run(_rep, first):
        for side in (direct, through_hac) if first else (through_hac, direct):
            side()

    interleaved(5, run)
    overhead = 100.0 * (statistics.median(times["hac"])
                        / statistics.median(times["direct"]) - 1.0)
    print(f"\nTable 3 indexing time overhead: {overhead:+.1f} % "
          f"(paper: +27 %)")
    assert 3.0 <= overhead <= 300.0, (
        f"indexing time overhead {overhead:.1f} % outside [3, 300] — the "
        f"paper's shape did not reproduce")

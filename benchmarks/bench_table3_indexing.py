"""Table 3 — indexing through HAC vs running Glimpse directly.

Paper: indexing a 17 000-file / 150 MB database directly with Glimpse vs
through the HAC library showed a 27 % time overhead and a 15 % space
overhead.

Our corpus defaults to ~1 500 files / ~2 MB (scale with HAC_BENCH_SCALE);
"direct Glimpse" is the CBA engine fed from a plain dict, "through HAC" is
a full ``reindex`` walking the live file system and charging the block
device.  Space is what each side leaves on disk, in the same columnar
form: the direct engine's live rows sealed into one segment record (what
a cluster's ``save_index`` writes per shard,
``CBAEngine.live_segment``) against every record HAC's device holds
afterwards (its index segments plus per-directory state and engine
configuration).  Shape to reproduce: a modest positive overhead on both
axes, and metadata records beside HAC's index.
"""

import pytest

from repro.bench.harness import BenchResult, assert_shape, report, time_call
from repro.bench.tables import PAPER, slowdown_pct
from repro.cba.engine import CBAEngine
from repro.cba.segments import MANIFEST_RECORD, SEGMENT_PREFIX
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator


def make_config(scale):
    return CorpusConfig(n_files=1500 * scale, words_per_file=160,
                        dirs=30, seed=3)


def index_direct(gen, repetitions=2):
    # keyed like HAC's documents, (file system id, inode number), so the
    # rows seal into a segment record
    docs = {("direct", ino): doc for ino, doc in enumerate(gen.documents())}

    def run():
        engine = CBAEngine(loader=lambda key: docs[key][1])
        for key, (rel, text) in docs.items():
            engine.index_document(key, path="/" + rel, mtime=1.0, text=text)
        return engine

    best = None
    for _ in range(repetitions):
        seconds, engine = time_call(run)
        best = seconds if best is None else min(best, seconds)
    return best, len(engine.live_segment().to_bytes())


def index_through_hac(gen, repetitions=2):
    best = None
    for _ in range(repetitions):
        hac = HacFileSystem()
        gen.populate(hac, "/db")
        hac.clock.tick()
        seconds, _plan = time_call(lambda: hac.reindex("/"))
        best = seconds if best is None else min(best, seconds)
    device = hac.fs.device
    index = sum(len(device.read_record(key)) for key in device.record_keys()
                if key.startswith(SEGMENT_PREFIX) or key == MANIFEST_RECORD)
    return best, device.record_bytes, device.record_bytes - index


@pytest.mark.benchmark(group="table3")
def test_table3_indexing_overhead(benchmark, record_report, scale):
    gen = CorpusGenerator(make_config(scale))

    def run():
        direct_time, direct_space = index_direct(gen)
        return (direct_time, direct_space) + index_through_hac(gen)

    direct_time, direct_space, hac_time, hac_space, hac_meta = \
        benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)

    time_overhead = slowdown_pct(hac_time, direct_time)
    space_overhead = slowdown_pct(hac_space, direct_space)
    results = [
        BenchResult("corpus files", gen.config.n_files, PAPER["table3"]["files"]),
        BenchResult("corpus MB", gen.total_bytes() / 1e6,
                    PAPER["table3"]["megabytes"]),
        BenchResult("direct index time s", direct_time),
        BenchResult("through-HAC index time s", hac_time),
        BenchResult("time overhead %", time_overhead,
                    PAPER["table3"]["time_overhead_pct"]),
        BenchResult("direct persisted index bytes", direct_space),
        BenchResult("through-HAC persisted bytes (index+metadata)",
                    hac_space),
        BenchResult("through-HAC metadata bytes (non-index records)",
                    hac_meta),
        BenchResult("space overhead %", space_overhead,
                    PAPER["table3"]["space_overhead_pct"]),
    ]
    record_report(report("Table 3: indexing through HAC vs direct Glimpse",
                         results))
    benchmark.extra_info["time_overhead_pct"] = round(time_overhead, 1)
    benchmark.extra_info["space_overhead_pct"] = round(space_overhead, 1)

    # --- shape assertions ----------------------------------------------------
    assert_shape("indexing time overhead %", time_overhead, 3.0, 300.0)
    assert space_overhead > 0, \
        "HAC must store extra per-directory metadata on top of the index"
    assert space_overhead < 200.0, \
        "HAC metadata should stay a modest fraction of the index"
    # both sides' index is columnar, but HAC's also carries transducer
    # field terms and longer paths, so the overhead above stays positive
    # without any metadata; this guard reads the metadata records alone
    assert hac_meta > 0, \
        "HAC must store per-directory state and engine configuration " \
        "records beside its index"

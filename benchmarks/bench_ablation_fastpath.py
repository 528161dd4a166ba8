"""Ablation H — the query path vs the seed scan, end to end.

The engine's query path stacks four mechanisms: planner-ordered
conjunctions, doc-level postings that answer term queries without any
loader fetch, per-(doc, query) verification memoisation, and block-exact
cache invalidation (mutating one doc only evicts results whose candidate
blocks contain its block).  This ablation drives the same
``ssync``-triggered re-evaluation workload — several semantic directories,
repeated rounds of touching <1 % of the corpus — through two otherwise
identical HAC worlds, one over the engine and one over the seed
scan-everything reference (``repro.baselines.scanengine.ScanEngine``), and
compares the ``docs_scanned`` counters and the wall-clock of the
many-matches query the Table 4 bench times.

Acceptance shape: >=5x fewer docs scanned on the re-evaluation workload,
and a measured speedup on the cold many-matches search.
"""

import pytest

from repro.baselines.scanengine import ScanEngine
from repro.bench.harness import BenchResult, report, time_call
from repro.cba.backend import BackendFactory
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

TOPICS = {"needleword": 0.05, "commonword": 0.5}
ROUNDS = 5
TOUCHES_PER_ROUND = 2   # 2 of 400 files = 0.5 % dirty per round


def build_world(fast_path, scale):
    cfg = CorpusConfig(n_files=400 * scale, words_per_file=150, dirs=10,
                       topics=TOPICS, seed=17)
    gen = CorpusGenerator(cfg)
    hac = HacFileSystem(
        num_blocks=256,
        backend=None if fast_path
        else BackendFactory(ScanEngine, segmented=True))
    paths = gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    # the re-evaluation cascade: flat, compound (planner-orderable), and
    # nested semantic directories, as a real HAC namespace would hold
    hac.smkdir("/needle", "needleword")
    hac.smkdir("/common", "commonword")
    hac.smkdir("/both", "commonword AND needleword")
    hac.smkdir("/needle/rare", "commonword")
    return hac, gen, paths


def churn(hac, gen, paths):
    """ROUNDS rounds of touching a handful of files, each followed by a
    full ``ssync`` (reindex + re-evaluate every semantic directory)."""
    for rnd in range(ROUNDS):
        for i in range(TOUCHES_PER_ROUND):
            idx = (rnd * 41 + i * 173) % len(paths)
            text = gen.document(idx) + f"touched round{rnd}\n"
            hac.write_file(paths[idx], text.encode("utf-8"))
        hac.clock.tick()
        hac.ssync("/")


@pytest.mark.benchmark(group="ablation-fastpath")
@pytest.mark.parametrize("fast_path", [True, False],
                         ids=["fast-path", "seed-scan"])
def test_reevaluation_churn_speed(benchmark, fast_path, scale):
    hac, gen, paths = build_world(fast_path, scale)
    benchmark.pedantic(lambda: churn(hac, gen, paths),
                       rounds=1, iterations=1)


@pytest.mark.benchmark(group="ablation-fastpath-report")
def test_fastpath_scan_reduction(benchmark, record_report, scale):
    def run():
        out = {}
        for fast_path in (True, False):
            hac, gen, paths = build_world(fast_path, scale)
            hac.counters.reset()
            secs, _ = time_call(lambda: churn(hac, gen, paths))
            out[fast_path] = (hac, secs, hac.counters.snapshot())
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    fast_hac, fast_secs, fast_counters = data[True]
    slow_hac, slow_secs, slow_counters = data[False]
    fast_scanned = fast_counters.get("engine.docs_scanned", 0)
    slow_scanned = slow_counters.get("engine.docs_scanned", 0)

    # the Table 4 "many matches" case, timed cold on both engines
    ast = parse_query("commonword")

    def cold(hac):
        hac.engine.clear_query_cache()
        return time_call(lambda: hac.engine.search(ast))[0]

    fast_search = min(cold(fast_hac) for _ in range(3))
    slow_search = min(cold(slow_hac) for _ in range(3))
    assert fast_hac.engine.search(ast) == slow_hac.engine.search(ast)

    results = [
        BenchResult("churn docs scanned (fast path)", fast_scanned),
        BenchResult("churn docs scanned (seed scan)", slow_scanned),
        BenchResult("scan reduction",
                    slow_scanned / max(fast_scanned, 1)),
        BenchResult("churn seconds (fast path)", fast_secs),
        BenchResult("churn seconds (seed scan)", slow_secs),
        BenchResult("scans avoided (postings+memo)",
                    fast_counters.get("engine.docs_scan_avoided", 0)),
        BenchResult("postings-answered searches",
                    fast_counters.get("engine.postings_answers", 0)),
        BenchResult("cache entries surviving mutations",
                    fast_counters.get("engine.cache_survivals", 0)),
        BenchResult("planner reorders",
                    fast_counters.get("engine.planner_reorders", 0)),
        BenchResult("many-matches cold search s (fast path)", fast_search),
        BenchResult("many-matches cold search s (seed scan)", slow_search),
        BenchResult("many-matches speedup", slow_search / max(fast_search,
                                                              1e-9)),
    ]
    record_report(report("Ablation H: query fast path", results))

    # --- acceptance shape ------------------------------------------------
    assert slow_scanned >= 5 * max(fast_scanned, 1), (
        f"fast path must scan >=5x fewer docs on the churn workload: "
        f"{fast_scanned:g} vs {slow_scanned:g}")
    assert fast_search < slow_search, \
        "the many-matches query must be faster with the fast path on"
    # every mechanism must actually fire
    assert fast_counters.get("engine.postings_answers", 0) > 0
    assert fast_counters.get("engine.docs_scan_avoided", 0) > 0
    assert fast_counters.get("engine.planner_reorders", 0) > 0
    assert fast_counters.get("engine.cache_survivals", 0) > 0

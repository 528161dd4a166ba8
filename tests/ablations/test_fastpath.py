"""Ablation H — the query path vs the seed scan, end to end.

The engine's query path stacks four mechanisms: planner-ordered
conjunctions, doc-level postings that answer term queries without any
loader fetch, per-(doc, query) verification memoisation, and block-exact
cache invalidation (mutating one doc only evicts results whose candidate
blocks contain its block).  This ablation drives the same
``ssync``-triggered re-evaluation workload — several semantic directories,
repeated rounds of touching <1 % of the corpus — through two otherwise
identical HAC worlds, one over the engine and one over the seed
scan-everything reference (``tests.baselines.scanengine.ScanEngine``), and
compares the ``docs_scanned`` counters.

Acceptance shape: >=5x fewer docs scanned on the re-evaluation workload,
and every fast-path mechanism fires (exact counters).
"""

from repro.cba.backend import BackendFactory
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from tests.baselines.scanengine import ScanEngine

TOPICS = {"needleword": 0.05, "commonword": 0.5}
ROUNDS = 5
TOUCHES_PER_ROUND = 2   # 2 of 400 files = 0.5 % dirty per round


def churned_world(fast_path):
    """A world over the engine (or the scan reference), and its counters
    over ROUNDS rounds of touching a handful of files, each followed by a
    full ``ssync`` (reindex + re-evaluate every semantic directory)."""
    gen = CorpusGenerator(CorpusConfig(n_files=400, words_per_file=150,
                                       dirs=10, topics=TOPICS, seed=17))
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
    hac.counters.reset()
    for rnd in range(ROUNDS):
        for i in range(TOUCHES_PER_ROUND):
            idx = (rnd * 41 + i * 173) % len(paths)
            text = gen.document(idx) + f"touched round{rnd}\n"
            hac.write_file(paths[idx], text.encode("utf-8"))
        hac.clock.tick()
        hac.ssync("/")
    return hac, hac.counters.snapshot()


def test_fastpath_scan_reduction():
    fast_hac, fast = churned_world(True)
    slow_hac, slow = churned_world(False)
    fast_scanned = fast.get("engine.docs_scanned", 0)
    slow_scanned = slow.get("engine.docs_scanned", 0)

    # the Table 4 "many matches" case answers alike on both engines
    ast = parse_query("commonword")
    assert fast_hac.engine.search(ast) == slow_hac.engine.search(ast)

    assert slow_scanned >= 5 * max(fast_scanned, 1), (
        f"fast path must scan >=5x fewer docs on the churn workload: "
        f"{fast_scanned:g} vs {slow_scanned:g}")
    # every mechanism must actually fire
    assert fast.get("engine.postings_answers", 0) > 0
    assert fast.get("engine.docs_scan_avoided", 0) > 0
    assert fast.get("engine.planner_reorders", 0) > 0
    assert fast.get("engine.cache_survivals", 0) > 0

"""Ablation B — the Glimpse block-count tradeoff.

Glimpse's whole design is the two-level index: fewer blocks mean a smaller
index but more false-positive scanning; more blocks approach a full
inverted index.  This ablation sweeps the block count over one corpus and
reports index size and documents scanned per query — the tradeoff curve
the paper's choice of Glimpse sits on.
"""

import pytest

from repro.baselines.scanengine import ScanEngine
from repro.bench.harness import BenchResult, report
from repro.cba.queryparser import parse_query
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

BLOCK_COUNTS = (4, 32, 256)
QUERY = "needle"


def build(num_blocks, gen):
    docs = dict(gen.documents())
    # the seed scan engine: this ablation measures the block-count/scan
    # tradeoff, which doc-level postings would short-circuit entirely
    engine = ScanEngine(loader=docs.__getitem__, num_blocks=num_blocks)
    for rel, text in docs.items():
        engine.index_document(rel, path="/" + rel, mtime=0.0, text=text)
    return engine


@pytest.fixture(scope="module")
def gen():
    return CorpusGenerator(CorpusConfig(
        n_files=600, words_per_file=150, dirs=10,
        topics={"needle": 0.02}, seed=13))


@pytest.mark.benchmark(group="ablation-blocks")
@pytest.mark.parametrize("num_blocks", BLOCK_COUNTS)
def test_search_cost_by_block_count(benchmark, num_blocks, gen):
    engine = build(num_blocks, gen)
    ast = parse_query(QUERY)

    def cold_search():
        engine.clear_query_cache()   # measure the scan, not the cache
        return engine.search(ast)

    benchmark(cold_search)


@pytest.mark.benchmark(group="ablation-blocks-report")
def test_block_tradeoff_report(benchmark, record_report, gen):
    def sweep():
        rows = []
        for num_blocks in BLOCK_COUNTS:
            engine = build(num_blocks, gen)
            engine.counters.reset()
            hits = engine.search(parse_query(QUERY))
            scanned = engine.counters.get("engine.docs_scanned")
            rows.append((num_blocks, engine.index_size_bytes(),
                         scanned, len(hits)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    results = []
    for num_blocks, size, scanned, hits in rows:
        results.append(BenchResult(
            f"blocks={num_blocks}: index bytes", size))
        results.append(BenchResult(
            f"blocks={num_blocks}: docs scanned", scanned))
    results.append(BenchResult("true matches", rows[0][3]))
    record_report(report("Ablation B: Glimpse block-count tradeoff", results))

    sizes = [size for _b, size, _s, _h in rows]
    scans = [scanned for _b, _size, scanned, _h in rows]
    hits = [h for *_rest, h in rows]
    assert hits[0] == hits[1] == hits[2], "results must not depend on blocks"
    assert sizes == sorted(sizes), "more blocks -> larger index"
    assert scans == sorted(scans, reverse=True), "more blocks -> less scanning"
    assert scans[-1] >= hits[-1], "scanning can never drop below true matches"

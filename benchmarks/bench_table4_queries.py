"""Table 4 — semantic-directory creation vs direct Glimpse search.

Paper: creating a semantic directory for a query that matches *few* files
is >4× slower than the bare search (the constant cost of creating the
directory and its structures dominates); for an *intermediate* number of
matches the overhead drops to ~15 %, and for *many* matches to ~2 % — the
per-result work (which both sides share) swamps the constant.

Selectivity is dialled in with topic injection: three marker words planted
in ~0.5 %, ~5 % and ~50 % of the corpus files.  Shape to reproduce:
overhead ratio strictly decreasing in the number of matches, large for
"few", small for "many".

Wall-clock ratios are *reported* but the shape is *asserted* on simulated
device-op counts (record reads + writes), which are exactly reproducible on
any machine — a loaded CI runner cannot flake them.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.baselines.scanengine import ScanEngine
from repro.bench.tables import PAPER, ratio
from repro.cba.backend import BackendFactory
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

TOPICS = {"rareword": 0.005, "midword": 0.05, "commonword": 0.5}
LABELS = {"rareword": "few", "midword": "intermediate", "commonword": "many"}

#: the simulated cost of one timed call: every block-device record
#: operation it performed (reads for the scan, data + metadata writes for
#: directory structures, links, and the WAL)
OP_KEYS = ("blockdev.read_ops", "blockdev.write_ops",
           "blockdev.meta_read_ops", "blockdev.meta_write_ops")


def _op_cost(hac) -> float:
    return sum(hac.counters.get(k) for k in OP_KEYS)


def build_world(scale):
    cfg = CorpusConfig(n_files=800 * scale, words_per_file=250, dirs=20,
                       topics=TOPICS, seed=9)
    gen = CorpusGenerator(cfg)
    # many small blocks, as in real Glimpse deployments: selective queries
    # scan only a handful of candidate files.  The seed scan engine: this
    # table compares against the real Glimpse binary's scan behaviour, and
    # doc-level postings would answer the term queries without scanning at
    # all (bench_ablation_fastpath quantifies that separately)
    hac = HacFileSystem(num_blocks=512,
                        backend=BackendFactory(ScanEngine, segmented=True))
    gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    return hac, gen


def measure(hac, topic, repetitions=3):
    """One topic's measurements: wall seconds (min over repetitions),
    deterministic op costs (first repetition), matches.

    The query cache is cleared before every timed call: the comparison is
    against the real Glimpse binary, which starts cold per invocation.
    """
    ast = parse_query(topic)

    def direct_once():
        hac.engine.clear_query_cache()
        return time_call(lambda: hac.engine.search(ast))[0]

    ops0 = _op_cost(hac)
    first = direct_once()
    direct_ops = _op_cost(hac) - ops0
    direct = min([first] + [direct_once() for _ in range(repetitions - 1)])

    smkdir_times = []
    smkdir_ops = None
    for rep in range(repetitions):
        hac.engine.clear_query_cache()
        ops0 = _op_cost(hac)
        secs, _ = time_call(lambda: hac.smkdir(f"/q-{topic}-{rep}", topic))
        if rep == 0:
            smkdir_ops = _op_cost(hac) - ops0
        smkdir_times.append(secs)
    matches = len(hac.engine.search(ast))
    return {"direct": direct, "smkdir": min(smkdir_times),
            "direct_ops": direct_ops, "smkdir_ops": smkdir_ops,
            "matches": matches}


@pytest.mark.benchmark(group="table4")
def test_table4_query_overhead(benchmark, record_report, scale):
    def run():
        hac, _gen = build_world(scale)
        return {topic: measure(hac, topic) for topic in TOPICS}

    data = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)

    results = []
    ratios = {}
    op_ratios = {}
    for topic in ("rareword", "midword", "commonword"):
        m = data[topic]
        label = LABELS[topic]
        ratios[label] = ratio(m["smkdir"], m["direct"])
        op_ratios[label] = ratio(m["smkdir_ops"], m["direct_ops"])
        paper = PAPER["table4"][label]["ratio"]
        results.append(BenchResult(f"{label}: files matched", m["matches"]))
        results.append(BenchResult(f"{label}: direct search s", m["direct"]))
        results.append(BenchResult(f"{label}: smkdir s", m["smkdir"]))
        results.append(BenchResult(f"{label}: smkdir/search ratio",
                                   ratios[label], paper))
        results.append(BenchResult(f"{label}: smkdir/search device ops",
                                   op_ratios[label]))
    record_report(report(
        "Table 4: semantic directory creation vs direct search", results))
    benchmark.extra_info.update({k: round(v, 2) for k, v in ratios.items()})

    # --- shape assertions ----------------------------------------------------
    # asserted on simulated device-op counts, which are exactly reproducible
    # (wall ratios above are reported for comparison with the paper only —
    # on a loaded shared CPU they flake)
    shape = (f"{op_ratios['few']:.2f} / {op_ratios['intermediate']:.2f} / "
             f"{op_ratios['many']:.2f}")
    # the dominant signal: few-match queries pay the constant cost hard
    assert op_ratios["few"] > op_ratios["intermediate"] * 1.2, \
        f"few-match overhead must stand clear of the rest: {shape}"
    assert op_ratios["few"] > op_ratios["many"] * 1.2, \
        f"few-match overhead must stand clear of the rest: {shape}"
    # the tail flattens: per-result work (shared scan + one link write per
    # match) swamps the constant directory cost
    assert op_ratios["many"] <= op_ratios["intermediate"] * 1.15, \
        f"the tail must not grow with match count: {shape}"
    # the paper sees 4x for "few"; in op counts the constant cost (journal,
    # directory records, metadata flush) is ~5x the four-file scan
    assert op_ratios["few"] > 3.0, \
        "few matches: the constant directory-creation cost should dominate"
    # each of the ~400 matches costs a scan read on both sides plus one
    # symlink metadata write on the smkdir side — the ratio sits near 2,
    # far below the few-match constant-cost blow-up
    assert op_ratios["many"] < 2.0, \
        "many matches: per-result work should swamp the constant cost"

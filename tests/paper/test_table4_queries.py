"""Table 4 — semantic-directory creation vs direct Glimpse search.

Paper: creating a semantic directory for a query that matches *few* files
is >4× slower than the bare search (the constant cost of creating the
directory and its structures dominates); for an *intermediate* number of
matches the overhead drops to ~15 %, and for *many* matches to ~2 % — the
per-result work (which both sides share) swamps the constant.

Selectivity is dialled in with topic injection: three marker words planted
in ~0.5 %, ~5 % and ~50 % of the corpus files.  Shape to reproduce:
overhead ratio strictly decreasing in the number of matches, large for
"few", small for "many".  It is asserted on simulated device-op counts
(record reads + writes), which are exactly reproducible on any machine.
"""

from repro.cba.backend import BackendFactory
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from tests.baselines.scanengine import ScanEngine

TOPICS = {"rareword": 0.005, "midword": 0.05, "commonword": 0.5}
LABELS = {"rareword": "few", "midword": "intermediate", "commonword": "many"}

#: the simulated cost of one call: every block-device record operation it
#: performed (reads for the scan, data + metadata writes for directory
#: structures, links, and the WAL)
OP_KEYS = ("blockdev.read_ops", "blockdev.write_ops",
           "blockdev.meta_read_ops", "blockdev.meta_write_ops")


def op_cost(hac, call) -> float:
    """Device ops *call* performs, starting cold: the comparison is
    against the real Glimpse binary, which starts cold per invocation."""
    hac.engine.clear_query_cache()
    before = sum(hac.counters.get(k) for k in OP_KEYS)
    call()
    return sum(hac.counters.get(k) for k in OP_KEYS) - before


def build_world():
    gen = CorpusGenerator(CorpusConfig(n_files=800, words_per_file=250,
                                       dirs=20, topics=TOPICS, seed=9))
    # many small blocks, as in real Glimpse deployments: selective queries
    # scan only a handful of candidate files.  The seed scan engine: this
    # table compares against the real Glimpse binary's scan behaviour, and
    # doc-level postings would answer the term queries without scanning at
    # all (tests/ablations/test_fastpath.py quantifies that separately)
    hac = HacFileSystem(num_blocks=512,
                        backend=BackendFactory(ScanEngine, segmented=True))
    gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    return hac


def test_table4_query_overhead():
    hac = build_world()
    op_ratios = {}
    for topic, label in LABELS.items():
        ast = parse_query(topic)
        direct = op_cost(hac, lambda: hac.engine.search(ast))
        smkdir = op_cost(hac, lambda: hac.smkdir(f"/q-{topic}", topic))
        op_ratios[label] = smkdir / direct

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
    # the directory's one record, metadata flush) is ~3x the scan of the
    # four matching files' blocks
    assert op_ratios["few"] > 3.0, \
        "few matches: the constant directory-creation cost should dominate"
    # each of the ~400 matches costs a scan read on both sides plus one
    # symlink metadata write on the smkdir side — the ratio sits near 2,
    # far below the few-match constant-cost blow-up
    assert op_ratios["many"] < 2.0, \
        "many matches: per-result work should swamp the constant cost"

"""Ablation O — the CAS index vs scan-and-filter subtree queries.

Two path-dimension claims from DESIGN.md §3j, measured on a deep tree
(the corpus shape where content-global evaluation hurts most):

* **Candidate pruning**: a ``scope:<subtree> AND <phrase>`` query must
  verify candidate documents by scanning them (phrases defeat the
  postings path).  The seed scan reference (``ScanEngine``) fetches and
  scans every candidate the block index nominates, then discards most by
  the path predicate; the engine intersects candidates with the scope's
  CAS partitions *before* any loader fetch.  Counted in
  ``engine.docs_scanned`` — the contract is at least 2x fewer
  verifications.
* **Zero-selectivity short-circuit**: a conjunction with a zero-df term
  or an empty scope returns without nominating blocks, scanning, or
  probing shards, and says so in ``engine.planner_empty_shortcircuit``
  (the reference reaches the same empty answer the long way).
"""

import random

import pytest

from repro.baselines.scanengine import ScanEngine
from repro.bench.harness import BenchResult, report, time_call
from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query

DEPTH = 8
FANOUT = 3
WORDS = ["fingerprint", "ridge", "banana", "recipe", "budget", "lunch",
         "minutiae", "bread", "survey", "archive"]


def deep_corpus():
    """Files at every level of a depth-8 tree, fanout 3 near the root —
    the same shape the path-map ablation uses."""
    rng = random.Random(0xCA5)
    docs = {}   # key -> (path, text)
    stack = [("", 0)]
    while stack:
        prefix, depth = stack.pop()
        if depth == DEPTH:
            continue
        for i in range(FANOUT if depth < 3 else 1):
            d = f"{prefix}/d{depth}_{i}"
            for j in range(2):
                key = len(docs)
                words = rng.choices(WORDS, k=10)
                if rng.random() < 0.5:
                    words[3:5] = ["fingerprint", "ridge"]  # the phrase
                docs[key] = (f"{d}/f{j}.txt", " ".join(words))
            stack.append((d, depth + 1))
    return docs


def build_engine(docs, cls):
    engine = cls(loader=lambda k: docs[k][1], num_blocks=16)
    for key, (path, _text) in docs.items():
        engine.index_document(key, path=path, mtime=0.0)
    return engine


def scoped_queries(docs):
    """One phrase query per second-level subtree: deep scopes against a
    corpus that is mostly outside each of them."""
    subtrees = sorted({"/" + p[0].split("/")[1] + "/" + p[0].split("/")[2]
                       for p in docs.values() if p[0].count("/") > 2})
    return [parse_query(f'scope:{d} AND "fingerprint ridge"')
            for d in subtrees]


@pytest.mark.benchmark(group="ablation-cas")
def test_cas_probe_vs_scan_and_filter(benchmark, record_report):
    def run():
        docs = deep_corpus()
        queries = scoped_queries(docs)
        out = {}
        for label, cls in (("scan", ScanEngine), ("cas", CBAEngine)):
            engine = build_engine(docs, cls)

            def workload():
                answers = []
                for ast in queries:
                    engine.clear_query_cache()  # cold, like real Glimpse
                    answers.append(engine.search(ast).to_bytes())
                return answers

            workload()  # warm block structures identically
            scanned0 = engine.counters.get("engine.docs_scanned")
            secs, answers = time_call(workload)
            out[label] = (secs,
                          engine.counters.get("engine.docs_scanned")
                          - scanned0,
                          engine.counters.get("engine.cas_interleaved_probes"),
                          answers, engine, len(docs), len(queries))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    (scan_s, scan_verifs, _p, scan_answers, scan_engine,
     n_docs, n_queries) = out["scan"]
    (cas_s, cas_verifs, _p2, cas_answers, cas_engine, _n, _q) = out["cas"]

    # bit-identity first — a fast wrong answer is worthless
    assert cas_answers == scan_answers

    # the interleaved probe also answers scope+term conjunctions whole
    probed = parse_query("scope:/d0_0 AND fingerprint")
    assert cas_engine.search(probed).to_bytes() == \
        scan_engine.search(probed).to_bytes()
    assert cas_engine.counters.get("engine.cas_interleaved_probes") > 0

    # zero-selectivity conjunctions short-circuit without scanning
    empties = ["scope:/d0_0 AND zzznever", "scope:/nowhere AND fingerprint"]
    before = cas_engine.counters.get("engine.docs_scanned")
    for text in empties:
        assert cas_engine.search(parse_query(text)).to_bytes() == \
            scan_engine.search(parse_query(text)).to_bytes() == b""
    assert cas_engine.counters.get("engine.docs_scanned") == before
    assert cas_engine.counters.get("engine.planner_empty_shortcircuit") \
        >= len(empties)

    results = [
        BenchResult("corpus files", n_docs),
        BenchResult("tree depth", DEPTH),
        BenchResult("scoped phrase queries", n_queries),
        BenchResult("candidate verifications (scan-and-filter)",
                    scan_verifs),
        BenchResult("candidate verifications (CAS)", cas_verifs),
        # a perfectly-pruned run verifies only true subtree members
        BenchResult("verification ratio (scan / cas)",
                    scan_verifs / max(cas_verifs, 1)),
        BenchResult("CAS partitions",
                    len(cas_engine.cas.roots())),
        BenchResult("scan-and-filter s", scan_s),
        BenchResult("cas s", cas_s),
    ]
    record_report(report("Ablation O: subtree-scoped queries — CAS probe "
                         "vs scan-and-filter", results))

    # the contract: interleaving the path dimension prunes at least 2x
    # of the candidate-document verifications on a deep tree
    assert cas_verifs * 2 <= scan_verifs, (
        f"CAS pruned too few verifications: {cas_verifs} vs {scan_verifs}")

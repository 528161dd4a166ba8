"""Ablation P — fair-share drain: a starved tenant under a 10:1 neighbour.

Two tenants share one HacFileSystem: ``alpha`` runs the high-churn
code-repo workload at ten times ``beta``'s operation volume, while
``beta`` runs the digital-library workload — a modest ingest and then a
Zipf-skewed strong-query stream.  Every strong query pays a barrier
first; without per-tenant drain buckets, beta's barrier would drain
alpha's storm too, so beta's read latency would scale with its
neighbour's write rate.

With fair-share buckets, ``barrier(tenant=beta)`` applies only beta's
own pending documents.  The guard is deterministic: the documents
drained to satisfy beta's query stream in the shared 10:1 world must be
at most **2x** what the identical beta stream drains in a solo world
with no neighbour at all (ISSUE 10's acceptance bar).  Wall-clock
latency per strong query is reported alongside and held to the same 2x
bar — generously above timer noise here, since a leaked storm costs 10x.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.workloads.coderepo import CodeRepoGenerator
from repro.workloads.digilib import DigitalLibraryGenerator

SKEW = 10           # alpha ops per beta op
BETA_QUERIES = 30   # strong queries in beta's stream


def build_shared():
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    alpha = hac.tenants.create("alpha", quota=QuotaSpec(weight=1))
    beta = hac.tenants.create("beta", quota=QuotaSpec(weight=1))
    return hac, alpha, beta


def build_solo():
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    return hac, hac.tenants.create("beta", quota=QuotaSpec(weight=1))


def beta_phase(hac, beta, gen, scale, noise=None):
    """Beta's whole life: one ingest, then the strong-query stream, with
    *noise* (the neighbour's churn) running between beta's own calls.

    Drained docs are accumulated only inside beta's operations — that is
    what beta *pays*; drains the neighbour forces on itself (its own
    backpressure) are the neighbour's bill."""
    counters = hac.counters

    def charged(thunk):
        before = counters.get("sched.drained_docs")
        secs, out = time_call(thunk)
        return counters.get("sched.drained_docs") - before, secs, out

    drained, _secs, _ = charged(
        lambda: gen.ingest(beta, count=12 * scale, batch=6))
    secs = 0.0
    hits = 0
    for term in gen.query_stream(BETA_QUERIES * scale):
        if noise is not None:
            noise()
        d, dt, out = charged(lambda t=term: beta.glimpse(t))
        drained += d
        secs += dt
        hits += len(out)
    return drained, secs, hits


def run_shared(scale):
    """Beta's phases interleave with alpha churning at 10x volume."""
    hac, alpha, beta = build_shared()
    alpha_gen = CodeRepoGenerator(seed=23)
    paths = alpha_gen.populate(alpha, count=20 * scale)

    def churn():
        alpha_gen.churn(alpha, paths, steps=SKEW)  # the 10:1 skew

    drained, secs, hits = beta_phase(hac, beta, DigitalLibraryGenerator(
        seed=37), scale, noise=churn)
    backlog = hac.maintenance.pending_by_tenant()
    return hac, drained, secs, hits, backlog


@pytest.mark.benchmark(group="ablation-tenant")
def test_fair_share_drain_latency(benchmark, record_report, scale):
    def run():
        shared = run_shared(scale)
        solo_hac, solo_beta = build_solo()
        solo = beta_phase(solo_hac, solo_beta,
                          DigitalLibraryGenerator(seed=37), scale)
        return shared, solo

    (shared, solo) = benchmark.pedantic(run, rounds=1, iterations=1,
                                        warmup_rounds=1)
    hac, shared_drained, shared_secs, shared_hits, backlog = shared
    solo_drained, solo_secs, solo_hits = solo

    # --- correctness: the starved tenant answered exactly like solo -----
    assert shared_hits == solo_hits, \
        "neighbour churn changed beta's strong answers"

    # --- the fair-share bar: <= 2x solo, deterministic and wall ----------
    drain_ratio = shared_drained / max(solo_drained, 1)
    assert drain_ratio <= 2.0, (
        f"beta drained {shared_drained} docs next to a {SKEW}:1 neighbour "
        f"vs {solo_drained} solo — fair share leaked the storm")
    wall_ratio = shared_secs / max(solo_secs, 1e-9)
    assert wall_ratio <= 2.0, (
        f"beta's query stream took {shared_secs:.4f}s next to the "
        f"neighbour vs {solo_secs:.4f}s solo")
    # alpha's storm is still queued in alpha's bucket, not beta's
    assert backlog.get("alpha", 0) > 0
    assert backlog.get("beta", 0) == 0

    per_query = BETA_QUERIES * scale
    results = [
        BenchResult("beta strong queries", per_query),
        BenchResult("alpha:beta op skew", SKEW),
        BenchResult("beta docs drained (shared)", shared_drained),
        BenchResult("beta docs drained (solo)", solo_drained),
        BenchResult("drain ratio (<= 2)", drain_ratio),
        BenchResult("beta query stream s (shared)", shared_secs, unit="s"),
        BenchResult("beta query stream s (solo)", solo_secs, unit="s"),
        BenchResult("latency ratio (<= 2)", wall_ratio),
        BenchResult("alpha backlog at end", backlog.get("alpha", 0)),
    ]
    record_report(report(
        "Ablation P: fair-share drain under a 10:1 neighbour", results))

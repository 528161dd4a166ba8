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
with no neighbour at all.
"""

from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.workloads.coderepo import CodeRepoGenerator
from repro.workloads.digilib import DigitalLibraryGenerator

SKEW = 10           # alpha ops per beta op
BETA_QUERIES = 30   # strong queries in beta's stream


def beta_phase(hac, beta, noise=None):
    """Beta's whole life: one ingest, then the strong-query stream, with
    *noise* (the neighbour's churn) running between beta's own calls.

    Drained docs are accumulated only inside beta's operations — that is
    what beta *pays*; drains the neighbour forces on itself (its own
    backpressure) are the neighbour's bill."""
    gen = DigitalLibraryGenerator(seed=37)
    counters = hac.counters
    before = counters.get("sched.drained_docs")
    gen.ingest(beta, count=12, batch=6)
    drained = counters.get("sched.drained_docs") - before
    hits = 0
    for term in gen.query_stream(BETA_QUERIES):
        if noise is not None:
            noise()
        before = counters.get("sched.drained_docs")
        hits += len(beta.glimpse(term))
        drained += counters.get("sched.drained_docs") - before
    return drained, hits


def test_fair_share_drain_latency():
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    alpha = hac.tenants.create("alpha", quota=QuotaSpec(weight=1))
    beta = hac.tenants.create("beta", quota=QuotaSpec(weight=1))
    alpha_gen = CodeRepoGenerator(seed=23)
    paths = alpha_gen.populate(alpha, count=20)
    shared_drained, shared_hits = beta_phase(
        hac, beta, noise=lambda: alpha_gen.churn(alpha, paths, steps=SKEW))
    backlog = hac.maintenance.pending_by_tenant()

    solo = HacFileSystem()
    solo.maintenance.set_mode("batched")
    solo_drained, solo_hits = beta_phase(
        solo, solo.tenants.create("beta", quota=QuotaSpec(weight=1)))

    # --- correctness: the starved tenant answered exactly like solo -----
    assert shared_hits == solo_hits, \
        "neighbour churn changed beta's strong answers"

    # --- the fair-share bar: <= 2x solo, in drained documents -----------
    assert shared_drained / max(solo_drained, 1) <= 2.0, (
        f"beta drained {shared_drained} docs next to a {SKEW}:1 neighbour "
        f"vs {solo_drained} solo — fair share leaked the storm")
    # alpha's storm is still queued in alpha's bucket, not beta's
    assert backlog.get("alpha", 0) > 0
    assert backlog.get("beta", 0) == 0

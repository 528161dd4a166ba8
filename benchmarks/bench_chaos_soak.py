"""Chaos soak sweep + the admission-control A/B demonstration.

Two experiments, both pinned to deterministic counters (the PR 3
deflake convention: wall time is reported, never asserted):

**Soak sweep** — three seeds x {monolith, K=3} full ``ChaosRun`` soaks.
Every run must hold all seven convergence-window invariants, including
the bit-identical state digest against its fault-free oracle world.

**Admission A/B** — one clustered world per arm, same deterministic
script: publish a full snapshot, kill a shard, trip its breaker with
three strong reads, then issue a write burst.

* gate **off** (the failure the policy prevents): strong reads silently
  return *partial* answers (``cluster.partial_results`` counts them, and
  the hit set is a strict subset of the published snapshot's), and the
  maintenance queue grows past any bound while its drains fail;
* gate **on**: every strong read is downgraded to the snapshot path —
  complete as-of-publish answers, zero new partials — and the write
  burst is shed once the queue reaches ``max_queue_depth``, so the
  queue stays bounded.  Snapshot reads keep serving in both arms.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.chaos import ChaosRun, ChaosWorld
from repro.errors import AdmissionRejected

SOAK_SEEDS = (1, 2, 3)
SOAK_STEPS = 40
QUEUE_DEPTH = 8
WRITE_BURST = 12
VICTIM = "shard0"


def run_admission_arm(enabled: bool) -> dict:
    """One arm of the A/B: returns the counters the asserts pin."""
    world = ChaosWorld(k=3, batched=True, admission=False,
                       max_queue_depth=QUEUE_DEPTH)
    hac = world.hac
    world.shell.ssync("/")
    hac.maintenance.publish()
    snapshot_hits = world.shell.glimpse("fingerprint",
                                        consistency="snapshot")
    hac.engine.kill_shard(VICTIM)
    # trip the victim's breaker the same way in both arms: three live
    # scatters against the dead shard (the gate is enabled only after,
    # so the downgrade decision really runs "under an open breaker")
    pre_trip_partials = hac.counters.get("cluster.partial_results")
    for _ in range(3):
        world.shell.glimpse("fingerprint", consistency="strong")
    trip_partials = hac.counters.get("cluster.partial_results") \
        - pre_trip_partials
    assert hac.engine.breakers()[VICTIM].state == "open"
    if enabled:
        hac.admission.max_queue_depth = QUEUE_DEPTH
        hac.admission.enable()

    base_partials = hac.counters.get("cluster.partial_results")
    strong_hits = world.shell.glimpse("fingerprint", consistency="strong")
    read_partials = hac.counters.get("cluster.partial_results") \
        - base_partials
    shed = 0
    for index in range(WRITE_BURST):
        try:
            hac.write_file(f"/notes/burst{index:02d}.txt",
                           b"fingerprint burst traffic\n")
        except AdmissionRejected:
            shed += 1
    status = hac.admission.status()
    return {
        "snapshot_hits": snapshot_hits,
        "strong_hits": strong_hits,
        "still_serving": world.shell.glimpse("fingerprint",
                                             consistency="snapshot"),
        "trip_partials": trip_partials,
        "read_partials": read_partials,
        "shed": shed,
        "pending": hac.maintenance.pending,
        "downgraded_reads": int(status["downgraded_reads"]),
        "shed_writes": int(status["shed_writes"]),
    }


@pytest.mark.benchmark(group="chaos")
def test_chaos_soak_and_admission_ab(benchmark, record_report):
    def run():
        soaks = []
        for seed in SOAK_SEEDS:
            for k in (0, 3):
                run_ = ChaosRun(seed=seed, k=k, steps=SOAK_STEPS, windows=2)
                secs, rep = time_call(run_.run)
                rep["wall_s"] = secs
                soaks.append(rep)
        arms = {"off": run_admission_arm(False),
                "on": run_admission_arm(True)}
        return {"soaks": soaks, "arms": arms}

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    # --- the sweep: every seed x topology holds every invariant ----------
    results = []
    for rep in measured["soaks"]:
        label = f"seed {rep['seed']} k={rep['k']}"
        assert rep["ok"], f"{label}: {rep['violations']}"
        assert rep["recoveries"] == rep["crashes_hit"], label
        results.extend([
            BenchResult(f"{label} applied", rep["applied"]),
            BenchResult(f"{label} crashes recovered", rep["recoveries"]),
            BenchResult(f"{label} violations", len(rep["violations"])),
            BenchResult(f"{label} wall s", rep["wall_s"], unit="s"),
        ])

    # --- the A/B: what the gate prevents, on deterministic counters ------
    off, on = measured["arms"]["off"], measured["arms"]["on"]
    # both arms tripped the breaker identically, with silent partials
    assert off["trip_partials"] == on["trip_partials"] == 3
    # off: strong reads silently lose the dead shard's documents...
    assert off["read_partials"] > 0
    assert set(off["strong_hits"]) < set(off["snapshot_hits"])
    # ...and nothing bounds the queue (drains against the dead shard fail)
    assert off["shed"] == 0 and off["pending"] > QUEUE_DEPTH
    # on: downgraded reads answer complete from the published snapshot
    assert on["read_partials"] == 0
    assert on["strong_hits"] == on["snapshot_hits"]
    assert on["downgraded_reads"] > 0
    # ...the burst is shed exactly past the bound, never before
    assert on["pending"] == QUEUE_DEPTH
    assert on["shed"] == on["shed_writes"] == WRITE_BURST - QUEUE_DEPTH
    # snapshot reads kept serving in both arms
    assert off["still_serving"] and on["still_serving"]

    results.extend([
        BenchResult("off: partial strong reads", off["read_partials"]),
        BenchResult("off: queue depth after burst", off["pending"]),
        BenchResult("on: partial strong reads", on["read_partials"]),
        BenchResult("on: downgraded reads", on["downgraded_reads"]),
        BenchResult("on: writes shed", on["shed_writes"]),
        BenchResult("on: queue depth after burst", on["pending"]),
    ])
    record_report(report("Chaos soak sweep + admission A/B", results))

"""The twin-world orchestrator: worlds, probes, healing, and soak smoke."""

import pytest

from repro.chaos import (ChaosRun, ChaosWorld, check_invariants, heal,
                         state_digest, PROBE_QUERIES)
from repro.chaos.schedule import ChaosEvent, ChaosSchedule


def test_world_setup_is_complete():
    world = ChaosWorld(k=0)
    hac = world.hac
    assert hac.fs.fsid == "hac#soak"
    assert sorted(hac.listdir("/")) == ["lib", "mail", "notes",
                                       "q-fp", "q-proj"]
    assert hac.get_query("/q-fp") == "fingerprint"
    # the remote mount answers through the semantic directory
    assert any(name.startswith("fp-") for name in hac.listdir("/q-fp"))
    assert world.shard_ids() == []


def test_cluster_world_shards_and_batched_mode():
    world = ChaosWorld(k=3, batched=True, admission=True, max_queue_depth=9)
    assert world.shard_ids() == ["shard0", "shard1", "shard2"]
    assert world.hac.maintenance.mode == "batched"
    assert world.hac.admission.enabled is True
    assert world.hac.admission.max_queue_depth == 9


def test_two_fresh_worlds_share_a_digest():
    a, b = ChaosWorld(k=0), ChaosWorld(k=0)
    assert state_digest(a, queries=PROBE_QUERIES) == \
        state_digest(b, queries=PROBE_QUERIES)
    # ...and a cluster world agrees with a monolith on observable state
    c = ChaosWorld(k=2)
    assert state_digest(c, queries=PROBE_QUERIES) == \
        state_digest(a, queries=PROBE_QUERIES)


def test_digest_reflects_observable_changes():
    a, b = ChaosWorld(k=0), ChaosWorld(k=0)
    a.hac.write_file("/notes/extra.txt", b"fingerprint extra\n")
    a.shell.ssync("/")
    assert state_digest(a, queries=PROBE_QUERIES) != \
        state_digest(b, queries=PROBE_QUERIES)


def test_digest_leaves_out_the_link_names_timing_picks():
    """A file written and then renamed: the immediate world indexes the
    write at once and links it under its old name, the batched one indexes
    it after the rename and links it under its new one.  Same links."""
    a, b = ChaosWorld(k=0), ChaosWorld(k=0, batched=True)
    for world in (a, b):
        world.hac.write_file("/notes/w1.txt", b"fingerprint extra\n")
        world.hac.rename("/notes/w1.txt", "/notes/r2.txt")
        world.hac.maintenance.drain(reason="test")
    assert "w1.txt" in a.hac.links("/q-fp")
    assert "r2.txt" in b.hac.links("/q-fp")
    assert state_digest(a, queries=PROBE_QUERIES) == \
        state_digest(b, queries=PROBE_QUERIES)
    b.hac.make_permanent("/q-fp/r2.txt")
    assert state_digest(a, queries=PROBE_QUERIES) != \
        state_digest(b, queries=PROBE_QUERIES)


def test_recover_rewires_the_world():
    world = ChaosWorld(k=0, batched=True, admission=True)
    world.recover()
    assert world.hac.maintenance.mode == "batched"
    assert world.hac.admission.enabled is True
    # the remote mount survives the reboot re-wiring
    assert any(name.startswith("fp-") for name in world.hac.listdir("/q-fp"))
    assert not check_invariants(world)


def test_heal_recloses_a_tripped_breaker():
    world = ChaosWorld(k=0)
    world.service.transport.failure_rate = 1.0
    for _ in range(6):
        world.clock.tick()
        try:
            world.shell.ssync("/")
        except Exception:
            pass
        if world.remote_breaker().state == "open":
            break
    assert world.remote_breaker().state == "open"
    assert check_invariants(world)          # degraded: violations found
    heal(world)
    assert world.remote_breaker().state == "closed"
    assert not check_invariants(world)


def test_soak_smoke_monolith_all_invariants_hold():
    run = ChaosRun(seed=5, k=0, steps=20, windows=2)
    report = run.run()
    assert report["ok"], report["violations"]
    assert report["steps"] == 20
    assert report["windows"] >= 2
    assert report["applied"] > 0
    assert report["admission"]["enabled"] is True


def test_soak_smoke_cluster_all_invariants_hold():
    run = ChaosRun(seed=2, k=3, steps=20, windows=2)
    report = run.run()
    assert report["ok"], report["violations"]
    # the schedule actually exercised the cluster fault plane
    kinds = {e.kind for e in run.schedule.events}
    assert "kill_shard" in kinds and "revive_shard" in kinds


def test_soak_report_is_reproducible():
    a = ChaosRun(seed=6, k=0, steps=15, windows=1).run()
    b = ChaosRun(seed=6, k=0, steps=15, windows=1).run()
    assert a == b


def test_explicit_schedule_crash_is_recovered():
    sched = ChaosSchedule([ChaosEvent(2, "crash", {"offset": 0})],
                          steps=12, seed=0)
    run = ChaosRun(seed=1, k=0, steps=12, windows=1, schedule=sched)
    report = run.run()
    assert report["ok"], report["violations"]
    assert report["recoveries"] == report["crashes_hit"]
    assert report["crashes_hit"] >= 1


def test_snapshot_reads_never_fail_in_a_soak():
    run = ChaosRun(seed=3, k=0, steps=25, windows=1)
    report = run.run()
    assert report["reads_snapshot"] > 0
    # the serving-tier promise: snapshot reads are in-process and must
    # keep answering whatever is on fire
    assert run.chaos.counters.get("chaos.reads_snapshot_failed") == 0

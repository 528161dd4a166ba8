"""The twin-world soak: its schedule, worlds, digest, and runs.

The soak runs short in every test invocation, both modes, monolith and
K=3.  The CI ``soak-*`` cells re-run this module at full length with
``SOAK_SEED`` / ``SOAK_K`` / ``SOAK_STEPS`` set: same test, bigger soak
(``SOAK_K`` narrows the runs to one topology).
"""

import json
import os

import pytest

from repro.core.hacfs import HacFileSystem
from tests.chaos.soak import (KIND_ORDER, PROBE_QUERIES, Soak, World,
                              check_invariants, digest, schedule)

SEED = int(os.environ.get("SOAK_SEED", "1"))
STEPS = int(os.environ.get("SOAK_STEPS", "24"))
KS = (int(os.environ["SOAK_K"]),) if "SOAK_K" in os.environ else (0, 3)

SHARDS = ("shard0", "shard1", "shard2")


# -- the schedule ------------------------------------------------------------


def test_same_seed_same_schedule():
    assert schedule(7, 50, SHARDS[:2]) == schedule(7, 50, SHARDS[:2])


def test_different_seeds_differ():
    assert schedule(1, 50, SHARDS[:1]) != schedule(2, 50, SHARDS[:1])


def test_every_outage_schedules_its_recovery():
    events = schedule(3, 60, SHARDS)
    kinds = [kind for _step, kind, _args in events]
    assert kinds.count("kill_shard") == kinds.count("revive_shard") == 3
    assert kinds.count("remote_down") == kinds.count("remote_up") == 1
    for shard in SHARDS:
        (kill, _, _), (revive, _, _) = [
            e for e in events if e[2].get("shard") == shard
            and e[1] in ("kill_shard", "revive_shard")]
        assert kill <= revive


def test_all_events_land_inside_the_soak():
    for seed in range(5):
        events = schedule(seed, 40, SHARDS[:1], faults=3)
        assert all(1 <= step < 40 for step, _kind, _args in events)
        assert {kind for _step, kind, _args in events} == set(KIND_ORDER)


def test_within_step_kind_order_is_fixed():
    for seed in range(5):
        events = schedule(seed, 40, SHARDS[:1], faults=3)
        assert events == sorted(
            events, key=lambda e: (e[0], KIND_ORDER.index(e[1])))


def test_monolith_lag_events_target_no_shard():
    lags = [args for _step, kind, args in schedule(9, 40, faults=2)
            if kind == "lag"]
    assert len(lags) == 2
    assert all(a["shard"] is None and 1 <= a["publishes"] <= 3
               for a in lags)


def test_a_short_soak_is_rejected():
    with pytest.raises(ValueError):
        schedule(1, 5)


# -- the worlds --------------------------------------------------------------


def test_host_world_setup_is_complete():
    hac = World().hac
    assert hac.fs.fsid == "hac#soak"
    assert sorted(hac.listdir("/")) == ["lib", "mail", "notes",
                                       "q-fp", "q-proj"]
    assert hac.get_query("/q-fp") == "fingerprint"
    # the remote mount answers through the semantic directory
    assert any(name.startswith("fp-") for name in hac.listdir("/q-fp"))


def test_tenant_world_gives_each_tenant_the_corpus():
    world = World(tenants=("alpha", "beta"))
    assert world.hac.listdir("/") == ["tenants"]
    for name in ("alpha", "beta"):
        tenant = world.surface(name)
        assert sorted(tenant.listdir("/")) == ["mail", "notes",
                                              "q-fp", "q-proj"]
        assert "fp-design.txt" in tenant.links("/q-fp")
    assert digest(world.surface("alpha")) == digest(world.surface("beta"))


def test_cluster_world_shards_batched_mode_and_admission():
    world = World(k=3, batched=True, admission=True)
    assert world.shard_ids() == list(SHARDS)
    assert world.hac.maintenance.mode == "batched"
    assert world.hac.admission.enabled is True


def test_recover_rewires_the_world():
    world = World(batched=True, admission=True)
    world.recover()
    assert world.hac.maintenance.mode == "batched"
    assert world.hac.admission.enabled is True
    # the remote mount survives the reboot re-wiring
    assert any(name.startswith("fp-") for name in world.hac.listdir("/q-fp"))
    assert not check_invariants(world)


def test_heal_recloses_a_tripped_breaker():
    world = World()
    breaker = world.service.transport.breaker
    world.service.transport.failure_rate = 1.0
    for _ in range(6):
        world.clock.tick()
        try:
            world.hac.ssync("/")
        except Exception:
            pass
        if breaker.state == "open":
            break
    assert breaker.state == "open"
    assert check_invariants(world)          # degraded: violations found
    world.heal()
    assert breaker.state == "closed"
    assert not check_invariants(world)


# -- the digest --------------------------------------------------------------


def test_two_fresh_worlds_share_a_digest_across_topologies():
    a, b, c = World(), World(), World(k=2)
    assert digest(a.hac, PROBE_QUERIES) == digest(b.hac, PROBE_QUERIES)
    assert digest(c.hac, PROBE_QUERIES) == digest(a.hac, PROBE_QUERIES)


def test_digest_reflects_observable_changes():
    a, b = World(), World()
    a.hac.write_file("/notes/extra.txt", b"fingerprint extra\n")
    a.hac.ssync("/")
    assert digest(a.hac, PROBE_QUERIES) != digest(b.hac, PROBE_QUERIES)


def test_digest_leaves_out_the_link_names_timing_picks():
    """A file written and then renamed: the eager world indexes the write
    at once and links it under its old name, the batched one indexes it
    after the rename and links it under its new one.  Same links."""
    a, b = World(), World(batched=True)
    for world in (a, b):
        world.hac.write_file("/notes/w1.txt", b"fingerprint extra\n")
        world.hac.rename("/notes/w1.txt", "/notes/r2.txt")
        world.hac.maintenance.drain(reason="test")
    assert "w1.txt" in a.hac.links("/q-fp")
    assert "r2.txt" in b.hac.links("/q-fp")
    assert digest(a.hac, PROBE_QUERIES) == digest(b.hac, PROBE_QUERIES)
    b.hac.make_permanent("/q-fp/r2.txt")
    assert digest(a.hac, PROBE_QUERIES) != digest(b.hac, PROBE_QUERIES)


def _library(hac):
    t = hac.tenants.create("lib")
    t.makedirs("/stacks")
    t.write_file("/stacks/v0.txt", b"fingerprint volume zero")
    t.smkdir("/hits", "fingerprint")
    return t


def test_tenant_digest_is_deterministic_and_state_sensitive():
    a, b = _library(HacFileSystem()), _library(HacFileSystem())
    assert digest(a) == digest(b)
    b.write_file("/stacks/v1.txt", b"fingerprint volume one")
    assert digest(a) != digest(b)


def test_tenant_digest_sees_link_classes():
    """A pinned link and a transient one to the same file are different
    states: a tenant's digest must tell them apart, as the host's does."""
    a, b = _library(HacFileSystem()), _library(HacFileSystem())
    b.make_permanent("/hits/v0.txt")
    assert a.classify("/hits/v0.txt") == "transient"
    assert b.classify("/hits/v0.txt") == "permanent"
    assert digest(a) != digest(b)


def test_tenant_digest_ignores_co_tenants_and_host_state():
    solo = HacFileSystem().tenants.create("lib")
    shared_hac = HacFileSystem()
    shared = shared_hac.tenants.create("lib")
    noisy = shared_hac.tenants.create("noisy")
    for t in (solo, shared):
        t.write_file("/v.txt", b"fingerprint volume")
    noisy.write_file("/junk.txt", b"unrelated fingerprint churn")
    shared_hac.makedirs("/host")
    shared_hac.write_file("/host/h.txt", b"host fingerprint file")
    assert digest(solo, PROBE_QUERIES) == digest(shared, PROBE_QUERIES)


# -- the runs ----------------------------------------------------------------


def _kinds(k):
    return set(KIND_ORDER) - (set() if k else {"kill_shard", "revive_shard"})


@pytest.mark.parametrize("tenancy", [False, True],
                         ids=["shared", "tenancy"])
@pytest.mark.parametrize("k", KS)
def test_soak_holds_every_invariant(k, tenancy):
    report = Soak(seed=SEED, k=k, steps=STEPS, tenancy=tenancy).run()
    assert report["ok"], "\n".join(report["violations"])
    assert report["steps"] == STEPS and report["windows"] >= 1
    # the soak did real work under every fault kind the topology has
    assert report["applied"] > 0
    assert report["reads_strong"] + report["reads_snapshot"] > 0
    assert set(report["fired"]) == _kinds(k)
    # every device crash that fired was recovered from
    assert report["recoveries"] == report["crashes_hit"]
    # snapshot reads are in-process: they kept serving throughout
    assert report["reads_snapshot"] > 0
    assert report["reads_snapshot_failed"] == 0


def test_soak_smoke_monolith_all_invariants_hold():
    report = Soak(seed=5, k=0, steps=24).run()
    assert report["ok"], report["violations"]
    assert report["steps"] == 24 and report["windows"] == 2
    assert report["applied"] > 0
    assert report["admission"]["enabled"] is True


def test_snapshot_reads_never_fail_in_a_soak():
    report = Soak(seed=3, k=0, steps=25).run()
    # the serving-tier promise: snapshot reads are in-process and must
    # keep answering whatever is on fire
    assert report["reads_snapshot"] > 0
    assert report["reads_snapshot_failed"] == 0


@pytest.mark.parametrize("tenancy", [False, True],
                         ids=["shared", "tenancy"])
@pytest.mark.parametrize("k", [0, 3])
def test_crashes_fire_and_each_is_recovered(k, tenancy):
    # seed 0 at 24 steps is known to arm crashes that fire in every cell
    report = Soak(seed=0, k=k, steps=24, tenancy=tenancy).run()
    assert report["ok"], report["violations"]
    assert report["crashes_hit"] >= 1
    assert report["recoveries"] == report["crashes_hit"]


@pytest.mark.parametrize("tenancy", [False, True],
                         ids=["shared", "tenancy"])
def test_a_report_is_reproducible_and_json_ready(tenancy):
    a = Soak(seed=6, k=0, steps=15, tenancy=tenancy).run()
    b = Soak(seed=6, k=0, steps=15, tenancy=tenancy).run()
    assert a == b
    assert json.loads(json.dumps(a)) == a

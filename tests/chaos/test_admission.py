"""The breaker-driven admission gate: downgrade, shed, and its limits."""

import pytest

from repro.core.admission import AdmissionController
from repro.errors import AdmissionRejected, BackendUnavailable
from tests.chaos.soak import World


def _clustered(populated, shards=2):
    """Adopt a sharded cluster so a shard can be deterministically killed."""
    from repro.cba.backend import open_backend

    factory = open_backend("cluster", shards=shards, latency=0.0)
    cluster = factory(populated._load_doc, counters=populated.counters,
                      clock=populated.clock,
                      transducer=populated.engine.transducer,
                      num_blocks=populated.engine.num_blocks)
    populated.adopt_engine(cluster)
    return cluster


def test_disabled_by_default_and_fully_transparent(populated):
    admission = populated.admission
    assert admission.enabled is False
    cluster = _clustered(populated)
    cluster.kill_shard("shard0")
    # degraded world, gate off: nothing is downgraded or shed
    assert admission.admit_read("strong") == "strong"
    admission.admit_write("/notes/x.txt")           # does not raise
    populated.write_file("/notes/x.txt", b"still accepted\n")
    assert admission.status()["reads"] == 0
    assert admission.status()["writes"] == 0


def test_healthy_world_admits_everything(populated):
    admission = populated.admission
    admission.enable()
    assert admission.state() == "healthy"
    assert admission.degraded_backends() == []
    assert admission.admit_read("strong") == "strong"
    assert admission.admit_read("snapshot") == "snapshot"
    admission.admit_write("/notes/a.txt")
    assert admission.status()["downgraded_reads"] == 0
    assert admission.status()["shed_writes"] == 0


def test_degraded_backend_downgrades_strong_reads(populated):
    cluster = _clustered(populated)
    admission = populated.admission
    admission.enable()
    cluster.kill_shard("shard1")
    assert admission.degraded_backends() == ["shard.shard1"]
    assert admission.state() == "degraded"
    assert admission.admit_read("strong") == "snapshot"
    # snapshot reads pass through untouched
    assert admission.admit_read("snapshot") == "snapshot"
    assert admission.status()["downgraded_reads"] == 1
    cluster.revive_shard("shard1")
    assert admission.admit_read("strong") == "strong"


def _overload(populated):
    """Queue at the bound, one shard dead, gate on: every write sheds."""
    cluster = _clustered(populated)
    admission = populated.admission
    admission.max_queue_depth = 2
    populated.maintenance.set_mode("batched")
    populated.watch("/notes")
    # fill the queue while healthy: a merely-degraded system still admits
    populated.write_file("/notes/q1.txt", b"fingerprint one\n")
    populated.write_file("/notes/q2.txt", b"fingerprint two\n")
    assert populated.maintenance.pending >= 2
    admission.enable()
    cluster.kill_shard("shard0")
    assert admission.state() == "overloaded"
    return admission


def test_overload_sheds_writes_before_any_bytes_land(populated):
    admission = _overload(populated)
    with pytest.raises(AdmissionRejected) as exc:
        populated.write_file("/notes/q3.txt", b"never lands\n")
    assert isinstance(exc.value, BackendUnavailable)
    assert "shard.shard0" in str(exc.value)
    assert not populated.exists("/notes/q3.txt", follow=False)
    assert admission.status()["shed_writes"] == 1
    # reads keep serving (downgraded), snapshot path untouched
    assert admission.admit_read("strong") == "snapshot"


@pytest.mark.parametrize("shed", [
    lambda hac, fd: hac.truncate("/notes/recipe.txt", 0),
    lambda hac, fd: hac.write(fd, b"sixteen bytes..\n"),
    lambda hac, fd: hac.open("/notes/recipe.txt", "w"),
], ids=["truncate", "fd_write", "open_w"])
def test_shed_content_ops_leave_the_file_untouched(populated, shed):
    before = populated.read_file("/notes/recipe.txt")
    fd = populated.open("/notes/recipe.txt", "a")   # opened while healthy
    admission = _overload(populated)
    with pytest.raises(AdmissionRejected):
        shed(populated, fd)
    assert populated.read_file("/notes/recipe.txt") == before
    assert populated.stat("/notes/recipe.txt").attrs.size == len(before)
    assert admission.status()["shed_writes"] == 1


def test_enqueue_gate_spares_removes_and_moves(populated):
    cluster = _clustered(populated)
    admission = populated.admission
    admission.max_queue_depth = 1
    populated.maintenance.set_mode("batched")
    populated.watch("/notes")
    populated.write_file("/notes/held.txt", b"fingerprint pending\n")
    assert populated.maintenance.pending >= 1
    admission.enable()
    cluster.kill_shard("shard0")
    with pytest.raises(AdmissionRejected):
        populated.maintenance.note_upsert(("k", 1), "/notes/other.txt", 1.0)
    # removals and moves must always be accepted — shedding them would
    # leave ghost docs / stranded paths (see the scheduler's docstring)
    populated.unlink("/notes/held.txt")
    populated.rename("/notes/recipe.txt", "/notes/recipe2.txt")


def test_state_ladder_and_validation(populated):
    cluster = _clustered(populated)
    admission = populated.admission
    admission.enable()
    assert admission.state() == "healthy"
    cluster.kill_shard("shard0")
    assert admission.state() == "degraded"
    cluster.revive_shard("shard0")
    assert admission.state() == "healthy"
    with pytest.raises(ValueError):
        AdmissionController(populated, max_queue_depth=0)


def test_status_shape_and_health_integration(populated):
    admission = populated.admission
    admission.enable()
    status = admission.status()
    assert set(status) == {"enabled", "state", "max_queue_depth", "pending",
                           "degraded_backends", "reads", "writes",
                           "downgraded_reads", "shed_writes"}
    report = populated.health()
    assert report["admission"]["enabled"] is True
    assert report["admission"]["state"] == "healthy"
    admission.disable()
    assert populated.health()["admission"]["enabled"] is False


# -- the A/B: what the gate prevents, on deterministic counters --------------

QUEUE_DEPTH = 8
WRITE_BURST = 12


def _admission_arm(enabled):
    """One clustered soak world (synced and published), one script: kill
    a shard, trip its breaker with three strong reads, then a strong read
    and a write burst — with the gate off, or turned on once the breaker
    is open."""
    hac = World(k=3, batched=True).hac
    snapshot_hits = hac.glimpse("fingerprint", consistency="snapshot")
    hac.engine.kill_shard("shard0")
    partials = "cluster.partial_results"
    before = hac.counters.get(partials)
    for _ in range(3):
        hac.glimpse("fingerprint", consistency="strong")
    trip_partials = hac.counters.get(partials) - before
    assert hac.engine.breakers()["shard0"].state == "open"
    if enabled:
        hac.admission.max_queue_depth = QUEUE_DEPTH
        hac.admission.enable()
    before = hac.counters.get(partials)
    strong_hits = hac.glimpse("fingerprint", consistency="strong")
    read_partials = hac.counters.get(partials) - before
    shed = 0
    for index in range(WRITE_BURST):
        try:
            hac.write_file(f"/notes/burst{index:02d}.txt",
                           b"fingerprint burst traffic\n")
        except AdmissionRejected:
            shed += 1
    return dict(snapshot_hits=snapshot_hits, strong_hits=strong_hits,
                still_serving=hac.glimpse("fingerprint",
                                          consistency="snapshot"),
                trip_partials=trip_partials, read_partials=read_partials,
                shed=shed, pending=hac.maintenance.pending,
                status=hac.admission.status())


def test_the_gate_turns_partial_reads_and_an_unbounded_queue_around():
    off, on = _admission_arm(False), _admission_arm(True)
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
    assert on["status"]["downgraded_reads"] > 0
    # ...and the burst is shed exactly past the bound, never before
    assert on["pending"] == QUEUE_DEPTH
    assert on["shed"] == on["status"]["shed_writes"] \
        == WRITE_BURST - QUEUE_DEPTH
    # snapshot reads kept serving in both arms
    assert off["still_serving"] and on["still_serving"]

"""Shell surface for the fault plane: shards kill/restore, sched lag,
and admit on/off."""

import pytest

from repro.errors import AdmissionRejected, InvalidArgument
from repro.shell.cli import build_demo_shell, execute
from repro.shell.session import HacShell


@pytest.fixture
def shell():
    return build_demo_shell()


@pytest.fixture
def clustered(shell):
    shell.smkcluster(2)
    return shell


# -- shards kill / restore ---------------------------------------------------


def test_kill_and_restore_round_trip(clustered):
    assert clustered.shards_kill("shard0") == "shard0"
    health = clustered.hacfs.engine.health()
    assert health["shard0"] == "down"
    assert clustered.shards_restore("shard0") == "shard0"
    assert clustered.hacfs.engine.health()["shard0"] != "down"


def test_kill_validates_engine_and_shard(clustered):
    with pytest.raises(InvalidArgument):
        HacShell().shards_kill("shard0")     # monolithic engine
    with pytest.raises(InvalidArgument):
        clustered.shards_kill("shard9")      # no such shard
    with pytest.raises(InvalidArgument):
        clustered.shards_restore("shard9")


def test_kill_restore_via_the_repl(clustered):
    assert execute(clustered, "shards kill shard1") == "killed shard1"
    assert "down" in execute(clustered, "shards")
    assert execute(clustered, "shards restore shard1") == "restored shard1"
    assert execute(clustered, "shards kill") == "usage: shards kill SHARD"


# -- sched lag ---------------------------------------------------------------


def test_lag_whole_shard(clustered):
    assert clustered.sched_lag("shard0", 2) == "shard0"
    engine = clustered.hacfs.engine.shards["shard0"].engine
    assert all(r.lag == 2 for r in engine.replicas)


def test_lag_validates_shard(clustered):
    with pytest.raises(InvalidArgument):
        clustered.sched_lag("shard9", 1)


def test_lag_monolith_replica(shell):
    shell.hacfs.engine.attach_replica("r-test")
    assert shell.sched_lag("r-test", 3) == "r-test"
    info = shell.hacfs.engine.snapshot_info()
    assert {"id": "r-test", "version": info["replicas"][0]["version"],
            "lag": 3} in info["replicas"]


def test_lag_via_the_repl(clustered):
    assert execute(clustered, "sched lag shard0 1") == \
        "lagged shard0 by 1 publish(es)"
    assert execute(clustered, "sched lag") == \
        "usage: sched lag REPLICA PUBLISHES"


# -- admit -------------------------------------------------------------------


def test_admit_toggle_via_session(shell):
    assert shell.admit_status()["enabled"] is False
    assert shell.admit_on()["enabled"] is True
    assert shell.hacfs.admission.enabled is True
    assert shell.admit_off()["enabled"] is False


def test_admit_via_the_repl(shell):
    out = execute(shell, "admit on")
    assert "enabled: True" in out
    assert "state: healthy" in out
    assert "enabled: False" in execute(shell, "admit off")
    assert "unknown admit subcommand" in execute(shell, "admit bogus")


def test_glimpse_downgrades_under_open_breaker(clustered):
    """The read gate in HacShell.glimpse: a strong read under a dead
    shard serves from the snapshot instead of scattering to a partial."""
    clustered.ssync("/")
    clustered.hacfs.maintenance.publish()
    clustered.admit_on()
    clustered.shards_kill("shard0")
    before = clustered.hacfs.counters.get("cluster.partial_results")
    hits = clustered.glimpse("fingerprint", consistency="strong")
    assert hits          # still answering
    status = clustered.admit_status()
    assert status["downgraded_reads"] == 1
    # the downgrade avoided the live scatter: no new partial result
    assert clustered.hacfs.counters.get("cluster.partial_results") == before


def test_shed_write_surfaces_as_an_error(clustered):
    clustered.hacfs.maintenance.set_mode("batched")
    clustered.hacfs.watch("/notes")
    clustered.hacfs.admission.max_queue_depth = 1
    clustered.write("/notes/fill.txt", "fingerprint fill")
    clustered.admit_on()
    clustered.shards_kill("shard0")
    with pytest.raises(AdmissionRejected):
        clustered.write("/notes/shed.txt", "never lands")
    assert "error:" in execute(clustered, "write /notes/shed2.txt nope")

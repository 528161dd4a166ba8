"""The consolidated ``hac.health()`` degradation report — the only status surface."""

import pytest

from repro.errors import FileNotFound
from repro.remote.rpc import CircuitBreaker, RpcTransport
from repro.remote.searchsvc import SimulatedSearchService


@pytest.fixture
def degraded_remote(populated):
    """A mounted library whose transport is about to go dark."""
    breaker = CircuitBreaker(failure_threshold=3, cooldown=500.0,
                             clock=populated.clock,
                             counters=populated.counters, name="digilib")
    transport = RpcTransport("digilib", clock=populated.clock,
                             counters=populated.counters, seed=5,
                             breaker=breaker)
    lib = SimulatedSearchService("digilib", documents={
        "fp-survey": "fingerprint survey paper",
    }, transport=transport)
    populated.mkdir("/lib")
    populated.smount("/lib", lib)
    populated.smkdir("/fp", "fingerprint")      # healthy first sync
    transport.failure_rate = 1.0
    for _ in range(10):
        populated.clock.tick()
        populated.ssync("/")
        if breaker.state == "open":
            break
    return populated


def test_healthy_world_reports_no_degrading_directories(populated):
    populated.smkdir("/fp", "fingerprint")
    report = populated.health()
    assert report["directories"] == {}
    assert report["backends"] == {}
    assert report["shards"] == {}     # monolithic engine: nothing sharded


def test_degraded_remote_appears_in_one_report(degraded_remote):
    report = degraded_remote.health()
    assert report["backends"] == {"digilib": "open"}
    entry = report["directories"]["/fp"]
    assert "digilib" in entry["degraded_remote"]
    assert "fp-survey" in entry["degraded_links"]
    assert entry["degraded_shards"] == {}
    assert degraded_remote.counters.get("hac.health") >= 1


def test_path_restricts_the_directories_section(degraded_remote):
    report = degraded_remote.health("/fp")
    assert set(report["directories"]) == {"/fp"}
    # a healthy directory is absent even when asked for directly
    assert degraded_remote.health("/notes")["directories"] == {}
    # the global sections are unaffected by the restriction
    assert report["backends"] == {"digilib": "open"}


def test_per_probe_aliases_are_gone(degraded_remote):
    """The pre-PR 5 accessors were removed: health() is the only surface."""
    for alias in ("stale_" + "remote", "stale_" + "links", "stale_" + "shards"):
        assert not hasattr(degraded_remote, alias)


def test_health_keeps_raising_on_unknown_directories(populated):
    with pytest.raises(FileNotFound):
        populated.health("/no/such/dir")


def test_combined_degradation_one_report(degraded_remote):
    """Stale shard + open remote breaker + pending maintenance at once:
    every axis lands in the same ``health()`` snapshot."""
    from repro.cba.backend import open_backend

    hac = degraded_remote                      # digilib breaker already open
    factory = open_backend("cluster", shards=2, latency=0.0)
    cluster = factory(hac._load_doc, counters=hac.counters,
                      clock=hac.clock, transducer=hac.engine.transducer,
                      num_blocks=hac.engine.num_blocks)
    hac.adopt_engine(cluster)
    victim = cluster.shard_of(next(iter(cluster.all_docs()), 0)) or "shard0"
    cluster.kill_shard(victim)
    hac.clock.tick()
    hac.ssync("/fp")                           # marks the shard stale
    # queue an intent *after* the sync (ssync's barrier drains the queue)
    hac.maintenance.set_mode("batched")
    hac.watch("/notes")
    hac.write_file("/notes/pending.txt", b"fingerprint update queued\n")

    report = hac.health()
    # axis 1: the dead shard, globally and per directory
    assert report["shards"][victim] == "down"
    assert victim in report["directories"]["/fp"]["degraded_shards"]
    # axis 2: the remote breaker, in backends and the breakers section
    assert report["backends"]["digilib"] == "open"
    assert report["breakers"]["digilib"]["state"] == "open"
    assert report["breakers"]["digilib"]["transitions"]
    assert "digilib" in report["directories"]["/fp"]["degraded_remote"]
    # axis 3: the queued maintenance intent
    assert report["admission"]["pending"] >= 1
    # and the admission gate reads the same world as degraded
    hac.admission.enable()
    degraded = hac.admission.degraded_backends()
    assert "digilib" in degraded
    assert f"shard.{victim}" in degraded
    assert report["admission"]["enabled"] is False   # snapshot predates enable


def test_dead_shard_surfaces_in_health(populated):
    from repro.cba.backend import open_backend

    factory = open_backend("cluster", shards=3, latency=0.0)
    cluster = factory(populated._load_doc, counters=populated.counters,
                      clock=populated.clock,
                      transducer=populated.engine.transducer,
                      num_blocks=populated.engine.num_blocks)
    populated.adopt_engine(cluster)
    populated.smkdir("/fp", "fingerprint")
    victim = cluster.shard_of(next(iter(cluster.all_docs()), 0)) or "shard0"
    cluster.kill_shard(victim)
    populated.clock.tick()
    populated.ssync("/")
    report = populated.health()
    assert report["shards"][victim] == "down"
    stale = {sid for entry in report["directories"].values()
             for sid in entry["degraded_shards"]}
    assert victim in stale

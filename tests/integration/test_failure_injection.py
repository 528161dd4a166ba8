"""Failure injection: remote outages and full devices must degrade cleanly."""

import pytest

from repro.errors import NoSpace, RemoteUnavailable
from repro.core.hacfs import HacFileSystem
from repro.remote.rpc import RpcTransport
from repro.remote.searchsvc import SimulatedSearchService
from repro.vfs.blockdev import BlockDevice
from repro.vfs.filesystem import FileSystem


class FlakyTransport(RpcTransport):
    """Fails exactly when told to."""

    def __init__(self, name, clock=None):
        super().__init__(name, clock=clock)
        self.down = False

    def call(self, what, fn):
        if self.down:
            raise RemoteUnavailable(self.name, f"{what} (outage)")
        return super().call(what, fn)


@pytest.fixture
def flaky_world(populated):
    transport = FlakyTransport("digilib", clock=populated.clock)
    lib = SimulatedSearchService("digilib", documents={
        "fp-survey": "fingerprint survey paper",
        "fp-new": "new fingerprint techniques",
    }, transport=transport)
    populated.mkdir("/lib")
    populated.smount("/lib", lib)
    return populated, lib, transport


class TestRemoteOutage:
    def test_existing_remote_links_survive_outage(self, flaky_world):
        hac, lib, transport = flaky_world
        hac.smkdir("/fp", "fingerprint")
        remote_before = {t for _c, t in hac.links("/fp").values()
                         if t.startswith("digilib")}
        assert len(remote_before) == 2
        transport.down = True
        hac.ssync("/")   # must not raise, must not lose the links
        remote_after = {t for _c, t in hac.links("/fp").values()
                        if t.startswith("digilib")}
        assert remote_after == remote_before
        assert hac.counters.get("consistency.remote_failures") > 0

    def test_local_results_unaffected_by_outage(self, flaky_world):
        hac, lib, transport = flaky_world
        transport.down = True
        hac.smkdir("/fp", "fingerprint")
        names = set(hac.links("/fp"))
        assert {"fp-design.txt", "msg1.txt", "match.c"} <= names

    def test_recovery_after_outage(self, flaky_world):
        hac, lib, transport = flaky_world
        transport.down = True
        hac.smkdir("/fp", "fingerprint")
        assert not any(t.startswith("digilib")
                       for _c, t in hac.links("/fp").values())
        transport.down = False
        lib.add_document("fp-extra", "extra fingerprint doc")
        hac.ssync("/")
        remote = {t for _c, t in hac.links("/fp").values()
                  if t.startswith("digilib")}
        assert len(remote) == 3

    def test_fetch_outage_raises_cleanly(self, flaky_world):
        hac, lib, transport = flaky_world
        hac.smkdir("/fp", "fingerprint")
        name = next(n for n, (_c, t) in hac.links("/fp").items()
                    if t.startswith("digilib"))
        transport.down = True
        with pytest.raises(RemoteUnavailable):
            hac.read_file(f"/fp/{name}")


class TestDeviceFull:
    def test_write_fails_with_nospace(self):
        device = BlockDevice(block_size=512, capacity_blocks=20)
        fs = FileSystem(device=device)
        hac = HacFileSystem(fs=fs)
        with pytest.raises(NoSpace):
            hac.write_file("/big", b"x" * (512 * 40))

    def test_metadata_growth_hits_capacity(self):
        device = BlockDevice(block_size=512, capacity_blocks=6)
        fs = FileSystem(device=device)
        hac = HacFileSystem(fs=fs)
        with pytest.raises(NoSpace):
            for i in range(200):
                hac.smkdir(f"/d{i}", "anything")

    def test_failed_write_leaves_fs_usable(self):
        device = BlockDevice(block_size=512, capacity_blocks=30)
        fs = FileSystem(device=device)
        hac = HacFileSystem(fs=fs)
        hac.write_file("/ok", b"fits")
        with pytest.raises(NoSpace):
            hac.write_file("/big", b"x" * (512 * 64))
        assert hac.read_file("/ok") == b"fits"
        hac.write_file("/ok2", b"still works")


class TestStaleDegradation:
    """The PR 2 acceptance scenario: a back-end failing half its calls must
    degrade queries to last-known-good links flagged stale — no exception,
    no corruption — and the breaker must stop issuing RPCs once tripped
    until its cool-down elapses on the virtual clock."""

    @pytest.fixture
    def degraded_world(self, populated):
        from repro.remote.rpc import CircuitBreaker

        breaker = CircuitBreaker(failure_threshold=3, cooldown=1000.0,
                                 counters=populated.counters, name="digilib")
        transport = RpcTransport("digilib", clock=populated.clock,
                                 counters=populated.counters, seed=5,
                                 breaker=breaker)
        lib = SimulatedSearchService("digilib", documents={
            "fp-survey": "fingerprint survey paper",
            "fp-new": "new fingerprint techniques",
        }, transport=transport)
        populated.mkdir("/lib")
        populated.smount("/lib", lib)
        populated.smkdir("/fp", "fingerprint")   # healthy first sync
        transport.failure_rate = 0.5
        return populated, transport, breaker

    @staticmethod
    def remote_links(hac):
        return {n for n, (_c, t) in hac.links("/fp").items()
                if t.startswith("digilib")}

    def test_degrades_to_held_links_and_breaker_trips(self, degraded_world):
        hac, transport, breaker = degraded_world
        good = self.remote_links(hac)
        assert len(good) == 2
        assert hac.health("/fp")["directories"] == {}

        for _ in range(50):                      # never raises to the caller
            hac.clock.tick()
            hac.ssync("/")
            if breaker.state == "open":
                break
        assert breaker.state == "open"

        # while open: no RPC issued, links held, flagged stale
        calls_before = transport.calls
        hac.clock.tick()
        hac.ssync("/")
        assert transport.calls == calls_before
        assert self.remote_links(hac) == good
        entry = hac.health("/fp")["directories"]["/fp"]
        assert "digilib" in entry["degraded_remote"]
        assert set(entry["degraded_links"]) == good
        assert hac.counters.get("breaker.digilib.rejections") >= 1
        assert [f for f in hac.fsck() if f.severity == "error"] == []

    def test_cooldown_and_recovery_clear_the_stale_flag(self, degraded_world):
        hac, transport, breaker = degraded_world
        good = self.remote_links(hac)
        for _ in range(50):
            hac.clock.tick()
            hac.ssync("/")
            if breaker.state == "open":
                break
        assert breaker.state == "open"

        hac.clock.advance(1000.0)                # cool-down elapses
        transport.failure_rate = 0.0             # back-end healthy again
        calls_before = transport.calls
        hac.clock.tick()
        hac.ssync("/")
        assert transport.calls > calls_before    # probe went through
        assert breaker.state == "closed"
        assert hac.health("/fp")["directories"] == {}
        assert self.remote_links(hac) == good
        assert hac.counters.get("consistency.stale_recoveries") >= 1

    def test_mount_health_reflects_breaker_state(self, degraded_world):
        hac, transport, breaker = degraded_world
        assert hac.semmounts.health() == {"digilib": "closed"}
        for _ in range(50):
            hac.clock.tick()
            hac.ssync("/")
            if breaker.state == "open":
                break
        assert hac.semmounts.health() == {"digilib": "open"}

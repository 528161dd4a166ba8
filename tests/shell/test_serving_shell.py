"""Shell surface of the serving tier: consistency levels and sched verbs."""

import pytest

from repro.shell.cli import execute
from repro.shell.session import HacShell


@pytest.fixture
def shell():
    shell = HacShell()
    hac = shell.hacfs
    hac.makedirs("/mail")
    hac.write_file("/mail/msg1.txt", b"fingerprint sensor prototype\n")
    hac.write_file("/mail/msg2.txt", b"banana bread for lunch\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/mail")
    hac.maintenance.set_mode("batched")
    return shell


class TestGlimpseConsistency:
    def test_default_is_strong(self, shell):
        shell.write("/mail/msg3.txt", "late fingerprint news\n")
        shell.hacfs.clock.tick()
        drains = shell.hacfs.counters.get("sched.drains")
        hits = shell.glimpse("fingerprint")
        assert any(p.endswith("msg3.txt") for p in hits)
        # the barrier: a strong read pays for the pending batch
        assert shell.hacfs.counters.get("sched.drains") == drains + 1

    def test_snapshot_serves_the_published_past(self, shell):
        assert shell.glimpse("fingerprint", consistency="snapshot") == \
            shell.glimpse("fingerprint", consistency="strong")
        shell.write("/mail/msg3.txt", "late fingerprint news\n")
        shell.hacfs.clock.tick()
        drains = shell.hacfs.counters.get("sched.drains")
        stale = shell.glimpse("fingerprint", consistency="snapshot")
        assert not any(p.endswith("msg3.txt") for p in stale)
        assert shell.hacfs.counters.get("sched.drains") == drains
        shell.sched_drain()
        fresh = shell.glimpse("fingerprint", consistency="snapshot")
        assert any(p.endswith("msg3.txt") for p in fresh)

    def test_snapshot_respects_scope(self, shell):
        hac = shell.hacfs
        hac.makedirs("/other")
        hac.write_file("/other/note.txt", b"fingerprint elsewhere\n")
        hac.clock.tick()
        hac.ssync("/")
        hits = shell.glimpse("fingerprint", scope_path="/mail",
                             consistency="snapshot")
        assert hits and all(p.startswith("/mail/") for p in hits)

    def test_unknown_level_rejected(self, shell):
        with pytest.raises(ValueError):
            shell.glimpse("fingerprint", consistency="eventual")

    def test_snapshot_read_emits_its_own_span(self, shell):
        shell.hacfs.obs.enable()
        shell.glimpse("fingerprint", consistency="snapshot")
        spans = shell.hacfs.obs.trace.spans(name="hac.glimpse_snapshot")
        assert spans and "version" in spans[-1].attrs


class TestSchedVerbs:
    def test_status_shows_serving_state(self, shell):
        shell.hacfs.engine.snapshot_view()  # attach a replica
        out = execute(shell, "sched status")
        assert "snapshot_version:" in out
        assert "replica_lag:" in out

    def test_publish_forces_a_version(self, shell):
        before = shell.hacfs.engine.snapshot_info()["version"]
        out = execute(shell, "sched publish")
        assert f"published snapshot version {before + 1}" == out

    def test_unknown_subcommand_mentions_publish(self, shell):
        assert "publish" in execute(shell, "sched frobnicate")

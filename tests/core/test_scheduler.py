"""Unit tests for the maintenance scheduler (the write-side pipeline)."""

import pytest

from repro.core.hacfs import HacFileSystem


@pytest.fixture
def watched(populated):
    """The populated world with /mail watched (eager mode, the default)."""
    populated.watch("/mail")
    return populated


def batched(hac: HacFileSystem) -> HacFileSystem:
    hac.maintenance.set_mode("batched")
    return hac


def doc_key(hac, path):
    res = hac.fs.resolve(path, follow=False)
    return (res.fs.fsid, res.node.ino)


class TestModes:
    def test_default_is_eager_and_drains_per_event(self, watched):
        watched.write_file("/mail/msg3.txt", b"fresh fingerprint lead\n")
        assert watched.maintenance.pending == 0
        assert doc_key(watched, "/mail/msg3.txt") in watched.engine

    def test_batched_defers_until_drain(self, watched):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"fresh fingerprint lead\n")
        key = doc_key(hac, "/mail/msg3.txt")
        assert hac.maintenance.pending == 1
        assert key not in hac.engine
        hac.maintenance.drain()
        assert hac.maintenance.pending == 0
        assert key in hac.engine

    def test_unknown_mode_rejected(self, hacfs):
        with pytest.raises(ValueError):
            hacfs.maintenance.set_mode("lazy")

    def test_leaving_batched_drains(self, watched):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"stragglers forbidden\n")
        hac.maintenance.set_mode("eager")
        assert hac.maintenance.pending == 0
        assert doc_key(hac, "/mail/msg3.txt") in hac.engine


class TestCoalescing:
    def test_rapid_rewrites_cost_one_tokenisation(self, watched):
        hac = batched(watched)
        before = hac.counters.get("engine.tokenisations")
        for i in range(5):
            hac.clock.tick()
            hac.write_file("/mail/msg3.txt", b"draft %d fingerprint\n" % i)
        assert hac.maintenance.pending == 1
        assert hac.counters.get("engine.tokenisations") == before
        hac.maintenance.drain()
        assert hac.counters.get("engine.tokenisations") == before + 1
        assert hac.counters.get("sched.coalesced") >= 4

    def test_last_write_wins(self, watched):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"first draft banana\n")
        hac.clock.tick()
        hac.write_file("/mail/msg3.txt", b"final draft fingerprint\n")
        hac.maintenance.drain()
        doc = hac.engine.doc_by_key(doc_key(hac, "/mail/msg3.txt"))
        assert doc.mtime == hac.fs.resolve("/mail/msg3.txt").node.attrs.mtime

    def test_write_then_remove_nets_out(self, watched):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"ephemeral fingerprint\n")
        key = doc_key(hac, "/mail/msg3.txt")
        hac.unlink("/mail/msg3.txt")
        hac.maintenance.drain()
        assert key not in hac.engine

    def test_remove_then_rewrite_burns_a_doc_id_like_eager(self, watched):
        """An indexed doc removed and replaced gets a fresh id, exactly as
        the eager remove-then-index sequence would assign."""
        hac = batched(watched)
        old_id = hac.engine.doc_id_of(doc_key(hac, "/mail/msg2.txt"))
        hac.unlink("/mail/msg2.txt")
        hac.write_file("/mail/msg2.txt", b"replacement lunch plan\n")
        hac.maintenance.drain()
        new_id = hac.engine.doc_id_of(doc_key(hac, "/mail/msg2.txt"))
        assert new_id is not None and new_id != old_id


class TestUnlinkUnderAWatch:
    """A watched unlink is queued like a write, and the drain's cascade
    starts from its directory: the unlink runs no cascade of its own.  A
    batched queue drains at once when that cascade reaches a semantic
    directory, so no link outlives its file, and waits otherwise."""

    @pytest.fixture
    def hac(self, hacfs):
        hacfs.makedirs("/t")
        hacfs.smkdir("/q", "alpha")
        hacfs.watch("/t")
        for i in range(3):
            hacfs.write_file(f"/t/m{i}.txt", b"alpha beta\n")
        return hacfs

    def test_batched_unlink_drains_once_and_cascades_once(self, hac):
        batched(hac)
        hac.clock.tick()
        hac.write_file("/t/m1.txt", b"alpha gamma\n")
        drains = hac.counters.get("sched.drains")
        cascades = hac.counters.get("consistency.cascades")
        hac.unlink("/t/m0.txt")
        assert hac.counters.get("sched.drains") == drains + 1
        assert hac.counters.get("consistency.cascades") == cascades + 1
        assert hac.maintenance.pending == 0
        assert sorted(hac.listdir("/q")) == ["m1.txt", "m2.txt"]

    def test_batched_unlink_no_directory_reaches_only_queues(self, hacfs):
        hacfs.makedirs("/t")
        hacfs.makedirs("/elsewhere")
        hacfs.smkdir("/elsewhere/q", "alpha")
        hacfs.watch("/t")
        for i in range(2):
            hacfs.write_file(f"/t/m{i}.txt", b"alpha beta\n")
        batched(hacfs)
        hacfs.clock.tick()
        hacfs.write_file("/t/m1.txt", b"alpha gamma\n")
        drains = hacfs.counters.get("sched.drains")
        hacfs.unlink("/t/m0.txt")
        assert hacfs.counters.get("sched.drains") == drains
        assert hacfs.maintenance.pending == 2

    def test_eager_unlink_cascades_once(self, hac):
        for name in ("/t/m0.txt", "/t/m2.txt"):
            cascades = hac.counters.get("consistency.cascades")
            hac.unlink(name)
            assert hac.counters.get("consistency.cascades") == cascades + 1
        assert hac.listdir("/q") == ["m1.txt"]


class TestPolicyTriggers:
    def test_max_pending_threshold_drains(self, watched):
        hac = batched(watched)
        hac.maintenance.max_pending = 3
        for i in range(3):
            hac.write_file(f"/mail/bulk{i}.txt", b"bulk mail %d\n" % i)
        assert hac.maintenance.pending == 0
        assert hac.counters.get("sched.drains") >= 1

    def test_op_budget_threshold_drains(self, watched):
        hac = batched(watched)
        hac.maintenance.op_budget = 4
        for i in range(4):
            hac.clock.tick()
            hac.write_file("/mail/hot.txt", b"revision %d\n" % i)
        assert hac.maintenance.pending == 0

    def test_backpressure_drains_inline_never_drops(self, watched):
        hac = batched(watched)
        hac.maintenance.max_pending = 10 ** 9
        hac.maintenance.op_budget = 10 ** 9
        hac.maintenance.capacity = 2
        for i in range(5):
            hac.write_file(f"/mail/flood{i}.txt", b"flood %d\n" % i)
        assert hac.counters.get("sched.backpressure") >= 1
        hac.maintenance.drain()
        for i in range(5):
            assert doc_key(hac, f"/mail/flood{i}.txt") in hac.engine

    def test_barrier_is_noop_when_nothing_pending(self, watched):
        before = watched.counters.get("sched.drains")
        assert watched.maintenance.barrier() == 0
        assert watched.counters.get("sched.drains") == before

    def test_queries_drain_first(self, watched):
        """The pre-query barrier: a semantic directory re-evaluation never
        sees a torn batch."""
        hac = batched(watched)
        hac.smkdir("/lunchdir", "lunch")
        hac.write_file("/mail/msg9.txt", b"second lunch invitation\n")
        assert hac.maintenance.pending > 0
        hac.clock.tick()
        hac.ssync("/")
        assert hac.maintenance.pending == 0
        assert "msg9.txt" in hac.links("/lunchdir")


class TestFailureAndRecovery:
    def test_failed_drain_requeues_and_retry_converges(self, watched,
                                                       monkeypatch):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"transient trouble fingerprint\n")
        key = doc_key(hac, "/mail/msg3.txt")

        def boom(*args, **kwargs):
            raise OSError("ENOSPC")

        monkeypatch.setattr(hac.engine, "index_document", boom)
        with pytest.raises(OSError):
            hac.maintenance.drain()
        assert hac.maintenance.pending == 1
        assert hac.counters.get("sched.requeues") == 1
        monkeypatch.undo()
        hac.maintenance.drain()
        assert key in hac.engine

    def test_group_commit_is_one_journal_intent(self, watched):
        hac = batched(watched)
        begins = hac.counters.get("journal.begins")
        for i in range(6):
            hac.write_file(f"/mail/batch{i}.txt", b"grouped %d\n" % i)
        hac.maintenance.drain()
        assert hac.counters.get("journal.begins") == begins + 1


class TestAsyncSync:
    def test_request_sync_queues_in_batched_mode(self, watched):
        hac = batched(watched)
        assert hac.maintenance.request_sync("/") is True
        assert hac.maintenance.status()["pending_syncs"] == 1
        hac.maintenance.drain()
        assert hac.maintenance.status()["pending_syncs"] == 0

    def test_request_sync_declines_in_eager_mode(self, watched):
        assert watched.maintenance.request_sync("/") is False

    def test_queued_sync_settles_unwatched_changes(self, populated):
        """An async sync queued behind a batch settles files *outside* any
        watch when the drain runs."""
        hac = batched(populated)
        hac.clock.tick()
        hac.write_file("/notes/late.txt", b"late fingerprint addendum\n")
        hac.maintenance.request_sync("/")
        assert doc_key(hac, "/notes/late.txt") not in hac.engine
        hac.maintenance.drain()
        assert doc_key(hac, "/notes/late.txt") in hac.engine


class TestStatus:
    def test_status_shape(self, watched):
        hac = batched(watched)
        hac.write_file("/mail/msg3.txt", b"status check\n")
        status = hac.maintenance.status()
        assert status["mode"] == "batched"
        assert status["pending"] == 1
        assert status["events"] >= 1
        for field in ("pending_syncs", "max_pending", "op_budget",
                      "capacity", "coalesced", "drains", "drained_docs",
                      "backpressure"):
            assert field in status

    def test_drain_emits_spans_and_histograms(self, watched):
        hac = batched(watched)
        hac.obs.enable()
        hac.write_file("/mail/msg3.txt", b"observable fingerprint\n")
        hac.maintenance.drain()
        drains = hac.obs.trace.spans(name="sched.drain")
        applies = hac.obs.trace.spans(name="sched.apply")
        assert drains and drains[-1].attrs["docs"] == 1
        assert applies and applies[-1].attrs["shard"] == "local"
        assert hac.obs.metrics.histogram("sched.batch_docs") is not None


class TestFairShare:
    """Weighted round-robin drain over per-tenant buckets."""

    @pytest.fixture
    def two_tenants(self, hacfs):
        from repro.core.quota import QuotaSpec

        hac = batched(hacfs)
        heavy = hac.tenants.create("heavy", quota=QuotaSpec(weight=3))
        light = hac.tenants.create("light", quota=QuotaSpec(weight=1))
        return hac, heavy, light

    def _fill(self, heavy, light, n_heavy=6, n_light=2):
        for i in range(n_heavy):
            heavy.write_file(f"/h{i}.txt", b"heavy fingerprint %d" % i)
        for i in range(n_light):
            light.write_file(f"/l{i}.txt", b"light fingerprint %d" % i)

    def test_wrr_interleaves_by_weight(self, two_tenants):
        hac, heavy, light = two_tenants
        self._fill(heavy, light)
        sched = hac.maintenance
        order = [e.tenant for e in
                 sched._fair_order(list(sched._pending.values()))]
        # 3:1 interleave: three heavy entries, then light gets a turn
        assert order[:4] == ["heavy", "heavy", "heavy", "light"]
        assert order[4:8] == ["heavy", "heavy", "heavy", "light"]

    def test_single_bucket_keeps_arrival_order(self, two_tenants):
        hac, heavy, _light = two_tenants
        for i in range(4):
            heavy.write_file(f"/h{i}.txt", b"solo fingerprint %d" % i)
        sched = hac.maintenance
        entries = list(sched._pending.values())
        assert sched._fair_order(entries) == entries

    def test_shared_namespace_drains_last_in_the_round(self, two_tenants):
        hac, heavy, light = two_tenants
        hac.watch("/")
        hac.makedirs("/shared")
        hac.write_file("/shared/host.txt", b"host fingerprint")
        self._fill(heavy, light, n_heavy=1, n_light=1)
        sched = hac.maintenance
        order = [e.tenant for e in
                 sched._fair_order(list(sched._pending.values()))]
        assert order == ["heavy", "light", None]

    def test_tenant_barrier_leaves_other_buckets(self, two_tenants):
        hac, heavy, light = two_tenants
        self._fill(heavy, light, n_heavy=3, n_light=2)
        drained = hac.maintenance.barrier(tenant="light")
        assert drained == 2
        assert hac.maintenance.pending_by_tenant() == {"heavy": 3}
        assert light.glimpse("fingerprint", consistency="strong")

    def test_tenant_barrier_with_empty_bucket_is_free(self, two_tenants):
        hac, heavy, light = two_tenants
        self._fill(heavy, light, n_heavy=3, n_light=0)
        before = hac.counters.get("sched.drains")
        assert hac.maintenance.barrier(tenant="light") == 0
        assert hac.counters.get("sched.drains") == before
        assert hac.maintenance.pending == 3

    def test_full_drain_still_takes_everything(self, two_tenants):
        hac, heavy, light = two_tenants
        self._fill(heavy, light)
        assert hac.maintenance.drain() == 8
        assert hac.maintenance.pending_by_tenant() == {}

    def test_status_grows_a_tenants_key_only_with_tenants(self, hacfs):
        hac = batched(hacfs)
        assert "tenants" not in hac.maintenance.status()
        t = hac.tenants.create("solo")
        t.write_file("/f.txt", b"fingerprint")
        assert hac.maintenance.status()["tenants"] == {"solo": 1}

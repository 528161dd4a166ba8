"""Publish integration: scheduler, journal correlation, and health.

The serving tier's write-side discipline is *publish after commit*: a
drain publishes its new snapshot version only once the ``sched_batch``
intent has committed (a rollback must never retract ops already shipped
to replicas), and the ``journal.sched_publish`` event carries that
intent's seq as its op id — extending PR 3's trace <-> journal
bidirectional correlation to snapshot publishes.
"""

import pytest

from repro.cba.queryparser import parse_query


@pytest.fixture
def watched(populated):
    populated.watch("/mail")
    populated.maintenance.set_mode("batched")
    populated.obs.enable()
    return populated


class TestSchedulerPublish:
    def test_drain_publishes_exactly_once(self, watched):
        before = watched.engine.snapshot_info()["version"]
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"fresh fingerprint lead\n")
        watched.write_file("/mail/msg4.txt", b"second lead\n")
        watched.maintenance.drain()
        assert watched.engine.snapshot_info()["version"] == before + 1

    def test_forced_publish_skips_the_drain(self, watched):
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"pending still\n")
        drains = watched.counters.get("sched.drains")
        version = watched.maintenance.publish()
        assert watched.maintenance.pending == 1
        assert watched.counters.get("sched.drains") == drains
        assert watched.counters.get("sched.forced_publishes") == 1
        assert watched.engine.snapshot_info()["version"] == version

    def test_status_reports_serving_state(self, watched):
        watched.engine.attach_replica("r0", lag=1)
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"fresh fingerprint lead\n")
        watched.maintenance.drain()
        status = watched.maintenance.status()
        assert status["snapshot_version"] == \
            watched.engine.snapshot_info()["version"]
        assert status["publishes"] >= 1
        assert status["replica_lag"] == {"r0": 1}  # it skipped one publish
        watched.maintenance.drain()  # nothing pending: no new version
        assert watched.maintenance.status()["snapshot_version"] == \
            status["snapshot_version"]

    def test_health_exposes_snapshots(self, watched):
        snapshots = watched.health()["snapshots"]
        assert snapshots == watched.engine.snapshot_info()


class TestJournalCorrelation:
    def test_publish_event_correlates_to_the_batch_intent(self, watched):
        """Bidirectional check: the ``journal.sched_publish`` event's op id
        is the committed ``sched_batch`` intent's seq, which in turn stamps
        the drain's root span — one chain from version to group commit."""
        trace = watched.obs.trace
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"fresh fingerprint lead\n")
        watched.maintenance.drain()

        events = trace.spans(name="journal.sched_publish")
        assert len(events) >= 1
        event = events[-1]
        assert event.attrs["version"] == \
            watched.engine.snapshot_info()["version"]
        assert event.op_id is not None
        begins = [s for s in trace.spans(name="journal.begin")
                  if s.op_id == event.op_id]
        assert len(begins) == 1
        roots = [s for s in trace.spans(op_id=event.op_id)
                 if s.parent_id is None]
        assert len(roots) == 1 and roots[0].name == "sched.drain"

    def test_forced_publish_event_has_no_intent(self, watched):
        """No batch committed, so there is no seq to correlate — the event
        must say so (op id None) rather than borrow a stale one."""
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"uncommitted\n")
        watched.maintenance.publish()
        event = watched.obs.trace.spans(name="journal.sched_publish")[-1]
        assert event.op_id is None

    def test_empty_drain_does_not_reuse_a_stale_seq(self, watched):
        """A drain that applies no batch (only queued syncs) publishes with
        op id None — never the previous batch's seq."""
        trace = watched.obs.trace
        watched.clock.tick()
        watched.write_file("/mail/msg3.txt", b"first batch\n")
        watched.maintenance.drain()
        first = trace.spans(name="journal.sched_publish")[-1]
        assert first.op_id is not None
        watched.maintenance.request_sync("/mail")
        watched.maintenance.drain()
        second = trace.spans(name="journal.sched_publish")[-1]
        assert second.span_id != first.span_id
        assert second.op_id is None

    def test_journal_counts_publishes(self, watched):
        before = watched.counters.get("journal.publishes")
        watched.maintenance.publish()
        assert watched.counters.get("journal.publishes") == before + 1



COUNTED = ("blockdev.write_ops", "segments.seals", "segments.compactions")


def _drain_twenty(with_replica: bool):
    """Twenty one-document drains over twenty distinct files; returns the
    drains' deltas of :data:`COUNTED` plus their ``seg:`` record writes,
    and the world."""
    from repro.core.hacfs import HacFileSystem

    hac = HacFileSystem()
    hac.makedirs("/docs")
    hac.write_file("/docs/seed.txt", b"fingerprint baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/docs")
    hac.maintenance.set_mode("batched")
    if with_replica:
        hac.engine.attach_replica()
    dev = hac.fs.device
    seg_writes = []
    write_record = dev.write_record

    def spy(key, data):
        if key.startswith("seg:"):
            seg_writes.append(key)
        write_record(key, data)

    dev.write_record = spy
    before = [hac.counters.get(name) for name in COUNTED]
    for i in range(20):
        hac.clock.tick()
        hac.write_file(f"/docs/f{i}.txt", b"fingerprint lead %d\n" % i)
        hac.maintenance.drain()
    counts = {name: hac.counters.get(name) - was
              for name, was in zip(COUNTED, before)}
    counts["seg_writes"] = len(seg_writes)
    return counts, hac


class TestPublishingIsNotPersisting:
    def test_a_replica_changes_no_device_write(self):
        """Twenty drains below the seal threshold persist no segment, and
        a snapshot reader does not change that: publishing hands it a cut
        of the noted rows without sealing the memtable."""
        plain, _hac = _drain_twenty(False)
        counts, hac = _drain_twenty(True)
        assert counts == plain
        assert counts["seg_writes"] == counts["segments.seals"] == \
            counts["segments.compactions"] == 0
        replica = hac.engine.snapshot_view()
        assert replica.counters.get("replica.segment_rows_applied") == 20
        assert len(hac.query_paths(parse_query("lead"),
                                   consistency="snapshot")) == 20

"""Unit tests for the span tracer, and what a file system emits into it."""

import json

import pytest

from repro.core.hacfs import HacFileSystem
from repro.obs.trace import NOOP_SPAN, NULL_TRACER, TraceContext
from repro.util.clock import VirtualClock


def test_disabled_by_default_and_noop_span_is_shared():
    trace = TraceContext()
    assert not trace.enabled
    span = trace.span("x", attr=1)
    assert span is NOOP_SPAN
    with span as s:
        s.set(more=2)  # must be a silent no-op
    trace.event("e")
    trace.set_op_id(7)
    assert trace.spans() == []
    assert len(trace) == 0


def test_null_tracer_is_disabled():
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.span("x") is NOOP_SPAN


def test_span_nesting_and_parents():
    trace = TraceContext(enabled=True)
    with trace.span("outer") as outer:
        with trace.span("inner") as inner:
            assert trace.current() is inner
        with trace.span("inner2"):
            pass
    spans = trace.spans()
    names = [s.name for s in spans]
    # children retire before their parent
    assert names == ["inner", "inner2", "outer"]
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent_id == outer.span_id
    assert by_name["inner2"].parent_id == outer.span_id
    assert by_name["outer"].parent_id is None


def test_event_is_zero_duration_and_nested():
    trace = TraceContext(enabled=True)
    with trace.span("op") as op:
        trace.event("touch", key="k")
    events = trace.spans(name="touch")
    assert len(events) == 1
    assert events[0].parent_id == op.span_id
    assert events[0].wall_seconds == 0.0
    assert events[0].attrs == {"key": "k"}


def test_set_op_id_stamps_the_root_span():
    trace = TraceContext(enabled=True)
    with trace.span("root"):
        with trace.span("child"):
            trace.set_op_id(42)
    root = trace.spans(name="root")[0]
    child = trace.spans(name="child")[0]
    assert root.op_id == 42
    assert child.op_id is None
    assert trace.spans(op_id=42) == [root]


def test_set_op_id_without_open_span_is_a_noop():
    trace = TraceContext(enabled=True)
    trace.set_op_id(3)  # nothing open — must not raise
    assert trace.spans() == []


def test_error_capture_on_exception():
    trace = TraceContext(enabled=True)
    with pytest.raises(ValueError):
        with trace.span("boom"):
            raise ValueError("bad")
    span = trace.spans(name="boom")[0]
    assert span.error == "ValueError: bad"


def test_exception_unwinds_skewed_stack():
    """A child abandoned by an exception is retired when the parent exits."""
    trace = TraceContext(enabled=True)
    with pytest.raises(RuntimeError):
        with trace.span("outer"):
            child = trace.span("child")
            child.__enter__()
            raise RuntimeError("no exit for child")
    assert {s.name for s in trace.spans()} == {"outer", "child"}
    assert trace.current() is None


def test_virtual_clock_intervals():
    clock = VirtualClock()
    trace = TraceContext(clock=clock, enabled=True)
    with trace.span("timed"):
        clock.advance(2.5)
    span = trace.spans(name="timed")[0]
    assert span.virtual_seconds == pytest.approx(2.5)


def test_ring_buffer_drops_oldest():
    trace = TraceContext(enabled=True, capacity=3)
    for i in range(5):
        trace.event(f"e{i}")
    assert [s.name for s in trace.spans()] == ["e2", "e3", "e4"]
    assert trace.dropped == 2


def test_clear_resets_everything():
    trace = TraceContext(enabled=True, capacity=2)
    for i in range(4):
        trace.event(f"e{i}")
    trace.clear()
    assert trace.spans() == [] and trace.dropped == 0


def test_export_jsonl_round_trips():
    trace = TraceContext(enabled=True)
    with trace.span("op", path="/x") as span:
        span.set(hits=3)
    lines = trace.export_jsonl().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["name"] == "op"
    assert obj["attrs"] == {"path": "/x", "hits": 3}
    assert obj["parent"] is None
    assert obj["wall_ms"] >= 0.0


def test_breakdown_subtracts_child_time():
    trace = TraceContext(enabled=True)
    with trace.span("outer"):
        with trace.span("inner"):
            pass
    breakdown = trace.breakdown()
    assert set(breakdown) == {"outer", "inner"}
    assert breakdown["outer"]["count"] == 1
    assert breakdown["outer"]["self_ms"] <= breakdown["outer"]["wall_ms"]
    # inner has no children: self == wall
    assert breakdown["inner"]["self_ms"] == breakdown["inner"]["wall_ms"]


def test_to_obj_shape():
    trace = TraceContext(enabled=True)
    with trace.span("op", op_id=9):
        pass
    obj = trace.spans()[0].to_obj()
    assert obj["op"] == 9
    assert obj["t1"] >= obj["t0"]
    assert "attrs" not in obj  # empty attrs stay out of the export


def _mixed_workload(hac):
    """Touches every instrumented layer: VFS, device, CBA, cascade, WAL."""
    hac.makedirs("/docs")
    for i in range(6):
        hac.write_file(f"/docs/f{i}.txt",
                       f"alpha beta gamma doc{i}\n".encode())
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/q-alpha", "alpha")
    hac.smkdir("/q-beta", "beta AND gamma")
    hac.set_query("/q-beta", "beta")
    hac.unlink("/docs/f0.txt")
    hac.clock.tick()
    hac.ssync("/")


def test_a_file_system_captures_nothing_until_asked():
    plain = HacFileSystem()
    _mixed_workload(plain)
    assert not plain.obs.enabled
    assert plain.obs.trace.spans() == []
    assert plain.obs.metrics.histograms() == {}


def test_every_journaled_op_owns_one_root_span_across_all_layers():
    traced = HacFileSystem()
    traced.obs.enable()
    _mixed_workload(traced)
    trace = traced.obs.trace
    spans = trace.spans()
    assert trace.dropped == 0

    # journal seq <-> root span op id, for committed intents too (the
    # crash sweep checks the rolled-back ones)
    begin_seqs = {s.op_id for s in trace.spans(name="journal.begin")}
    root_op_ids = {s.op_id for s in spans
                   if s.parent_id is None and s.op_id is not None}
    assert begin_seqs and root_op_ids == begin_seqs
    assert traced.counters.get("journal.begins") == len(begin_seqs)

    by_id = {s.span_id for s in spans}
    assert all(s.parent_id in by_id for s in spans
               if s.parent_id is not None)
    assert {"vfs.write_file", "dev.write_record", "cba.search",
            "hac.cascade", "hac.reevaluate", "journal.begin",
            "journal.commit", "hac.smkdir"} <= {s.name for s in spans}
    hist = traced.obs.metrics.histogram("cba.candidate_blocks")
    assert hist is not None and hist.count > 0
    for name, row in trace.breakdown().items():
        assert row["self_ms"] <= row["wall_ms"] + 1e-6, name

"""Span bookkeeping: self time from nested, sibling and generator spans,
and wrappers that leave no mark once uninstalled."""

import time

from e2e import trace


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def near(value, expected):
    """A busy-wait lasts at least what was asked; a preempted one longer."""
    return expected - 2e-4 <= value <= 2 * expected + 2e-3


def make(tracer, layer, name, fn):
    return trace.wrap(tracer, fn, tracer.register(layer, name))


def test_self_time_of_nested_and_sibling_spans():
    tracer = trace.Tracer()
    leaf = make(tracer, "t.leaf", "leaf", lambda: spin(0.004))

    def mid():
        spin(0.002)
        leaf()
        leaf()
    mid = make(tracer, "t.mid", "mid", mid)

    def root():
        spin(0.003)
        mid()
        leaf()
    root = make(tracer, "t.root", "root", root)

    root()                                   # tracing off: no spans
    assert len(tracer) == 0
    tracer.on = True
    root()
    tracer.on = False
    assert [tracer.names[i] for i in tracer.name_id] == [
        "t.root/root", "t.mid/mid", "t.leaf/leaf", "t.leaf/leaf",
        "t.leaf/leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 1, 0]
    assert list(tracer.op) == [0] * 5        # one facade call
    table = trace.breakdown(tracer)
    assert table.roots == 1
    assert table.calls["t.leaf"] == 3 and table.calls["t.mid"] == 1
    assert near(table.self_s["t.leaf"], 0.012)
    assert near(table.self_s["t.mid"], 0.002)
    assert near(table.self_s["t.root"], 0.003)
    # self times add up to the root's wall: nothing counted twice
    assert abs(sum(table.self_s.values()) - table.root_wall_s) < 1e-6


def test_generator_span_counts_only_time_inside_next():
    tracer = trace.Tracer()
    inner = make(tracer, "t.inner", "inner", lambda: spin(0.002))

    def produce(n):
        for i in range(n):
            spin(0.001)
            inner()
            yield i
    produce = make(tracer, "t.gen", "produce", produce)

    def consume():
        total = 0
        for item in produce(3):
            spin(0.003)                      # the consumer's own time
            total += item
        return total
    consume = make(tracer, "t.consumer", "consume", consume)

    assert list(produce(2)) == [0, 1] and len(tracer) == 0
    tracer.on = True
    assert consume() == 3
    tracer.on = False
    table = trace.breakdown(tracer)
    assert table.calls["t.gen"] == 1 and table.calls["t.inner"] == 3
    assert near(table.self_s["t.gen"], 0.003)
    assert near(table.self_s["t.inner"], 0.006)
    assert near(table.self_s["t.consumer"], 0.009)
    gen_span = list(tracer.name_id).index(
        tracer.names.index("t.gen/produce"))
    assert all(tracer.parent[i] == gen_span
               for i in range(len(tracer))
               if tracer.names[tracer.name_id[i]] == "t.inner/inner")


def test_wrapper_cost_is_subtracted():
    tracer = trace.Tracer()
    leaf = make(tracer, "t.leaf", "leaf", lambda: None)

    def root():
        for _ in range(1000):
            leaf()
    root = make(tracer, "t.root", "root", root)
    tracer.on = True
    root()
    tracer.on = False
    raw = trace.breakdown(tracer)
    inside, outside = trace.calibrate(calls=5000)
    assert inside > 0 and outside >= 0
    net = trace.breakdown(tracer, inside, outside)
    assert net.self_s["t.root"] < raw.self_s["t.root"]
    assert net.self_s["t.leaf"] < raw.self_s["t.leaf"]


def test_install_and_uninstall_leave_the_originals():
    from repro.cba import queryparser
    from repro.core import hacfs as hacfs_module
    from repro.core.hacfs import HacFileSystem
    from repro.core.tenant import Tenant
    from repro.vfs import walker
    from repro.vfs.pathmap import PathMap

    watched = [(Tenant, "glimpse"), (PathMap, "lookup"),
               (HacFileSystem, "restore"), (walker, "walk"),
               (queryparser, "parse_query"), (hacfs_module, "parse_query"),
               (hacfs_module, "walk")]
    before = [vars(owner)[name] for owner, name in watched]
    tracer = trace.Tracer()
    patches, missing = trace.install(tracer)
    try:
        assert missing == []
        assert all(vars(owner)[name] is not original
                   for (owner, name), original in zip(watched, before))
        # a ``from x import f`` binding is patched where it was imported
        assert hacfs_module.parse_query is queryparser.parse_query
        assert isinstance(vars(HacFileSystem)["restore"], classmethod)
        # installed but switched off: calls go straight through, no spans
        hac = HacFileSystem()
        tenant = hac.tenants.create("t")
        tenant.write_file("/x.txt", b"fingerprint")
        assert tenant.glimpse("fingerprint") == ["/x.txt"]
        assert len(tracer) == 0
        tracer.on = True
        assert tenant.glimpse("fingerprint") == ["/x.txt"]
        tracer.on = False
        table = trace.breakdown(tracer)
        assert table.roots == 1 and table.calls["core.tenant"] >= 1
        assert table.calls["cba.queryparser"] == 1
        assert table.calls["cba.engine"] >= 1
    finally:
        trace.uninstall(patches)
    assert [vars(owner)[name] for owner, name in watched] == before
    assert all(vars(owner)[name] is original
               for (owner, name), original in zip(watched, before))

"""The DocRegistry write funnel and its dense ``doc_id -> path`` column.

Every surface that answers queries — engine, K-shard cluster, read
replica, cluster cut — must read the same paths in bulk (``paths_of``) as
row by row (``doc_by_id``), whatever sequence of writes, restores and
replica catch-ups produced its registry.
"""

import random

import pytest

from repro.cba.engine import CBAEngine
from repro.cluster import ShardedSearchCluster
from repro.util.bitmap import Bitmap

from tests.properties.reference import SEED, assert_paths_column

WORDS = ["alpha", "beta", "gamma", "delta"]
DIRS = ["/a", "/a/b", "/c", "/moved"]
REBASES = [("/a", "/moved/a"), ("/moved/a", "/a"), ("/c", "/a/c"),
           ("/a/c", "/c")]


def build(kind, loader):
    if kind == "cluster":
        return ShardedSearchCluster(loader, ["s0", "s1", "s2"], latency=0.0)
    return CBAEngine(loader, segmented=(kind == "segmented"))


def assert_all_surfaces(backend):
    assert_paths_column(backend)
    backend.publish()
    view = backend.snapshot_view()
    assert_paths_column(view)
    assert sorted(view.paths_of(view.all_docs())) == \
        sorted(backend.paths_of(backend.all_docs()))


@pytest.mark.parametrize("kind", ["monolith", "segmented", "cluster"])
def test_the_column_follows_every_row_write(kind):
    rng = random.Random(0xC01 + SEED)
    store = {}
    backend = build(kind, lambda key: store.get(key, ""))
    live = []
    for step in range(80):
        r = rng.random()
        if r < 0.35 or not live:
            key = ("f", step)
            store[key] = " ".join(rng.choices(WORDS, k=3))
            # a pinned id leaves burned slots behind it, like a
            # scheduler reservation that went unused
            pin = backend.reserve_doc_id() if rng.random() < 0.3 else None
            if pin is not None and rng.random() < 0.5:
                pin = None
            backend.index_document(key, f"{rng.choice(DIRS)}/f{step}", 1.0,
                                   doc_id=pin)
            live.append(key)
        elif r < 0.50:
            key = rng.choice(live)
            store[key] = " ".join(rng.choices(WORDS, k=3))
            backend.update_document(key, backend.doc_by_key(key).path, 2.0)
        elif r < 0.65:
            key = live.pop(rng.randrange(len(live)))
            backend.remove_document(key)
        elif r < 0.80:
            backend.rename_document(rng.choice(live),
                                    f"{rng.choice(DIRS)}/r{step}")
        else:
            backend.rebase_paths(*rng.choice(REBASES))
        assert_paths_column(backend)
        if step % 8 == 0:
            assert_all_surfaces(backend)
    assert_all_surfaces(backend)

    # wholesale loads rebuild the column: persisted rows, a fresh
    # replica's hydrate, and (segmented) the segment merge
    loader = lambda key: store.get(key, "")
    revived = type(backend).from_obj(backend.to_obj(), loader)
    assert_all_surfaces(revived)
    assert revived.paths_of(revived.all_docs()) == \
        backend.paths_of(backend.all_docs())
    if kind == "segmented":
        backend.segments.seal()
        merged = CBAEngine.from_segments(backend.segments, loader,
                                         next_doc_id=backend._next_doc_id)
        assert_all_surfaces(merged)
    if kind != "cluster":
        assert_paths_column(backend.attach_replica("late"))


def test_paths_of_skips_withdrawn_and_never_indexed_ids():
    engine = CBAEngine(lambda key: "alpha")
    engine.reserve_doc_id()                       # id 0: burned, unused
    for name in "abc":
        engine.index_document(name, f"/{name}", 1.0)
    engine.remove_document("b")
    assert engine.paths_of(Bitmap([0, 1, 2, 3])) == ["/a", "/c"]
    assert engine.paths_of(Bitmap()) == []
    with pytest.raises(IndexError):
        engine.paths_of(Bitmap([99]))             # an id nobody allocated

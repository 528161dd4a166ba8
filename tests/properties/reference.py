"""The one reference the query-side equivalence suites compare against.

The fast-path, query-fuzz and CAS suites all make the same claim: however
a query is answered — planner, doc-level postings, verification memo,
result cache, CAS probes, K shards — the answer serialises byte-for-byte
equal to what the seed evaluation returns.  The seed evaluation lives on
as :class:`repro.baselines.scanengine.ScanEngine`; :func:`build_pair`
builds it next to the engine under test over the same keys, ids, paths
and loader, and :class:`Pair` keeps the two in lockstep through
mutations.

``REF_SEED`` shifts the fuzz seeds and ``REF_K`` (>0) puts a K-shard
cluster under test instead of the monolithic engine (the CI
``reference-*`` cells of the ``sweeps`` matrix run 3 seeds x {monolith, K=3}).
"""

import os

from repro.baselines.scanengine import ScanEngine
from repro.cba.engine import CBAEngine
from repro.cluster import ShardedSearchCluster
from repro.cluster.coordinator import ClusterSnapshotView
from repro.util import pathutil
from repro.util.bitmap import Bitmap

SEED = int(os.environ.get("REF_SEED", "0"))
K = int(os.environ.get("REF_K", "0"))


def assert_paths_column(surface) -> None:
    """The bulk answer read agrees with the per-row one on *surface* (an
    engine, a cluster, a replica or a cluster cut): ``paths_of`` over
    everything it holds is ``doc_by_id(i).path`` for each id — in id
    order, except that a cluster cut answers shard by shard."""
    ids = surface.all_docs()
    want = [surface.doc_by_id(i).path for i in ids]
    got = surface.paths_of(ids)
    if isinstance(surface, ClusterSnapshotView):
        got, want = sorted(got), sorted(want)
    assert got == want, surface
    column = getattr(surface, "_paths", None)
    if column is not None:
        assert len(column) >= surface._next_doc_id, surface
        assert sum(path is not None for path in column) == len(surface)


class Pair:
    """The engine under test and its scan reference over one store."""

    def __init__(self, subject, reference, store):
        self.subject = subject
        self.reference = reference
        self.store = store

    def both(self, method, *args, **kwargs):
        """Apply one maintenance call to both engines."""
        for backend in (self.subject, self.reference):
            getattr(backend, method)(*args, **kwargs)
            assert_paths_column(backend)

    def check(self, ast, scope=None) -> Bitmap:
        """Assert bit-identity on *ast*; returns the reference answer."""
        want = self.reference.search(ast, scope)
        got = self.subject.search(ast, scope)
        assert got.to_bytes() == want.to_bytes(), ast
        return want

    def scan_under(self, prefix) -> Bitmap:
        """Registry scan-and-filter: what ``scope_docs`` must equal."""
        ref = self.reference
        return Bitmap(d for d in ref.all_docs() if pathutil.is_ancestor(
            prefix, pathutil.canonical(ref.doc_by_id(d).path), strict=False))


def build_pair(docs, num_blocks=4, **config) -> Pair:
    """Index *docs* — texts, or ``(path, text)`` pairs — into the engine
    under test (monolith, or a ``REF_K``-shard cluster) and the reference,
    under keys ``0..n-1``."""
    docs = [doc if isinstance(doc, tuple) else (f"/{i}", doc)
            for i, doc in enumerate(docs)]
    store = {i: text for i, (_path, text) in enumerate(docs)}

    def loader(key):
        return store.get(key, "")

    if K:
        subject = ShardedSearchCluster(loader, [f"s{i}" for i in range(K)],
                                       num_blocks=num_blocks, latency=0.0,
                                       **config)
    else:
        subject = CBAEngine(loader, num_blocks=num_blocks, **config)
    pair = Pair(subject, ScanEngine(loader, num_blocks=num_blocks, **config),
                store)
    for key, (path, _text) in enumerate(docs):
        pair.both("index_document", key, path=path, mtime=0.0)
    return pair

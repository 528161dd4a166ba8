"""The one reference the query-side equivalence suites compare against.

The fast-path, query-fuzz and CAS suites all make the same claim: however
a query is answered — planner, doc-level postings, verification memo,
result cache, CAS probes, K shards — the answer serialises byte-for-byte
equal to what the seed evaluation returns.  The seed evaluation lives on
as :class:`repro.baselines.scanengine.ScanEngine`; :func:`build_pair`
builds it next to the engine under test over the same keys, ids, paths
and loader, and :class:`Pair` keeps the two in lockstep through
mutations.

The cascade suites make the matching claim one layer up: however a
semantic directory's links are *maintained* — shared scopes, doc-id
algebra, skipped writes — they are the links §2.3 defines, which
:func:`expected_links` computes from scratch and
:func:`assert_links_from_scratch` compares with everything HAC keeps.

``REF_SEED`` shifts the fuzz seeds and ``REF_K`` (>0) puts a K-shard
cluster under test instead of the monolithic engine (the CI
``reference-*`` cells of the ``sweeps`` matrix run 3 seeds x {monolith, K=3}).
"""

import os

from repro.baselines.scanengine import ScanEngine
from repro.cba import agrep, evaluator
from repro.cba import queryast as qa
from repro.cba.engine import CBAEngine
from repro.cluster import ShardedSearchCluster
from repro.cluster.coordinator import ClusterSnapshotView
from repro.core.links import Target
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


# ----------------------------------------------------------------------
# maintained = from scratch: the §2.3 definition, the slow way
# ----------------------------------------------------------------------

def _tree_keys(hac, top, recurse):
    """One read of the tree at *top*: every regular file, and what the
    symlinks of *plain* directories point at (a semantic directory's
    links are its result, not part of the tree)."""
    keys = set()
    plain = hac.scopes.semantic_state(top) is None
    for name in hac.fs.listdir(top):
        child = pathutil.join(top, name)
        st = hac.fs.lstat(child)
        if st.is_dir:
            keys |= _tree_keys(hac, child, True) if recurse else set()
        elif not st.is_symlink or (plain and hac.fs.isfile(child)):
            st = hac.fs.stat(child)
            keys.add((st.fsid, st.ino))
    return keys


def scope_keys(hac, path):
    """Keys of the files directory *path* provides (docs/SEMANTICS.md §3):
    the root's every indexed document; a plain directory's subtree; a
    semantic directory's link targets and the files placed in it."""
    if path == "/":
        return {hac.engine.doc_by_id(i).key for i in hac.engine.all_docs()}
    state = hac.scopes.semantic_state(path)
    if state is None:
        return _tree_keys(hac, path, True)
    return _tree_keys(hac, path, False) | {
        t.key for t in state.links.all_targets() if t.is_local}


def oracle_match(hac, node, key, text) -> bool:
    """Does one document match?  (The production evaluator is set-based;
    this decides a document at a time.)  A content-only subtree is
    agrep's verdict on the document's own text."""
    if isinstance(node, qa.DirRef):
        path = hac.dirmap.path_of(node.uid)
        return path is not None and key in scope_keys(hac, path)
    if evaluator.is_content_only(node):
        return agrep.matches(text, node)
    if isinstance(node, qa.And):
        return all(oracle_match(hac, c, key, text) for c in node.children)
    if isinstance(node, qa.Or):
        return any(oracle_match(hac, c, key, text) for c in node.children)
    assert isinstance(node, qa.Not), node
    return not oracle_match(hac, node.child, key, text)


def expected_links(hac, uid):
    """transient = {f in scope(parent) : f matches} - permanent - prohibited"""
    state = hac.meta.require(uid)
    parent = pathutil.dirname(hac.dirmap.path_of(uid))
    hits = {Target.local(*key) for key in scope_keys(hac, parent)
            if key in hac.engine
            and oracle_match(hac, state.query, key, hac.engine.loader(key))}
    return hits - set(state.links.permanent.values()) - state.links.prohibited


def assert_links_from_scratch(hac, where=None) -> None:
    """Every semantic directory's link table, symlink entries, link texts
    and result are what a from-scratch evaluation gives.  Only meaningful
    on settled, index-fresh state: drains first."""
    hac.maintenance.barrier()
    for path in hac.semantic_dirs():
        at = (where, path)
        uid = hac.dirmap.uid_of(path)
        links = hac.meta.require(uid).links
        transient = set(links.transient.values())
        assert len(transient) == len(links.transient), at
        assert {t for t in transient if t.is_local} \
            == expected_links(hac, uid), at
        for name in links.names():
            target = links.target_of(name)
            live = hac.path_for_target(target)
            assert hac.fs.islink(pathutil.join(path, name)), at + (name,)
            if live is not None:
                assert hac.fs.readlink(pathutil.join(path, name)) == live, \
                    at + (name,)
        ids = (hac.engine.doc_id_of(t.key)
               for t in links.all_targets() if t.is_local)
        assert hac.meta.require(uid).result_cache \
            == Bitmap(i for i in ids if i is not None), at

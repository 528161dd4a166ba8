"""The SearchBackend protocol: one formal contract, two back-ends."""

import pytest

from repro.cba.backend import SearchBackend
from repro.cba.engine import CBAEngine
from repro.cluster import ShardedSearchCluster


def _loader(_key):
    return ""


@pytest.fixture(params=["engine", "cluster"])
def backend(request):
    if request.param == "engine":
        return CBAEngine(loader=_loader)
    return ShardedSearchCluster(_loader, ["s0", "s1"], latency=0.0)


def test_every_backend_satisfies_the_protocol(backend):
    # runtime_checkable verifies method presence; the equivalence suites
    # verify behaviour — together they replace the old hasattr sniffing
    assert isinstance(backend, SearchBackend)
    # the path dimension is part of the contract, not optional surface:
    # scope: terms, tenant doc counts and dir renames call it directly
    assert backend.scope_docs("/nowhere").to_bytes() == b""
    assert backend.scope_count("/nowhere") == 0
    assert backend.rebase_paths("/nowhere", "/elsewhere") == 0


def test_path_dimension_is_required_by_the_protocol():
    names = [name for name in vars(SearchBackend)
             if not name.startswith("_") or name in ("__len__",
                                                     "__contains__")]

    def stub_backend(without=None):
        return type("Stub", (), {name: lambda self, *a, **k: None
                                 for name in names if name != without})()

    assert isinstance(stub_backend(), SearchBackend)
    for name in ("scope_docs", "scope_count", "rebase_paths"):
        assert not isinstance(stub_backend(without=name), SearchBackend), name


def test_protocol_is_not_vacuous():
    assert not isinstance(object(), SearchBackend)
    assert not isinstance({}, SearchBackend)


def test_degradation_surface_defaults(backend):
    """Non-sharded back-ends answer the degradation queries with explicit
    empty values, so callers need no hasattr fallback."""
    if isinstance(backend, ShardedSearchCluster):
        assert set(backend.health()) == {"s0", "s1"}
        assert backend.shard_of(("fs#1", 2)) in {"s0", "s1"}
    else:
        assert backend.health() == {}
        assert backend.shard_of("anything") is None
        assert backend.reset_missing_shards() == set()


def test_doc_id_reservation_is_monotonic(backend):
    a = backend.reserve_doc_id()
    b = backend.reserve_doc_id()
    assert b == a + 1


def test_reserved_id_is_honoured_and_never_reissued():
    engine = CBAEngine(loader=_loader)
    reserved = engine.reserve_doc_id()
    got = engine.index_document("k1", "/k1", 1.0, text="alpha",
                                doc_id=reserved)
    assert got == reserved
    assert engine.index_document("k2", "/k2", 1.0, text="beta") > reserved


def test_cluster_rejects_duplicate_pinned_id():
    cluster = ShardedSearchCluster(_loader, ["s0", "s1"], latency=0.0)
    doc_id = cluster.index_document("k1", "/k1", 1.0, text="alpha")
    with pytest.raises(ValueError):
        cluster.index_document("k2", "/k2", 1.0, text="beta", doc_id=doc_id)


def test_cluster_search_blocks_matches_monolith():
    """The phase-2-only entry point verifies caller-nominated blocks with
    answers bit-identical to the monolithic engine's."""
    from repro.cba.queryparser import parse_query

    corpus = {f"doc{i}": ("fingerprint ridge" if i % 3 == 0 else "banana")
              for i in range(12)}
    mono = CBAEngine(loader=corpus.get)
    cluster = ShardedSearchCluster(corpus.get, ["s0", "s1", "s2"],
                                   latency=0.0)
    for i, (key, text) in enumerate(sorted(corpus.items())):
        mono.index_document(key, f"/{key}", float(i), text=text)
        cluster.index_document(key, f"/{key}", float(i), text=text)
    query = parse_query("fingerprint")
    blocks = mono.index.occupied_blocks()
    assert cluster.search_blocks(query, blocks).to_bytes() == \
        mono.search_blocks(query, blocks).to_bytes()


def test_serving_surface_is_uniform(backend):
    """Every back-end publishes versions and serves snapshot views with
    the same shape — the serving tier never special-cases a back-end."""
    info = backend.snapshot_info()
    assert set(info) >= {"version", "pending_ops", "replicas"}
    assert backend.publish() == info["version"] + 1
    view = backend.snapshot_view()
    assert view.all_docs().to_bytes() == backend.all_docs().to_bytes()
    after = backend.snapshot_info()
    assert after["replicas"], "snapshot_view must attach a replica"
    assert all(r["version"] == after["version"] for r in after["replicas"])


# ---------------------------------------------------------------------------
# open_backend: the unified construction surface
# ---------------------------------------------------------------------------


class TestOpenBackend:
    def test_none_and_monolith_specs_build_an_engine(self):
        from repro.cba.backend import BackendFactory, open_backend

        for spec in (None, "monolith", {"kind": "monolith"}):
            factory = open_backend(spec)
            assert isinstance(factory, BackendFactory)
            engine = factory(_loader)
            assert isinstance(engine, CBAEngine)
            assert engine.segments is not None  # today's default

    def test_cluster_spec_parses_shard_count(self):
        from repro.cba.backend import BackendFactory, open_backend

        factory = open_backend("cluster:4")
        assert isinstance(factory, BackendFactory)
        cluster = factory(_loader)
        assert isinstance(cluster, ShardedSearchCluster)
        assert len(cluster.shards) == 4
        # shard engines keep the op log by default
        assert all(s.engine.segments is None for s in cluster.shards.values())

    def test_cluster_dict_spec_passes_options(self):
        from repro.cba.backend import open_backend

        factory = open_backend({"kind": "cluster", "shards": 2,
                                "latency": 0.0})
        assert len(factory(_loader).shards) == 2

    def test_unknown_kind_is_rejected(self):
        from repro.cba.backend import open_backend

        # a mounted remote system is a NameSpace, not a search back-end
        for spec in ("warehouse", "remote", "remote:digilib"):
            with pytest.raises(ValueError):
                open_backend(spec)

    def test_backend_objects_pass_through(self):
        from repro.cba.backend import open_backend

        factory = open_backend("cluster:2")
        assert open_backend(factory) is factory

    def test_removed_twin_keywords_raise_type_error(self):
        """The on/off twins and the ``engine_factory=`` shim are gone, not
        ignored: a stale caller fails loudly at the call site."""
        from repro.cba.glimpse import GlimpseIndex
        from repro.core.hacfs import HacFileSystem
        from repro.vfs.filesystem import FileSystem

        hac = HacFileSystem(backend="cluster:2")
        assert len(hac.engine.shards) == 2
        for build in (
                lambda: HacFileSystem(engine_factory=lambda **kw: None),
                lambda: HacFileSystem(fast_path=False),
                lambda: HacFileSystem(path_map=False),
                lambda: HacFileSystem(segmented=False),
                lambda: HacFileSystem.restore(hac.fs, fast_path=False),
                lambda: HacFileSystem.restore(hac.fs, segmented=False),
                lambda: HacFileSystem.restore(hac.fs, engine_factory=None),
                lambda: FileSystem(path_map=False),
                lambda: CBAEngine(_loader, fast_path=False),
                lambda: CBAEngine(_loader, cas=False),
                lambda: CBAEngine.from_obj(CBAEngine(_loader).to_obj(),
                                           _loader, fast_path=False),
                lambda: ShardedSearchCluster(_loader, ["s0"], cas=False),
                lambda: ShardedSearchCluster(_loader, ["s0"],
                                             fast_path=False),
                lambda: GlimpseIndex(track_doc_postings=False)):
            with pytest.raises(TypeError):
                build()

    def test_restore_accepts_a_backend_spec(self):
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem(backend="cluster:2")
        hac.makedirs("/notes")
        hac.write_file("/notes/a.txt", b"fingerprint ridges")
        hac.ssync("/")
        hac.save_index()
        again = HacFileSystem.restore(hac.fs, backend="cluster:2")
        assert len(again.engine.shards) == 2
        assert len(again.engine) == 1  # the saved index came back

"""Unit tests for the CBA engine facade."""

import pytest

from repro.baselines.scanengine import ScanEngine
from repro.cba.engine import CBAEngine
from repro.cba.queryast import MatchAll, Not, Term
from repro.cba.queryparser import parse_query
from repro.cluster import ShardedSearchCluster
from repro.util.bitmap import Bitmap

CORPUS = {
    "a": "the fingerprint matching system for the fbi",
    "b": "image processing of fingerprint images",
    "c": "banana bread recipe",
    "d": "notes on the murder case with fingerprint evidence",
}


def build_engine(cls=CBAEngine, **kwargs):
    store = dict(CORPUS)
    eng = cls(loader=lambda k: store.get(k, ""), **kwargs)
    eng.store = store  # test hook
    for i, (key, text) in enumerate(sorted(store.items())):
        eng.index_document(key, path=f"/{key}.txt", mtime=1.0)
    return eng


@pytest.fixture
def engine():
    return build_engine()


def keys_of(engine, bitmap):
    return sorted(engine.doc_by_id(d).key for d in bitmap)


class TestRegistry:
    def test_lookups(self, engine):
        doc = engine.doc_by_key("a")
        assert doc.path == "/a.txt"
        assert engine.doc_by_id(doc.doc_id).key == "a"
        assert engine.doc_id_of("zzz") is None
        assert "a" in engine and "zzz" not in engine
        assert len(engine) == 4

    def test_duplicate_index_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.index_document("a", path="/x", mtime=2.0)

    def test_remove(self, engine):
        engine.remove_document("c")
        assert "c" not in engine
        assert not engine.search(Term("banana"))
        with pytest.raises(KeyError):
            engine.remove_document("c")

    def test_update(self, engine):
        engine.store["c"] = "now about fingerprint too"
        engine.update_document("c", path="/c.txt", mtime=2.0)
        assert "c" in keys_of(engine, engine.search(Term("fingerprint")))
        assert not engine.search(Term("banana"))

    def test_update_unknown_rejected(self, engine):
        with pytest.raises(KeyError):
            engine.update_document("zzz", path="/x", mtime=0.0)

    def test_rename_document(self, engine):
        engine.rename_document("a", "/moved.txt")
        assert engine.doc_by_key("a").path == "/moved.txt"
        with pytest.raises(KeyError):
            engine.rename_document("zzz", "/x")

    def test_mtime_snapshot(self, engine):
        snap = engine.mtime_snapshot()
        assert snap == {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}


class TestSearch:
    def test_term(self, engine):
        assert keys_of(engine, engine.search(Term("fingerprint"))) == ["a", "b", "d"]

    def test_boolean(self, engine):
        ast = parse_query("fingerprint AND NOT murder")
        assert keys_of(engine, engine.search(ast)) == ["a", "b"]

    def test_scope_restricts(self, engine):
        scope = Bitmap([engine.doc_id_of("a"), engine.doc_id_of("c")])
        assert keys_of(engine, engine.search(Term("fingerprint"), scope)) == ["a"]

    def test_matchall_no_scanning(self, engine):
        before = engine.counters.get("engine.docs_scanned")
        result = engine.search(MatchAll())
        assert len(result) == 4
        assert engine.counters.get("engine.docs_scanned") == before

    def test_pure_not_scans_scope(self, engine):
        result = engine.search(Not(Term("fingerprint")))
        assert keys_of(engine, result) == ["c"]

    def test_naive_equals_indexed(self, engine):
        for text in ("fingerprint", "fingerprint AND NOT murder",
                     '"banana bread"', "fbi OR murder", "evidnce~1"):
            ast = parse_query(text)
            assert engine.search(ast) == engine.naive_search(ast), text

    def test_index_narrows_scanning(self, engine):
        engine.counters.reset()
        engine.search(Term("banana"))
        scanned = engine.counters.get("engine.docs_scanned")
        assert scanned <= 1  # only block holding "c" gets scanned

    def test_stale_loader_content_is_consistent_with_scan(self):
        # scan-path semantics (the seed reference engine): content changed
        # but not reindexed — the index still nominates the doc, the scan
        # sees the new text — data inconsistency, §2.4 style
        engine = build_engine(cls=ScanEngine)
        engine.store["d"] = "totally different now"
        assert keys_of(engine, engine.search(Term("fingerprint"))) == ["a", "b"]

    def test_stale_loader_content_fast_path_answers_from_index(self, engine):
        # the engine's semantics: term queries are answered from the index
        # state, so unindexed content changes stay invisible until the next
        # reindex — the other consistent reading of the §2.4 lazy policy
        engine.store["d"] = "totally different now"
        assert keys_of(engine, engine.search(Term("fingerprint"))) == ["a", "b", "d"]
        engine.update_document("d", path="/d.txt", mtime=2.0)
        assert keys_of(engine, engine.search(Term("fingerprint"))) == ["a", "b"]

    def test_extract(self, engine):
        lines = engine.extract("d", Term("murder"))
        assert lines == ["notes on the murder case with fingerprint evidence"]


#: ``of`` and ``the`` are stopwords: the scanner sees them, the index not
UNINDEXED = {"a": "alpha of beta", "b": "of gamma", "c": "alpha delta",
             "d": "the zeta"}
UNINDEXED_ANSWERS = {"alpha AND of": ["a"], "alpha OR of": ["a", "b", "c"],
                     "of": ["a", "b"], "NOT NOT of": ["a", "b"],
                     '"alpha of"': ["a"]}


def build_unindexed(backend, keys, num_blocks):
    """:data:`UNINDEXED` indexed in the order of *keys* (so doc ids, and
    with them blocks, follow that order)."""
    if backend == "cluster":
        eng = ShardedSearchCluster(UNINDEXED.get, ["s0", "s1", "s2"],
                                   num_blocks=num_blocks, latency=0.0)
    else:
        eng = CBAEngine(UNINDEXED.get, num_blocks=num_blocks)
    for key in keys:
        eng.index_document(key, path=f"/{key}.txt", mtime=1.0)
    return eng


class TestUnindexedWords:
    """A word the index does not hold nominates every block, so a
    document's verdict is agrep's on its own text, wherever it lies."""

    @pytest.mark.parametrize("backend", ["engine", "cluster"])
    def test_answers_ignore_block_placement(self, backend):
        for keys in (sorted(UNINDEXED), sorted(UNINDEXED, reverse=True)):
            for num_blocks in (1, 4):
                eng = build_unindexed(backend, keys, num_blocks)
                for text, want in UNINDEXED_ANSWERS.items():
                    got = keys_of(eng, eng.search(parse_query(text)))
                    assert got == want, (keys, num_blocks, text)

    def test_an_unindexed_word_scans_every_document(self):
        eng = build_unindexed("engine", sorted(UNINDEXED), 4)
        eng.counters.reset()
        assert keys_of(eng, eng.search(parse_query("alpha"))) == ["a", "c"]
        assert eng.counters.get("engine.docs_scanned") == 0
        eng.search(parse_query("alpha OR of"))
        assert eng.counters.get("engine.docs_scanned") == len(UNINDEXED)


class TestReindex:
    def test_noop_plan(self, engine):
        plan = engine.reindex((k, f"/{k}.txt", 1.0) for k in CORPUS)
        assert plan.is_noop
        assert plan.unchanged == 4

    def test_add_remove_change(self, engine):
        engine.store["e"] = "new fingerprint file"
        engine.store["a"] = "changed away"
        current = [("a", "/a.txt", 2.0), ("b", "/b.txt", 1.0),
                   ("d", "/d.txt", 1.0), ("e", "/e.txt", 2.0)]
        plan = engine.reindex(current)
        assert plan.added == ["e"] and plan.removed == ["c"]
        assert plan.changed == ["a"]
        assert keys_of(engine, engine.search(Term("fingerprint"))) == ["b", "d", "e"]

    def test_restricted_previous_keeps_outside_docs(self, engine):
        # reindex "only the subtree containing b": a/c/d must survive
        plan = engine.reindex([("b", "/b.txt", 1.0)], previous={"b": 1.0})
        assert plan.is_noop
        assert len(engine) == 4

    def test_path_refresh_without_mtime_change(self, engine):
        engine.reindex([("a", "/renamed.txt", 1.0), ("b", "/b.txt", 1.0),
                        ("c", "/c.txt", 1.0), ("d", "/d.txt", 1.0)])
        assert engine.doc_by_key("a").path == "/renamed.txt"


class TestReporting:
    def test_sizes(self, engine):
        assert engine.index_size_bytes() > 0
        assert engine.corpus_bytes() == sum(len(t) for t in CORPUS.values())


class TestBlockCountTradeoff:
    def test_more_blocks_cost_index_bytes_and_save_scanning(self):
        """The curve Glimpse's two-level index sits on (Ablation B), on
        the scan reference: doc-level postings would hide the scanning."""
        import random

        rng = random.Random(13)
        vocab = [f"word{i}" for i in range(40)]
        docs = {i: " ".join(rng.choice(vocab) for _ in range(12))
                + (" needle" if i % 10 == 0 else "") for i in range(100)}
        sizes, scans, hits = [], [], []
        for num_blocks in (4, 32, 256):
            eng = ScanEngine(loader=docs.__getitem__, num_blocks=num_blocks)
            for key in docs:
                eng.index_document(key, path=f"/{key}", mtime=0.0)
            eng.counters.reset()
            hits.append(keys_of(eng, eng.search(Term("needle"))))
            scans.append(eng.counters.get("engine.docs_scanned"))
            sizes.append(eng.index_size_bytes())
        assert hits[0] == hits[1] == hits[2] == list(range(0, 100, 10))
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
        assert scans == [50, 31, 10]   # doc_id % num_blocks placement
        assert scans[-1] >= len(hits[-1])

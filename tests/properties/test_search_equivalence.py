"""Property test: the two-level Glimpse search equals an exhaustive scan.

This is the soundness/completeness property of the block index: for any
corpus and any query, filtering through candidate blocks then verifying
must give exactly the same answer as scanning every document.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cba.engine import CBAEngine
from repro.cba.queryast import And, Not, Or, Phrase, Term
from repro.cba.tokenizer import DEFAULT_STOPWORDS
from repro.util.bitmap import Bitmap

words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"])
#: the same pool plus words the default index does not hold
unindexed_words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "of", "the", "a", "x"])

documents = st.lists(st.lists(words, max_size=12).map(" ".join),
                     min_size=0, max_size=12)

leaves = st.one_of(
    words.map(Term),
    st.lists(words, min_size=2, max_size=2).map(Phrase),
)

queries = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(And),
        st.lists(kids, min_size=2, max_size=3).map(Or),
        kids.map(Not),
    ),
    max_leaves=6)


def build_engine(texts, num_blocks, min_term_length=1, stopwords=()):
    store = dict(enumerate(texts))
    engine = CBAEngine(loader=lambda k: store.get(k, ""),
                       num_blocks=num_blocks, min_term_length=min_term_length,
                       stopwords=set(stopwords))
    for key, text in store.items():
        engine.index_document(key, path=f"/{key}", mtime=0.0)
    return engine


@settings(max_examples=60, deadline=None)
@given(documents, queries, st.sampled_from([1, 3, 16]))
def test_index_search_equals_naive_scan(texts, query, num_blocks):
    engine = build_engine(texts, num_blocks)
    assert engine.search(query) == engine.naive_search(query)


@settings(max_examples=40, deadline=None)
@given(documents, queries, st.data())
def test_scoped_search_equals_naive_scan(texts, query, data):
    engine = build_engine(texts, num_blocks=4)
    universe = sorted(engine.all_docs())
    scope = Bitmap(data.draw(st.sets(st.sampled_from(universe))
                             if universe else st.just(set())))
    assert engine.search(query, scope) == engine.naive_search(query, scope)


@settings(max_examples=40, deadline=None)
@given(documents, queries)
def test_results_within_universe(texts, query):
    engine = build_engine(texts, num_blocks=2)
    assert engine.search(query).issubset(engine.all_docs())


@settings(max_examples=30, deadline=None)
@given(documents, st.data())
def test_incremental_removal_equals_rebuild(texts, data):
    """Removing documents incrementally must match a fresh index."""
    engine = build_engine(texts, num_blocks=4)
    keys = sorted(range(len(texts)))
    to_remove = data.draw(st.sets(st.sampled_from(keys)) if keys
                          else st.just(set()))
    for key in to_remove:
        engine.remove_document(key)
    survivors = [texts[k] for k in keys if k not in to_remove]
    fresh = build_engine(survivors, num_blocks=4)
    for word in ["alpha", "beta", "gamma"]:
        got = {engine.doc_by_id(d).key for d in engine.search(Term(word))}
        expect = {k for k in keys if k not in to_remove
                  and word in texts[k].split()}
        assert got == expect, word
        assert len(fresh.search(Term(word))) == len(expect)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 3, 16]))
def test_search_equals_naive_scan_under_stopwords(data, num_blocks):
    """The default index holds no stopword and no one-letter word; the
    block filter must still never change what the scan finds."""
    texts = data.draw(st.lists(st.lists(unindexed_words, max_size=8)
                               .map(" ".join), max_size=10))
    leaf = st.one_of(unindexed_words.map(Term),
                     st.lists(unindexed_words, min_size=2, max_size=3)
                     .map(Phrase))
    query = data.draw(st.recursive(leaf, lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(And),
        st.lists(kids, min_size=2, max_size=3).map(Or),
        kids.map(Not)), max_leaves=5))
    engine = build_engine(texts, num_blocks, 2, DEFAULT_STOPWORDS)
    assert engine.search(query) == engine.naive_search(query)

"""Property tests for the query path.

The query path (planner normalisation + selectivity ordering, doc-level
postings answering, verification memoisation, block-exact cache
invalidation) is pure optimisation: for any corpus, any mutation history,
and any query, the engine must return exactly what the seed
scan-everything reference (:class:`~repro.baselines.scanengine.ScanEngine`)
and the exhaustive per-document ``naive_search`` return.  These tests
sample all of that, including the stopword corner where the postings path
must refuse to answer (a stopword never reaches the index, but the
scanner sees it).
``REF_K`` puts a K-shard cluster under test instead of the monolith (see
``tests/properties/reference.py``).

Also here: the big-int :class:`Bitmap` kernels must serialise byte-for-byte
identically to the bytearray implementation they replaced, since bitmaps
are persisted (semantic-directory records, saved indexes).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cba import evaluator
from repro.cba.queryast import And, Approx, Not, Or, Phrase, Term
from repro.util.bitmap import Bitmap

from tests.properties.reference import build_pair

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]

words = st.sampled_from(WORDS)

documents = st.lists(st.lists(words, max_size=12).map(" ".join),
                     min_size=0, max_size=12)

leaves = st.one_of(
    words.map(Term),
    st.lists(words, min_size=2, max_size=2).map(Phrase),
    words.map(lambda w: Approx(w, 1)),
)

queries = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(And),
        st.lists(kids, min_size=2, max_size=3).map(Or),
        kids.map(Not),
    ),
    max_leaves=6)


def indexable_pair(texts, num_blocks=4):
    """Everything indexable: the postings path answers what it can."""
    return build_pair(texts, num_blocks, min_term_length=1, stopwords=set())


@settings(max_examples=80, deadline=None)
@given(documents, queries, st.sampled_from([1, 3, 16]))
def test_fast_path_search_equals_naive_scan(texts, query, num_blocks):
    pair = indexable_pair(texts, num_blocks)
    assert pair.check(query) == pair.reference.naive_search(query)
    # and again, through the warm cache/memo
    assert pair.check(query) == pair.reference.naive_search(query)


@settings(max_examples=60, deadline=None)
@given(documents, queries, st.data())
def test_fast_path_survives_mutations(texts, query, data):
    """Interleave searches with index mutations: memoised verdicts and
    surviving cache entries must never leak stale answers."""
    pair = indexable_pair(texts)
    assert pair.check(query) == pair.reference.naive_search(query)
    keys = sorted(pair.store)
    if keys:
        victim = data.draw(st.sampled_from(keys))
        action = data.draw(st.sampled_from(["update", "remove", "add"]))
        if action == "update":
            pair.store[victim] = data.draw(
                st.lists(words, max_size=8).map(" ".join))
            pair.both("update_document", victim, path=f"/{victim}",
                      mtime=1.0)
        elif action == "remove":
            del pair.store[victim]
            pair.both("remove_document", victim)
        else:
            new_key = max(keys) + 1
            pair.store[new_key] = data.draw(
                st.lists(words, max_size=8).map(" ".join))
            pair.both("index_document", new_key, path=f"/{new_key}",
                      mtime=1.0)
    assert pair.check(query) == pair.reference.naive_search(query)


@settings(max_examples=60, deadline=None)
@given(documents, queries, st.data())
def test_fast_path_evaluate_equals_naive_scan(texts, query, data):
    """The boolean evaluator (content-only queries, arbitrary scope) must
    agree with the exhaustive scan."""
    pair = indexable_pair(texts)
    universe = sorted(pair.subject.all_docs())
    scope = Bitmap(data.draw(st.sets(st.sampled_from(universe))
                             if universe else st.just(set())))
    got = evaluator.evaluate(query, pair.subject,
                             resolve_dirref=lambda uid: Bitmap(),
                             scope=scope)
    assert got == pair.reference.naive_search(query, scope)


@settings(max_examples=60, deadline=None)
@given(documents, queries, st.sampled_from([1, 3, 16]))
def test_fast_path_matches_scan_path_with_stopwords(texts, query, num_blocks):
    """With real stopwords/min-length the index cannot see every token;
    the answer is still the per-document scan's (the answerability gate
    sends such queries to the scanner)."""
    pair = build_pair(texts, num_blocks, min_term_length=2,
                      stopwords={"alpha", "eta"})
    assert pair.check(query) == pair.reference.naive_search(query)


# ----------------------------------------------------------------------
# Answerability-gate regressions: the postings path would read a non-
# indexable leaf as an empty doc set, so any query holding one is scanned,
# whatever operator it sits under.
# ----------------------------------------------------------------------

def _stopword_pair(texts, num_blocks=1):
    return build_pair(texts, num_blocks, min_term_length=2,
                      stopwords={"the"})


def _postings_answers(pair):
    return pair.subject.counters.get("engine.postings_answers")


def test_stopword_in_and_under_not_forces_scan():
    # the postings path would see the stopword as an empty doc set, the
    # And as empty and the Not as all docs — but the scanner sees
    # stopwords in raw tokens and excludes docs holding both terms
    pair = _stopword_pair(["the quick apple", "banana orange",
                           "apple banana"])
    query = Not(And([Term("the"), Term("apple")]))
    got = pair.check(query)
    assert got == pair.reference.naive_search(query)
    assert sorted(got) == [1, 2]
    assert _postings_answers(pair) == 0


def test_stopword_and_branch_under_or_forces_scan():
    # the stopword nominates every block, so the scanner reaches doc 0
    # and matches it through the stopword And branch
    pair = _stopword_pair(["the apple", "banana"])
    query = Or([And([Term("the"), Term("apple")]), Term("banana")])
    assert sorted(pair.check(query)) == [0, 1]
    assert _postings_answers(pair) == 0


def test_stopword_and_branch_under_or_under_not_forces_scan():
    pair = _stopword_pair(["the apple", "banana", "apple pear"])
    query = Not(Or([And([Term("the"), Term("apple")]), Term("banana")]))
    got = pair.check(query)
    assert got == pair.reference.naive_search(query)
    assert sorted(got) == [2]
    assert _postings_answers(pair) == 0


def test_stopword_on_pure_and_spine_is_scanned():
    # even on the pure-And spine the postings path would miss doc 0: the
    # stopword's postings are empty, yet the scanner sees it there
    pair = _stopword_pair(["the quick apple", "apple banana"])
    query = And([Term("the"), Term("apple")])
    got = pair.check(query)
    assert got == pair.reference.naive_search(query)
    assert sorted(got) == [0]
    assert _postings_answers(pair) == 0
    # "apple" nominates the one block: both documents are scanned
    assert pair.subject.counters.get("engine.docs_scanned") == 2


# ----------------------------------------------------------------------
# Bitmap serialization: byte-identical to the seed bytearray kernels
# ----------------------------------------------------------------------

def _reference_to_bytes(ids):
    """The seed implementation's serialised form: little-endian bit order
    (bit ``i % 8`` of byte ``i // 8``), trailing zero bytes trimmed."""
    buf = bytearray()
    for i in ids:
        byte, bit = divmod(i, 8)
        if byte >= len(buf):
            buf.extend(b"\x00" * (byte - len(buf) + 1))
        buf[byte] |= 1 << bit
    while buf and buf[-1] == 0:
        del buf[-1]
    return bytes(buf)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=4096)))
def test_to_bytes_matches_seed_bytearray_form(ids):
    assert Bitmap(ids).to_bytes() == _reference_to_bytes(ids)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=4096)))
def test_from_bytes_round_trip(ids):
    bm = Bitmap(ids)
    assert Bitmap.from_bytes(bm.to_bytes()) == bm
    assert sorted(Bitmap.from_bytes(bm.to_bytes())) == sorted(ids)

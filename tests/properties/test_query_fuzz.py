"""Seeded grammar fuzz for the query language and the query path.

Complements ``test_fastpath_equivalence.py`` (hypothesis strategies over a
small word pool) with a plain seeded :class:`random.Random` grammar fuzzer
that is deterministic run-to-run with no external machinery:

* **roundtrips** — for random ASTs, ``parse(print(ast)) == ast``, including
  directory references rendered through a live directory map;
* **equivalence** — the planned/postings/memoised engine answers
  bit-identically (``Bitmap.to_bytes``) to the seed scan reference
  (``tests/properties/reference.py``) and to the exhaustive per-document
  naive scan, under real stopwords too — and to the naive scan through
  the boolean evaluator under arbitrary scopes.

The word pool deliberately mixes ordinary words, stopwords (``the``,
``a``, ``of``) and tokenizer edge shapes (digits, underscores), because
the stopword/answerability corner is where the postings path has
historically diverged.  ``REF_SEED`` shifts the fuzz seeds and ``REF_K``
puts a K-shard cluster under test.
"""

import random

from repro.cba import evaluator
from repro.cba.engine import CBAEngine
from repro.cba.queryast import (
    And,
    Approx,
    DirRef,
    FieldTerm,
    MatchAll,
    Not,
    Or,
    Phrase,
    Term,
)
from repro.cba.queryparser import parse_query
from repro.cba.tokenizer import DEFAULT_STOPWORDS
from repro.core.hacfs import HacFileSystem
from repro.util.bitmap import Bitmap

from tests.properties.reference import SEED, build_pair

#: parser keywords can never be bare terms; stopwords deliberately can
WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "the", "a", "of",
         "zeta9", "fbi_v2"]
FIELDS = [("from", "alice"), ("from", "bob"), ("type", "mail")]

CONTENT_KINDS = ("term", "term", "phrase", "approx", "all")
ROUNDTRIP_KINDS = CONTENT_KINDS + ("field",)


class QueryFuzzer:
    """Random query ASTs from one seeded rng, straight off the grammar."""

    def __init__(self, rng: random.Random, kinds=ROUNDTRIP_KINDS, uids=()):
        self.rng = rng
        self.kinds = tuple(kinds) + (("dir",) if uids else ())
        self.uids = tuple(uids)

    def leaf(self):
        kind = self.rng.choice(self.kinds)
        if kind == "term":
            return Term(self.rng.choice(WORDS))
        if kind == "phrase":
            # one-word phrases parse back to Term, so always use >= 2
            n = self.rng.randint(2, 3)
            return Phrase([self.rng.choice(WORDS) for _ in range(n)])
        if kind == "approx":
            return Approx(self.rng.choice(WORDS), self.rng.randint(1, 2))
        if kind == "field":
            field, value = self.rng.choice(FIELDS)
            return FieldTerm(field, value)
        if kind == "dir":
            return DirRef(self.rng.choice(self.uids))
        return MatchAll()

    def node(self, depth: int = 3):
        if depth <= 0 or self.rng.random() < 0.35:
            return self.leaf()
        op = self.rng.choice(("and", "or", "not"))
        if op == "not":
            return Not(self.node(depth - 1))
        children = [self.node(depth - 1)
                    for _ in range(self.rng.randint(2, 3))]
        return (And if op == "and" else Or)(children)


def random_corpus(rng: random.Random, n_docs: int):
    return [" ".join(rng.choice(WORDS)
                     for _ in range(rng.randint(0, 12)))
            for _ in range(n_docs)]


def build_engine(texts, num_blocks=4, **kwargs):
    store = dict(enumerate(texts))
    engine = CBAEngine(loader=lambda k: store.get(k, ""),
                       num_blocks=num_blocks, **kwargs)
    for key in store:
        engine.index_document(key, path=f"/{key}", mtime=0.0)
    return engine


# ----------------------------------------------------------------------
# parse → print → parse roundtrips
# ----------------------------------------------------------------------

def test_fuzz_roundtrip():
    fuzz = QueryFuzzer(random.Random(0xF00D))
    for _ in range(500):
        ast = fuzz.node()
        text = ast.to_text()
        again = parse_query(text)
        assert again == ast, f"{text!r} reparsed to {again!r}"
        # printing is a fixed point: once parsed, text is stable
        assert again.to_text() == text


def test_fuzz_roundtrip_with_dir_refs():
    hac = HacFileSystem()
    hac.makedirs("/projects/fbi")
    hac.mkdir("/mail")
    # a query names the directories it references
    hac.smkdir("/q", "x AND (/projects OR /projects/fbi OR /mail)")
    uids = [hac.dirmap.uid_of(p) for p in ("/projects", "/projects/fbi",
                                           "/mail")]
    assert all(uid is not None for uid in uids)
    fuzz = QueryFuzzer(random.Random(0xCAFE), uids=uids)
    for _ in range(300):
        ast = fuzz.node()
        text = ast.to_text(hac.dirmap.path_of)
        again = parse_query(text, resolve_dir=hac.dirmap.uid_of)
        assert again == ast, f"{text!r} reparsed to {again!r}"


# ----------------------------------------------------------------------
# the engine vs the scan reference and the naive evaluator, bit-identical
# ----------------------------------------------------------------------

def test_fuzz_fast_path_bit_identical_to_naive():
    """With everything indexable the planned/postings/memoised answer must
    serialise byte-for-byte equal to the exhaustive scan's."""
    rng = random.Random(2024 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(120):
        pair = build_pair(random_corpus(rng, rng.randint(0, 14)),
                          num_blocks=rng.choice([1, 3, 8]),
                          min_term_length=1, stopwords=set())
        for _ in range(3):
            ast = fuzz.node()
            want = pair.check(ast)
            assert want.to_bytes() == \
                pair.reference.naive_search(ast).to_bytes(), ast


def test_fuzz_fast_path_matches_seed_scan_under_stopwords():
    """Under real stopwords + min length the index is blind to some
    tokens, and the answer is still the exhaustive scan's (the
    answerability gate must refuse unsound postings answers)."""
    rng = random.Random(7 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(100):
        pair = build_pair(random_corpus(rng, rng.randint(0, 12)),
                          num_blocks=rng.choice([1, 2, 6]),
                          min_term_length=2,
                          stopwords=set(DEFAULT_STOPWORDS))
        for _ in range(3):
            ast = fuzz.node()
            assert pair.check(ast).to_bytes() == \
                pair.reference.naive_search(ast).to_bytes(), ast


def test_fuzz_evaluator_matches_naive_under_scopes():
    """The boolean evaluator over random scopes."""
    rng = random.Random(99 + SEED)
    fuzz = QueryFuzzer(rng, kinds=CONTENT_KINDS)
    for _ in range(100):
        pair = build_pair(random_corpus(rng, rng.randint(0, 12)),
                          min_term_length=1, stopwords=set())
        universe = sorted(pair.subject.all_docs())
        scope = Bitmap(doc for doc in universe if rng.random() < 0.6)
        ast = fuzz.node()
        got = evaluator.evaluate(ast, pair.subject,
                                 resolve_dirref=lambda uid: Bitmap(),
                                 scope=scope)
        assert got == pair.reference.naive_search(ast, scope), ast

"""Property: the CAS index is observationally identical to scan-and-filter.

The Content-and-Structure index (DESIGN.md §3j) interleaves the path
dimension with the term dimension so that ``scope:<prefix> AND <terms>``
queries prune on *where* and *what* in one probe.  Its contract is the
same bit-identity every other accelerator in this repo signs up to: for
any corpus shape, any fuzzed query mixing scope predicates with the full
content grammar, and any interleaving of writes, removals, single-doc
renames, and whole-directory rebases, the engine's answers must
serialise byte-for-byte equal (``Bitmap.to_bytes``) to the seed scan
reference (``tests/properties/reference.py``), which verifies every
candidate against the registry-path predicate and never consults the CAS
index — and both must agree with the exhaustive naive scan whenever the
naive scan is a sound oracle (everything indexable).

``REF_SEED`` shifts the fuzz seeds and ``REF_K`` (>0) puts a sharded
search cluster under test (CI matrix runs monolith and K=3).  Structural
invariants of the partition scheme (one partition per directory holding
documents, a move re-keys only what it carried) are checked directly on
:class:`CASIndex`; the three awkward move shapes — onto a directory whose
lingering documents still hold a partition, into a former sibling's
subtree and back, and of a directory holding no document — run through
a whole file system on both back-ends against the from-scratch links;
and a crash test arms a device fault inside the seal/compact drain to
prove ``hacfsck`` finds no ``cas-divergence`` after restore.
"""

import random

import pytest

from repro.cba.cas import CASIndex
from repro.cba.engine import CBAEngine
from repro.cba.queryast import And, Not, ScopeTerm, Term
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.shell.session import HacShell
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.vfs.blockdev import FaultPlan

from tests.properties.reference import (K, SEED, assert_links_from_scratch,
                                        build_pair)
from tests.properties.test_query_fuzz import (CONTENT_KINDS, WORDS,
                                              QueryFuzzer)

DIRS = ["/", "/projects", "/projects/mail", "/projects/mail/drafts",
        "/projects/fbi", "/projects/fbi/cases", "/archive",
        "/archive/2026", "/scratch"]
#: probe prefixes deliberately include dirs with no documents and a
#: prefix that is a *string* prefix but not a *path* prefix of others
PREFIXES = DIRS + ["/projects/ma", "/archive/2026/q3", "/nowhere"]


class ScopedFuzzer(QueryFuzzer):
    """The content grammar plus ``scope:`` leaves over a fixed dir pool."""

    def __init__(self, rng, prefixes=PREFIXES):
        super().__init__(rng, kinds=CONTENT_KINDS)
        self.prefixes = tuple(prefixes)

    def leaf(self):
        if self.rng.random() < 0.35:
            return ScopeTerm(self.rng.choice(self.prefixes))
        return super().leaf()


def random_docs(rng, n_docs):
    """(path, text) pairs spread over the shared directory pool."""
    docs = []
    for i in range(n_docs):
        d = rng.choice(DIRS)
        path = pathutil.join(d, f"doc{i}.txt")
        text = " ".join(rng.choice(WORDS) for _ in range(rng.randint(0, 12)))
        docs.append((path, text))
    return docs


def indexable_pair(docs):
    """Engine under test + scan reference, everything indexable."""
    return build_pair(docs, num_blocks=64, min_term_length=1,
                      stopwords=set())


# ----------------------------------------------------------------------
# the scope: grammar
# ----------------------------------------------------------------------

def test_scope_term_parses_and_roundtrips():
    ast = parse_query("scope:/projects/mail AND fingerprint")
    assert ast == And([ScopeTerm("/projects/mail"), Term("fingerprint")])
    assert parse_query(ast.to_text()) == ast
    # prefixes normalise at construction, exactly like the path map keys
    assert ScopeTerm("/projects//mail/").prefix == "/projects/mail"


def test_fuzz_scope_roundtrip():
    fuzz = ScopedFuzzer(random.Random(0xCA5 + SEED))
    for _ in range(300):
        ast = fuzz.node()
        text = ast.to_text()
        again = parse_query(text)
        assert again == ast, f"{text!r} reparsed to {again!r}"
        assert again.to_text() == text


# ----------------------------------------------------------------------
# CAS vs scan-and-filter bit-identity
# ----------------------------------------------------------------------

def test_fuzz_cas_bit_identical_to_scan_and_filter():
    """Indexable-only config: the naive scan referees both engines."""
    rng = random.Random(0x1D0 + SEED)
    fuzz = ScopedFuzzer(rng)
    probes = 0.0
    for _ in range(20):
        pair = indexable_pair(random_docs(rng, rng.randint(0, 40)))
        for _ in range(4):
            ast = fuzz.node()
            want = pair.check(ast)
            assert pair.reference.naive_search(ast).to_bytes() == \
                want.to_bytes(), ast
        probes += pair.subject.counters.get("cas.probes")
    assert probes > 0, "the fuzz never exercised a CAS probe"


#: directory moves the rename fuzz draws from
REBASES = [("/projects/mail", "/archive/mail"),
           ("/archive/mail", "/projects/mail"),
           ("/projects/fbi/cases", "/scratch/cases"),
           ("/scratch/cases", "/projects/fbi/cases"),
           # onto a directory whose documents still hold its partition
           ("/projects/fbi/cases", "/archive/2026"),
           # into a former sibling's subtree, and back
           ("/projects/mail", "/projects/fbi/mail"),
           ("/projects/fbi/mail", "/projects/mail"),
           # a directory holding no indexed document
           ("/archive/2026/q3", "/scratch/q3")]
MOVED_PREFIXES = PREFIXES + ["/archive/mail", "/scratch/cases",
                             "/projects/fbi/mail", "/scratch/q3"]


def test_fuzz_cas_equivalence_under_renames():
    """Single-doc renames and whole-directory rebases interleave with
    queries; a move must never desynchronise the CAS answer from the
    registry scan, and both registries must hold the paths a plain
    model of the moves gives."""
    rng = random.Random(0x2E5 + SEED)
    for round_no in range(12):
        docs = random_docs(rng, rng.randint(5, 40))
        pair = indexable_pair(docs)
        store = pair.store
        paths = {key: path for key, (path, _text) in enumerate(docs)}
        fuzz = ScopedFuzzer(rng, prefixes=MOVED_PREFIXES)
        for _ in range(6):
            r = rng.random()
            if r < 0.30:
                old, new = rng.choice(REBASES)
                pair.both("rebase_paths", old, new)
                for key, path in paths.items():
                    if pathutil.is_ancestor(old, path):
                        paths[key] = pathutil.rebase(path, old, new)
            elif r < 0.45 and paths:
                key = rng.choice(list(paths))
                paths[key] = pathutil.join(rng.choice(DIRS),
                                           f"moved{round_no}_{key}.txt")
                pair.both("rename_document", key, paths[key])
            elif r < 0.55 and paths:
                key = rng.choice(list(paths))
                del paths[key]
                pair.both("remove_document", key)
            elif r < 0.65:
                key = len(store)
                store[key] = " ".join(rng.choices(WORDS, k=6))
                paths[key] = pathutil.join(rng.choice(DIRS), f"new{key}.txt")
                pair.both("index_document", key, path=paths[key], mtime=1.0)
            for backend in (pair.subject, pair.reference):
                assert {key: backend.doc_by_key(key).path
                        for key in paths} == paths, round_no
            pair.check(fuzz.node())
            for prefix in MOVED_PREFIXES:
                assert pair.subject.scope_docs(prefix).to_bytes() == \
                    pair.scan_under(prefix).to_bytes(), (round_no, prefix)


def test_zero_selectivity_conjunction_short_circuits():
    """A conjunction with a provably-empty leaf (zero-df term or
    zero-count scope) returns empty without nominating candidates or
    falling back to the scanner — and says so in its counters."""
    pair = indexable_pair([("/projects/mail/a.txt", "alpha beta"),
                           ("/projects/mail/b.txt", "beta gamma")])
    counters = pair.subject.counters

    def shortcircuits():
        return counters.get("engine.planner_empty_shortcircuit") \
            + counters.get("cluster.planner_empty_shortcircuit")

    before = shortcircuits()
    for text in ("scope:/nowhere AND alpha",
                 "alpha AND zzznever",
                 "scope:/archive AND (alpha OR beta)"):
        scanned0 = counters.get("engine.docs_scanned")
        assert pair.check(parse_query(text)).to_bytes() == b"", text
        assert counters.get("engine.docs_scanned") == scanned0, \
            f"{text}: short-circuit still scanned documents"
    assert shortcircuits() == before + 3
    # NOT over an empty branch proves nothing — must not short-circuit
    pair.check(Not(Term("zzznever")))


# ----------------------------------------------------------------------
# partition structure: a partition is a directory
# ----------------------------------------------------------------------

def _brute_under(paths, prefix):
    """Scan-and-filter over ``{doc id: path}``."""
    return Bitmap(d for d, path in paths.items()
                  if pathutil.is_ancestor(prefix, path, strict=False)
                  ).to_bytes()


def _assert_filed_by_directory(cas, paths):
    """One partition per directory holding a document, each document in
    its directory's."""
    assert cas.roots() == sorted({pathutil.dirname(p)
                                  for p in paths.values()})
    for doc_id, path in paths.items():
        assert cas.dir_of(doc_id) == pathutil.dirname(path), doc_id


def test_partitions_are_directories():
    rng = random.Random(0x5117 + SEED)
    cas = CASIndex()
    paths = {}
    for doc_id in range(200):
        comps = [f"d{rng.randint(0, 2)}" for _ in range(rng.randint(0, 4))]
        path = pathutil.join("/", *(comps + [f"f{doc_id}.txt"]))
        cas.upsert(doc_id, path, [rng.choice(WORDS) for _ in range(4)])
        paths[doc_id] = path
    _assert_filed_by_directory(cas, paths)
    for prefix in ["/", "/d0", "/d0/d1", "/d1/d1/d2", "/d9", "/d"]:
        assert cas.docs_under(prefix).to_bytes() == \
            _brute_under(paths, prefix), prefix
    # the interleaved probe agrees with filter-after-postings
    for term in WORDS:
        for prefix in ["/", "/d0", "/d2/d2"]:
            want = Bitmap(d for d in cas.docs_under(prefix)
                          if d in cas.probe("/", term))
            assert cas.probe(prefix, term).to_bytes() == want.to_bytes()


def test_flat_directory_never_degenerates():
    """A directory of many documents is one partition, with no sibling
    partition beside it, not even the root's."""
    cas = CASIndex()
    for doc_id in range(128):
        cas.upsert(doc_id, f"/flat/f{doc_id}.txt", ["alpha"])
    assert cas.roots() == ["/flat"]
    assert len(cas.docs_under("/flat")) == 128
    assert len(cas.probe("/", "alpha")) == 128


def test_partitions_follow_fuzzed_moves():
    """After any sequence of upserts, removals, single moves and
    directory moves — onto occupied directories too — the partitions are
    exactly the directories that hold documents."""
    rng = random.Random(0xD1D + SEED)
    cas = CASIndex()
    paths = {}
    dirs = ["/a", "/a/b", "/a/b/c", "/b", "/b/a", "/c", "/ab"]
    for step in range(300):
        r = rng.random()
        if r < 0.4 or not paths:
            paths[step] = f"{rng.choice(dirs)}/f{step}"
            cas.upsert(step, paths[step], [rng.choice(WORDS)])
        elif r < 0.5:
            cas.remove(paths.popitem()[0])
        elif r < 0.6:
            doc_id = rng.choice(list(paths))
            paths[doc_id] = f"{rng.choice(dirs)}/m{step}"
            cas.set_path(doc_id, paths[doc_id])
        else:
            old, new = rng.sample(dirs, 2)
            if pathutil.is_ancestor(old, new):
                continue
            moved = set(cas.rebase_prefix(old, new))
            assert moved == {d for d, p in paths.items()
                             if pathutil.is_ancestor(old, p)}, (old, new)
            for d in moved:
                paths[d] = pathutil.rebase(paths[d], old, new)
        _assert_filed_by_directory(cas, paths)
        prefix = rng.choice(dirs + ["/"])
        assert cas.docs_under(prefix).to_bytes() == \
            _brute_under(paths, prefix), (step, prefix)


def _cas_state(cas):
    """Everything a CAS index holds, as plain comparable data."""
    parts = {key: (part.members.to_bytes(),
                   {t: bm.to_bytes() for t, bm in part.postings.items()})
             for key, part in cas._parts.items()}
    docs = {doc_id: (part.dir, frozenset(terms))
            for doc_id, (part, terms) in cas._docs.items()}
    return parts, docs


@pytest.mark.parametrize("shape", ["deep", "flat"])
def test_rebuild_places_each_document_once(shape):
    """``rebuild_cas`` inserts each document once, with its terms, and
    builds the index per-document insertion built."""
    rng = random.Random(0xB01D + SEED)
    texts = {}
    eng = CBAEngine(loader=texts.__getitem__)
    for doc_id in range(200):
        comps = ([f"d{rng.randint(0, 2)}" for _ in range(rng.randint(0, 4))]
                 if shape == "deep" else ["flat"])
        texts[doc_id] = " ".join(rng.choice(WORDS) for _ in range(4))
        eng.index_document(doc_id, pathutil.join("/", *comps, f"f{doc_id}"),
                           mtime=1.0)
    inserted = _cas_state(eng.cas)
    upserts = eng.counters.get("cas.upserts")
    eng.rebuild_cas()
    assert _cas_state(eng.cas) == inserted
    assert eng.counters.get("cas.upserts") == 2 * upserts


def test_rebase_prefix_is_one_pass_and_exact():
    rng = random.Random(0xBA5E + SEED)
    cas = CASIndex()
    paths = {}
    for doc_id in range(100):
        d = rng.choice(["/a", "/a/deep", "/a/deep/er", "/b", "/b/a/deep"])
        paths[doc_id] = f"{d}/f{doc_id}.txt"
        cas.upsert(doc_id, paths[doc_id], ["alpha", "beta"])
    moved = cas.rebase_prefix("/a", "/b/a")  # onto an occupied sibling
    assert set(moved) == {d for d, p in paths.items()
                          if pathutil.is_ancestor("/a", p)}
    for d in moved:
        paths[d] = pathutil.rebase(paths[d], "/a", "/b/a")
    _assert_filed_by_directory(cas, paths)
    assert cas.docs_under("/a").to_bytes() == b""
    for prefix in ["/b", "/b/a", "/b/a/deep", "/"]:
        assert cas.docs_under(prefix).to_bytes() == \
            _brute_under(paths, prefix), prefix
        assert cas.probe(prefix, "alpha").to_bytes() == \
            _brute_under(paths, prefix), prefix


# ----------------------------------------------------------------------
# the three move shapes through a whole file system
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", [None, "cluster:3"])
def test_move_shapes_through_the_file_system(backend):
    """A move onto a directory whose lingering (unlinked, unwatched,
    unsynced) document still holds its partition; a move into a former
    sibling's subtree and back; a move of a directory holding no
    indexed document.  After each, every scope answers what a scan of
    the registry does, the links are what a from-scratch evaluation
    gives, and fsck finds no error."""
    hac = HacFileSystem(backend=backend)
    for d in ("/a/sub", "/b", "/c/deep", "/empty/inner"):
        hac.makedirs(d)
    for path in ("/a/x.txt", "/a/sub/s.txt", "/c/z.txt", "/c/deep/w.txt"):
        hac.write_file(path, b"alpha " + path.encode())
    # the lingering document matches no query: an unsynced index still
    # answers for a removed file (section 2.4), which the from-scratch
    # links, reading the tree, cannot model
    hac.write_file("/b/y.txt", b"beta lingering")
    hac.ssync("/")
    hac.smkdir("/every", "alpha")
    hac.smkdir("/c/local", "alpha")
    hac.smkdir("/empty/inner/q", "alpha")
    prefixes = ["/", "/a", "/a/sub", "/b", "/b/sub", "/c", "/c/deep",
                "/c/deep/sub", "/b/c", "/empty", "/c/empty"]
    steps = [
        lambda: (hac.unlink("/b/y.txt"), hac.rmdir("/b"),
                 hac.rename("/a", "/b")),
        lambda: hac.rename("/c", "/b/c"),
        lambda: hac.rename("/b/c", "/c"),
        lambda: hac.rename("/b/sub", "/c/deep/sub"),
        lambda: hac.rename("/c/deep/sub", "/b/sub"),
        lambda: hac.rename("/empty", "/c/empty"),
        lambda: hac.ssync("/"),
    ]
    engine = hac.engine
    for step_no, step in enumerate(steps):
        step()
        for prefix in prefixes:
            want = Bitmap(d for d in engine.all_docs()
                          if pathutil.is_ancestor(
                              prefix, engine.doc_by_id(d).path, strict=False))
            assert engine.scope_docs(prefix).to_bytes() == want.to_bytes(), \
                (step_no, prefix)
        assert_links_from_scratch(hac, step_no)
        assert [str(f) for f in hac.fsck() if f.severity == "error"] == [], \
            step_no
    assert hac.glimpse("alpha", scope_path="/b") == \
        ["/b/sub/s.txt", "/b/x.txt"]


# ----------------------------------------------------------------------
# crash sweep: seal/compact intents leave no cas-divergence behind
# ----------------------------------------------------------------------

def _deep_world():
    hac = HacFileSystem()
    hac.makedirs("/projects/mail/drafts")
    hac.makedirs("/archive")
    for i in range(10):
        hac.write_file(f"/projects/mail/m{i}.txt",
                       b"fingerprint ridge %d\n" % i)
        hac.write_file(f"/projects/mail/drafts/d{i}.txt",
                       b"banana recipe %d\n" % i)
    hac.clock.tick()
    hac.ssync("/")
    return hac


@pytest.mark.skipif(K > 0, reason="a drain seals segments only on the "
                                  "monolith; a cluster writes its "
                                  "segments at save_index alone")
@pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
def test_crash_in_seal_drain_leaves_no_cas_divergence(seed):
    """Crash the device mid-drain — inside the journaled seal/compact
    intents — restore, and require the rebuilt CAS index to agree with
    the registry doc-for-doc (no ``cas-divergence`` finding) and with a
    scan twin bit-for-bit."""
    hac = _deep_world()
    hac.maintenance.set_mode("batched")
    hac.rename("/projects/mail/drafts", "/archive/drafts")
    for i in range(6):
        hac.write_file(f"/archive/n{i}.txt", b"minutiae bread\n")
    hac.clock.tick()
    dev = hac.fs.device
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + seed % 4))
    with pytest.raises(DeviceCrashed):
        hac.maintenance.drain()
        hac.ssync("/")
        hac.reindex()
    revived = HacFileSystem.restore(hac.fs)
    findings = revived.fsck()
    assert [f for f in findings if f.kind == "cas-divergence"] == [], seed
    assert [f for f in findings if f.severity == "error"] == [], seed
    for query in ("scope:/archive AND fingerprint",
                  "scope:/archive/drafts AND banana",
                  "scope:/projects/mail AND NOT banana"):
        ast = parse_query(query)
        scan = revived.engine.naive_search(ast)
        assert revived.engine.search(ast).to_bytes() == scan.to_bytes(), \
            (seed, query)


def test_fsck_catches_and_repairs_missed_rebase():
    """Forcing the exact failure the check exists for — a document filed
    under a directory its registry path is not in, as a missed re-key
    would leave it — must surface as ``cas-divergence`` and heal under
    ``repair=True`` by rebuilding from the registry."""
    hac = _deep_world()
    shell = HacShell(hac)
    engine = hac.engine
    doc_id = next(iter(engine.cas.doc_ids()))
    engine.cas.set_path(doc_id, "/projects/stale/ghost.txt")
    kinds = [f.kind for f in hac.fsck()]
    assert "cas-divergence" in kinds
    hac.fsck(repair=True)
    assert [f for f in hac.fsck()
            if f.kind.startswith("cas-")] == []
    assert shell.glimpse("scope:/projects/mail AND fingerprint")

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
invariants of the partition scheme (containment, split behaviour,
one-pass rebase) are checked directly on :class:`CASIndex`, and a crash
test arms a device fault inside the seal/compact drain to prove
``hacfsck`` finds no ``cas-divergence`` after restore.
"""

import random

import pytest

from repro.cba.cas import CASIndex, SPLIT_THRESHOLD
from repro.cba.engine import CBAEngine
from repro.cba.queryast import And, Not, ScopeTerm, Term
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.shell.session import HacShell
from repro.util import pathutil
from repro.util.bitmap import Bitmap
from repro.vfs.blockdev import FaultPlan

from tests.properties.reference import K, SEED, build_pair
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


def test_fuzz_cas_equivalence_under_renames():
    """Single-doc renames and whole-directory rebases interleave with
    queries; the one-pass prefix rebase must never desynchronise the CAS
    answer from the registry scan."""
    rng = random.Random(0x2E5 + SEED)
    rebases = [("/projects/mail", "/archive/mail"),
               ("/archive/mail", "/projects/mail"),
               ("/projects/fbi/cases", "/scratch/cases"),
               ("/scratch/cases", "/projects/fbi/cases")]
    for round_no in range(12):
        docs = random_docs(rng, rng.randint(5, 40))
        pair = indexable_pair(docs)
        store = pair.store
        live = list(range(len(docs)))
        fuzz = ScopedFuzzer(rng, prefixes=PREFIXES +
                            ["/archive/mail", "/scratch/cases"])
        for _ in range(6):
            r = rng.random()
            if r < 0.30:
                pair.both("rebase_paths", *rng.choice(rebases))
            elif r < 0.45 and live:
                key = rng.choice(live)
                pair.both("rename_document", key, pathutil.join(
                    rng.choice(DIRS), f"moved{round_no}_{key}.txt"))
            elif r < 0.55 and live:
                key = rng.choice(live)
                live.remove(key)
                pair.both("remove_document", key)
            elif r < 0.65:
                key = len(store)
                store[key] = " ".join(rng.choices(WORDS, k=6))
                live.append(key)
                path = pathutil.join(rng.choice(DIRS), f"new{key}.txt")
                pair.both("index_document", key, path=path, mtime=1.0)
            pair.check(fuzz.node())
            for prefix in PREFIXES:
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
# partition structure: splits, containment, one-pass rebase
# ----------------------------------------------------------------------

def _assert_containment(cas):
    for doc_id in cas.doc_ids():
        root = cas.root_of(doc_id)
        assert pathutil.is_ancestor(root, cas.path_of(doc_id),
                                    strict=False), (doc_id, root)


def _brute_under(cas, prefix):
    want = Bitmap(d for d in cas.doc_ids()
                  if pathutil.is_ancestor(prefix, cas.path_of(d),
                                          strict=False))
    return want.to_bytes()


def test_partitions_split_and_preserve_containment():
    rng = random.Random(0x5117 + SEED)
    cas = CASIndex()
    paths = {}
    for doc_id in range(6 * SPLIT_THRESHOLD):
        comps = [f"d{rng.randint(0, 2)}" for _ in range(rng.randint(0, 4))]
        path = pathutil.join("/", *(comps + [f"f{doc_id}.txt"]))
        cas.upsert(doc_id, path, [rng.choice(WORDS) for _ in range(4)])
        paths[doc_id] = path
    # skew forces splits: the tree refined beyond the root partition
    assert len(cas.roots()) > 1
    _assert_containment(cas)
    for prefix in ["/", "/d0", "/d0/d1", "/d1/d1/d2", "/d9"]:
        assert cas.docs_under(prefix).to_bytes() == \
            _brute_under(cas, prefix), prefix
    # the interleaved probe agrees with filter-after-postings
    for term in WORDS:
        for prefix in ["/", "/d0", "/d2/d2"]:
            want = Bitmap(d for d in cas.docs_under(prefix)
                          if d in cas.probe("/", term))
            assert cas.probe(prefix, term).to_bytes() == want.to_bytes()


def test_flat_directory_never_degenerates():
    """A directory with no subdirectories cannot split; the deferral
    keeps it from re-attempting on every insert."""
    cas = CASIndex()
    for doc_id in range(4 * SPLIT_THRESHOLD):
        cas.upsert(doc_id, f"/flat/f{doc_id}.txt", ["alpha"])
    assert cas.roots() == ["/", "/flat"]
    assert len(cas.docs_under("/flat")) == 4 * SPLIT_THRESHOLD
    _assert_containment(cas)


def _cas_state(cas):
    """Everything a CAS index holds, as plain comparable data."""
    parts = {root: (part.members.to_bytes(), part.next_split_at,
                    {t: bm.to_bytes() for t, bm in part.postings.items()})
             for root, part in cas._roots.items()}
    docs = {doc_id: (path, root, frozenset(terms))
            for doc_id, (path, root, terms) in cas._docs.items()}
    return parts, docs


@pytest.mark.parametrize("shape", ["deep", "flat"])
def test_rebuild_places_each_document_once(shape):
    """``rebuild_cas`` lays the partitions out term-less and then adds
    each document's terms in its final partition; the index it builds is
    the one per-document insertion built, split for split."""
    rng = random.Random(0xB01D + SEED)
    texts = {}
    eng = CBAEngine(loader=texts.__getitem__)
    for doc_id in range(6 * SPLIT_THRESHOLD):
        comps = ([f"d{rng.randint(0, 2)}" for _ in range(rng.randint(0, 4))]
                 if shape == "deep" else ["flat"])
        texts[doc_id] = " ".join(rng.choice(WORDS) for _ in range(4))
        eng.index_document(doc_id, pathutil.join("/", *comps, f"f{doc_id}"),
                           mtime=1.0)
    inserted = _cas_state(eng.cas)
    splits = eng.counters.get("cas.splits")
    assert splits > 0
    eng.rebuild_cas()
    assert _cas_state(eng.cas) == inserted
    assert eng.counters.get("cas.splits") == 2 * splits


def test_rebase_prefix_is_one_pass_and_exact():
    rng = random.Random(0xBA5E + SEED)
    cas = CASIndex()
    for doc_id in range(3 * SPLIT_THRESHOLD):
        d = rng.choice(["/a", "/a/deep", "/a/deep/er", "/b"])
        cas.upsert(doc_id, f"{d}/f{doc_id}.txt", ["alpha", "beta"])
    gen0 = cas.generation
    moved = cas.rebase_prefix("/a", "/b/a")  # onto an occupied sibling
    assert moved == sum(1 for d in cas.doc_ids()
                        if pathutil.is_ancestor("/b/a", cas.path_of(d)))
    assert cas.generation == gen0 + 1
    _assert_containment(cas)
    assert cas.docs_under("/a").to_bytes() == b""
    for prefix in ["/b", "/b/a", "/b/a/deep", "/"]:
        assert cas.docs_under(prefix).to_bytes() == \
            _brute_under(cas, prefix), prefix
        assert cas.probe(prefix, "alpha").to_bytes() == \
            _brute_under(cas, prefix), prefix


# ----------------------------------------------------------------------
# the segment plane's path-dimension view
# ----------------------------------------------------------------------

def test_segment_cas_runs_group_by_prefix():
    hac = HacFileSystem()
    hac.makedirs("/projects/mail")
    hac.makedirs("/archive")
    hac.write_file("/projects/mail/a.txt", b"fingerprint ridge\n")
    hac.write_file("/projects/mail/b.txt", b"banana recipe\n")
    hac.write_file("/archive/c.txt", b"budget lunch\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.reindex()  # seals the memtable into frozen segments
    runs = {}
    for seg in hac.engine.segments.frozen:
        for prefix, rows in seg.cas_runs().items():
            runs.setdefault(prefix, []).extend(rows)
    assert set(runs) == {"/projects/mail", "/archive"}
    assert [r.path for r in runs["/projects/mail"]] == \
        ["/projects/mail/a.txt", "/projects/mail/b.txt"]
    for prefix, rows in runs.items():
        for row in rows:
            assert pathutil.dirname(row.path) == prefix
            # the run is exactly what the live CAS index holds
            assert hac.engine.cas.path_of(row.doc_id) == row.path


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


@pytest.mark.skipif(K > 0, reason="segment-merge restore is the monolith "
                                  "engine's path; clusters restore via "
                                  "their persisted cbaindex")
@pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
def test_crash_in_seal_drain_leaves_no_cas_divergence(seed):
    """Crash the device mid-drain — inside the journaled seal/compact
    intents — restore, and require the rebuilt CAS index to agree with
    the registry doc-for-doc (no ``cas-divergence``/``cas-containment``
    findings) and with a scan twin bit-for-bit."""
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
    assert [f for f in findings
            if f.kind in ("cas-divergence", "cas-containment")] == [], seed
    assert [f for f in findings if f.severity == "error"] == [], seed
    for query in ("scope:/archive AND fingerprint",
                  "scope:/archive/drafts AND banana",
                  "scope:/projects/mail AND NOT banana"):
        ast = parse_query(query)
        scan = revived.engine.naive_search(ast)
        assert revived.engine.search(ast).to_bytes() == scan.to_bytes(), \
            (seed, query)


def test_fsck_catches_and_repairs_missed_rebase():
    """Forcing the exact failure the check exists for — a prefix key the
    rename sweep missed — must surface as ``cas-divergence`` and heal
    under ``repair=True`` by rebuilding from the registry."""
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

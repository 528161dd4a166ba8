"""Attribute/value query terms — the SFS model hosted in HAC's language."""

import pytest

from repro.cba.engine import CBAEngine
from repro.cba.queryast import And, FieldTerm, Not, Term, from_obj, has_field_terms
from repro.cba.queryparser import parse_query
from repro.cba.transducers import (
    combine,
    default_transducer,
    filename_transducer,
    header_transducer,
)

MAIL = {
    "m1": "From: alice\nSubject: fingerprint sensor\n\nthe body text\n",
    "m2": "From: bob\nSubject: lunch plans\n\nalice should come\n",
    "m3": "no headers here\nFrom: carol\n",
}


@pytest.fixture
def engine():
    eng = CBAEngine(loader=MAIL.__getitem__, transducer=default_transducer)
    for key in sorted(MAIL):
        eng.index_document(key, path=f"/mail/{key}.txt", mtime=0.0)
    return eng


def keys(engine, result):
    return sorted(engine.doc_by_id(d).key for d in result)


class TestTransducers:
    def test_header_pairs(self):
        pairs = header_transducer("/m", MAIL["m1"])
        assert ("from", "alice") in pairs
        assert ("subject", "fingerprint") in pairs
        assert ("subject", "sensor") in pairs

    def test_headers_stop_at_body(self):
        pairs = header_transducer("/m", MAIL["m3"])
        assert pairs == []  # first line is not a header

    def test_filename_pairs(self):
        pairs = filename_transducer("/mail/Report-v2.TXT", "")
        assert ("name", "report") in pairs
        assert ("name", "v2") in pairs
        assert ("ext", "txt") in pairs

    def test_combine(self):
        t = combine(header_transducer, filename_transducer)
        pairs = t("/m.txt", MAIL["m1"])
        assert ("from", "alice") in pairs and ("ext", "txt") in pairs


class TestAstAndParser:
    def test_parse_pair(self):
        assert parse_query("from:alice") == FieldTerm("from", "alice")

    def test_pair_in_boolean(self):
        got = parse_query("from:alice AND NOT subject:lunch")
        assert got == And([FieldTerm("from", "alice"),
                           Not(FieldTerm("subject", "lunch"))])

    def test_case_folded(self):
        assert FieldTerm("From", "Alice") == FieldTerm("from", "alice")

    def test_text_roundtrip(self):
        ast = parse_query("from:alice OR x")
        assert parse_query(ast.to_text()) == ast

    def test_obj_roundtrip(self):
        node = FieldTerm("a", "b")
        assert from_obj(node.to_obj()) == node

    def test_index_term_is_colon_joined(self):
        assert list(FieldTerm("from", "alice").terms()) == ["from:alice"]

    def test_has_field_terms(self):
        assert has_field_terms(parse_query("x AND from:alice"))
        assert not has_field_terms(parse_query("x AND y"))
        assert has_field_terms(Not(FieldTerm("a", "b")))


class TestSearch:
    def test_field_search_exact(self, engine):
        assert keys(engine, engine.search(parse_query("from:alice"))) == ["m1"]

    def test_word_vs_field_distinction(self, engine):
        # "alice" as a word matches both; as from:alice only the sender
        assert keys(engine, engine.search(parse_query("alice"))) == ["m1", "m2"]
        assert keys(engine, engine.search(parse_query("from:alice"))) == ["m1"]

    def test_multiword_header_value(self, engine):
        assert keys(engine, engine.search(parse_query("subject:sensor"))) == ["m1"]

    def test_combined_with_content(self, engine):
        got = engine.search(parse_query("from:bob AND alice"))
        assert keys(engine, got) == ["m2"]

    def test_unknown_field_empty(self, engine):
        assert not engine.search(parse_query("priority:high"))

    def test_naive_equivalence(self, engine):
        for q in ("from:alice", "ext:txt", "from:bob OR subject:sensor",
                  "NOT from:carol"):
            ast = parse_query(q)
            assert engine.search(ast) == engine.naive_search(ast), q

    def test_engine_without_transducer_ignores_fields(self):
        eng = CBAEngine(loader=MAIL.__getitem__)  # no transducer
        for key in sorted(MAIL):
            eng.index_document(key, path=f"/{key}", mtime=0.0)
        assert not eng.search(parse_query("from:alice"))

    def test_rename_refreshes_name_terms(self, engine):
        assert keys(engine, engine.search(parse_query("name:m1"))) == ["m1"]
        engine.reindex([("m1", "/mail/renamed.txt", 0.0),
                        ("m2", "/mail/m2.txt", 0.0),
                        ("m3", "/mail/m3.txt", 0.0)])
        assert not engine.search(parse_query("name:m1"))
        assert keys(engine, engine.search(parse_query("name:renamed"))) == ["m1"]


class TestThroughHac:
    def test_semantic_dir_on_field_query(self, populated):
        populated.smkdir("/by-sender", "from:alice")
        assert sorted(populated.links("/by-sender")) == ["msg1.txt"]

    def test_sact_on_field_query(self, populated):
        populated.smkdir("/by-sender", "from:alice")
        lines = populated.sact("/by-sender/msg1.txt")
        assert lines == ["From: alice"]

    def test_field_query_survives_restore(self, populated):
        populated.smkdir("/by-sender", "from:alice")
        from repro.core.hacfs import HacFileSystem
        revived = HacFileSystem.restore(populated.fs)
        assert sorted(revived.links("/by-sender")) == ["msg1.txt"]

    @pytest.mark.parametrize("backend", [None, "cluster:3"])
    def test_a_renamed_file_answers_to_its_new_name(self, backend):
        """A file moved outside any watch keeps no term of its old name,
        and gets those of its new one — as a fresh world would index it."""
        from repro.core.hacfs import HacFileSystem
        hac = HacFileSystem(backend=backend)
        hac.makedirs("/d")
        hac.write_file("/d/alpha.txt", b"some text")
        hac.ssync("/")
        hac.rename("/d/alpha.txt", "/d/beta.txt")
        hac.ssync("/")
        assert hac.glimpse("name:alpha") == []
        assert hac.glimpse("name:beta") == ["/d/beta.txt"]
        # a directory move changes no term, and re-tokenises nothing
        tokenised = hac.counters.get("engine.tokenisations")
        hac.rename("/d", "/e")
        hac.ssync("/")
        assert hac.glimpse("name:beta") == ["/e/beta.txt"]
        assert hac.counters.get("engine.tokenisations") == tokenised

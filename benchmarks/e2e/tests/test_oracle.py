"""The oracle against a 20-document corpus whose answers were worked out
by hand."""

from e2e.oracle import Oracle, Query

DOCS = {
    "/a/d01.txt": "fingerprint ridge minutiae",
    "/a/d02.txt": "fingerprint budget",
    "/a/d03.txt": "budget lunch",
    "/a/d04.txt": "Ridge, ridge; RIDGE!",
    "/a/d05.txt": "merge split journal intent",
    "/a/d06.txt": "split merge",
    "/a/d07.txt": "the journal of intent",
    "/a/d08.txt": "",
    "/a/sub/d09.txt": "fingerprint ridge",
    "/a/sub/d10.txt": "lunch",
    "/b/d11.txt": "fingerprint lunch budget",
    "/b/d12.txt": "minutiae",
    "/b/d13.txt": "merge  split",
    "/b/d14.txt": "finger print",
    "/b/d15.txt": "fingerprint_v2",
    "/b/d16.txt": "budget budget budget",
    "/b/d17.txt": "ridge minutiae merge",
    "/ab/d18.txt": "fingerprint",
    "/ab/d19.txt": "lunch ridge",
    "/ab/d20.txt": "journal intent",
}


def build():
    oracle = Oracle()
    for path, text in DOCS.items():
        oracle.put(path, text)
    return oracle


def test_single_terms_are_whole_lowercased_words():
    oracle = build()
    assert oracle.answer(Query(must=("fingerprint",))) == [
        "/a/d01.txt", "/a/d02.txt", "/a/sub/d09.txt", "/ab/d18.txt",
        "/b/d11.txt"]                       # not d14 (two words), not d15
    assert oracle.answer(Query(must=("ridge",))) == [
        "/a/d01.txt", "/a/d04.txt", "/a/sub/d09.txt", "/ab/d19.txt",
        "/b/d17.txt"]
    assert oracle.answer(Query(must=("absent",))) == []


def test_and_not_phrase_and_scope_are_set_algebra():
    oracle = build()
    assert oracle.answer(Query(must=("fingerprint", "budget"))) == [
        "/a/d02.txt", "/b/d11.txt"]
    assert oracle.answer(Query(must=("fingerprint",),
                               must_not=("ridge", "budget"))) == [
        "/ab/d18.txt"]
    assert oracle.answer(Query(phrase=("merge", "split"))) == [
        "/a/d05.txt", "/b/d13.txt"]         # d06 has them the other way round
    assert oracle.answer(Query(phrase=("journal", "intent"))) == [
        "/a/d05.txt", "/ab/d20.txt"]        # d07: "of" sits in between
    # /a must not swallow /ab
    assert oracle.answer(Query(must=("fingerprint",), scope="/a")) == [
        "/a/d01.txt", "/a/d02.txt", "/a/sub/d09.txt"]
    assert oracle.answer(Query(must=("lunch",), scope="/a/sub")) == [
        "/a/sub/d10.txt"]
    assert len(oracle.answer(Query(must_not=("fingerprint",)))) == 15


def test_nested_semantic_directory_narrows_its_parent():
    oracle = build()
    parent = oracle.answer(Query(must=("ridge",)))
    assert oracle.answer(Query(must=("minutiae",)), within=parent) == [
        "/a/d01.txt", "/b/d17.txt"]
    assert oracle.answer(Query(must=("lunch",)), within=[]) == []


def test_mutations_are_mirrored():
    oracle = build()
    oracle.put("/a/d03.txt", "fingerprint only now")
    assert "/a/d03.txt" in oracle.answer(Query(must=("fingerprint",)))
    assert "/a/d03.txt" not in oracle.answer(Query(must=("budget",)))
    oracle.remove("/a/d01.txt")
    oracle.rename("/a/d02.txt", "/b/moved.txt")
    oracle.rename_prefix("/a/sub", "/c")
    assert oracle.answer(Query(must=("fingerprint",))) == [
        "/a/d03.txt", "/ab/d18.txt", "/b/d11.txt", "/b/moved.txt",
        "/c/d09.txt"]
    assert oracle.answer(Query(must=("fingerprint",), scope="/a")) == [
        "/a/d03.txt"]
    assert len(oracle) == 19
    assert oracle.size("/c/d09.txt") == len("fingerprint ridge")


def test_query_text_round_trips_to_hac_syntax():
    query = Query(must=("a1", "b2"), must_not=("c3",), phrase=("d4", "e5"),
                  scope="/src/core")
    assert query.text() == 'a1 AND b2 AND "d4 e5" AND NOT c3'
    assert query.text("/tenants/t") == \
        'scope:/tenants/t/src/core AND a1 AND b2 AND "d4 e5" AND NOT c3'
    assert Query(must_not=("x",)).text("/tenants/t") == "NOT x"


def test_vocabulary_is_by_document_frequency():
    vocab = build().vocabulary()
    assert vocab[:2] == ["fingerprint", "ridge"]      # 5 docs each, by name
    assert "the" not in vocab and "of" not in vocab

"""Property test: the §2.3 scope invariant holds under random histories.

After ANY sequence of file-system mutations followed by a full ``ssync``,
every semantic directory ``sd`` must satisfy:

1. transient(sd) ⊆ scope provided by sd's parent, and
2. transient(sd) = {f in parent scope : f matches sd's query}
   − permanent(sd) − prohibited(sd).

We drive a HAC file system with hypothesis-chosen operation sequences
(writes, unlinks, renames, link edits, query changes) against a fixed
topology of semantic directories, then check the invariant exhaustively.

On a *watched* tree the index is fresh after every drain, so there the
stronger claim holds step by step, over a topology that also has a plain
directory of links (``/shelf``) feeding a semantic child and named by a
query, and over moves of a plain directory that holds the files: what the cascade maintains — link
tables, symlink entries, their texts, the result — is what a from-scratch
evaluation gives (``reference.assert_links_from_scratch``), and what a
reload would build from the records and the tree
(``derived.assert_links_are_derived``), and the map and graph are the
ones a load derives, with every directory something names holding a uid
(``derived.assert_is_derived``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.hacfs import HacFileSystem
from repro.core.links import Target
from repro.util import pathutil

from tests.properties.derived import (assert_is_derived,
                                     assert_links_are_derived)
from tests.properties.reference import (assert_links_from_scratch,
                                        oracle_match)

#: ``of`` is a stopword: the index never holds it, yet the scanner sees it
WORDS = ["alpha", "beta", "gamma", "fingerprint", "kernel", "of"]

ops = st.lists(
    st.tuples(st.sampled_from(["write", "unlink", "rename", "rmlink",
                               "addlink", "requery", "tick"]),
              st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=4)),
    max_size=14)

#: the same mix plus edits of a plain directory that only links
#: (``shelve``), the move of a plain directory that holds files
#: (``mvdir``, there and back on alternate calls), and the ops on
#: directories nothing names (docs/SEMANTICS.md §1): a semantic directory
#: under a plain parent or two deep (``plainsem``), a query naming a plain
#: directory (``plainref``), the move of a plain directory carrying a
#: semantic one under another plain directory and back (``mvcrate``), a
#: watch on a plain directory through a rename to its ``rmdir``
#: (``watchplain``), an ad-hoc glimpse naming one (``glimpse``); and for
#: the drains evaluated by delta, a file placed directly in a semantic
#: directory (``place``) and a prohibited file revived under a new doc id
#: (``revive``)
shelf_ops = st.lists(
    st.tuples(st.sampled_from(["write", "unlink", "rename", "rmlink",
                               "addlink", "requery", "tick", "shelve",
                               "mvdir", "plainsem", "plainref", "mvcrate",
                               "watchplain", "glimpse", "place", "revive"]),
              st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=4)),
    max_size=14)


def home(hac):
    """Where the files live now: ``mvdir`` moves ``/files`` to ``/away``."""
    return "/files" if hac.isdir("/files") else "/away"


def apply_op(hac, op, a, b, rng):
    kind = op
    files = home(hac)
    try:
        if kind == "write":
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 8)))
            hac.write_file(f"{files}/f{a}.txt", (text + "\n").encode())
        elif kind == "unlink":
            path = f"{files}/f{a}.txt"
            if hac.isfile(path):
                hac.unlink(path)
        elif kind == "rename":
            src, dst = f"{files}/f{a}.txt", f"{files}/g{a}_{b}.txt"
            if hac.isfile(src) and not hac.exists(dst, follow=False):
                hac.rename(src, dst)
        elif kind == "rmlink":
            sd = ["/sem1", "/sem1/sub", "/sem2"][a % 3]
            names = sorted(hac.links(sd))
            if names:
                hac.unlink(f"{sd}/{names[b % len(names)]}")
        elif kind == "addlink":
            sd = ["/sem1", "/sem2"][a % 2]
            target = f"{files}/f{b}.txt"
            link = f"{sd}/manual{a}_{b}"
            if hac.isfile(target) and not hac.exists(link, follow=False):
                hac.symlink(target, link)
        elif kind == "requery":
            sd = ["/sem1", "/sem1/sub", "/sem2"][a % 3]
            hac.set_query(sd, WORDS[b % len(WORDS)])
        elif kind == "tick":
            hac.clock.tick()
        elif kind == "shelve":
            # the text spelt three ways: where the file is, relative to
            # the shelf, and through another link; it may name no file
            text = [f"{files}/f{b}.txt", f"..{files}/f{b}.txt",
                    f"/shelf/l{b}"][a % 3]
            link = f"/shelf/s{a}_{b}"
            if not hac.exists(link, follow=False):
                hac.symlink(text, link)
        elif kind == "mvdir":
            hac.rename(files, "/away" if files == "/files" else "/files")
        elif kind == "plainsem":
            path = f"{['/plain', '/plain/a/b'][a % 2]}/s{a}_{b}"
            if not hac.exists(path, follow=False):
                hac.smkdir(path, WORDS[b % len(WORDS)])
        elif kind == "plainref":
            sd = ["/sem1", "/sem1/sub", "/sem2"][a % 3]
            hac.set_query(sd, f"{WORDS[b % len(WORDS)]} OR "
                              f"{['/plain/a', '/plain/a/b'][a % 2]}")
        elif kind == "mvcrate":
            if hac.isdir("/crate"):
                hac.rename("/crate", "/plain/a/crate")
            else:
                hac.rename("/plain/a/crate", "/crate")
        elif kind == "watchplain":
            step_watch(hac)
        elif kind == "place":
            # a file placed in /sem1 is in /sem1/sub's scope, not by a
            # link; one placed in /sem1/sub is in no scope of theirs
            path = f"{['/sem1', '/sem1/sub'][a % 2]}/own{a % 3}.txt"
            if hac.isfile(path) and b % 2:
                hac.unlink(path)
            else:
                hac.write_file(path, f"{WORDS[b]} placed\n".encode())
        elif kind == "revive":
            step_revive(hac, f"{files}/f{a}.txt")
        elif kind == "glimpse":
            word, ref = WORDS[b % len(WORDS)], ["/plain", home(hac)][a % 2]
            # a stand-in for the plain directory answers what its scope does
            assert hac.glimpse(f"{word} AND {ref}") \
                == hac.glimpse(word, scope_path=ref), (word, ref)
    except Exception:
        raise


def step_watch(hac):
    """One step of a watch's life on a plain directory: made and watched,
    moved with a file written in it, emptied and removed.  The watch is on
    wherever the directory is, and gone with it."""
    others = [r for r in hac.watches.roots() if not r.endswith("/wp")]
    if hac.isdir("/plain/wp"):
        hac.unlink("/plain/wp/hot.txt")
        hac.rmdir("/plain/wp")
        assert hac.watches.roots() == others
    elif hac.isdir("/wp"):
        hac.rename("/wp", "/plain/wp")
        hac.write_file("/plain/wp/hot.txt", b"alpha hot\n")
        assert hac.watches.roots() == sorted(others + ["/plain/wp"])
    else:
        hac.mkdir("/wp")
        hac.watch("/wp")
        assert hac.watches.roots() == sorted(others + ["/wp"])


def step_revive(hac, path):
    """Prohibit *path* in ``/sem1`` if a link there names it, then
    withdraw and revive its document: the same key under a new doc id
    (the scheduler's tombstone, one batch when batched)."""
    if not hac.isfile(path):
        return
    for name in sorted(hac.links("/sem1")):
        if hac.readlink(f"/sem1/{name}") == path:
            hac.unlink(f"/sem1/{name}")
    st = hac.stat(path)
    hac.maintenance.note_remove((st.fsid, st.ino), pathutil.dirname(path))
    hac.maintenance.note_upsert((st.fsid, st.ino), path, hac.clock.now)


def check_invariant(hac):
    for sd_path in hac.semantic_dirs():
        uid = hac.dirmap.uid_of(sd_path)
        state = hac.meta.require(uid)
        parent_scope = hac.scopes.provided(pathutil.dirname(sd_path))
        scope_docs = set(parent_scope.local)
        permanent = set(state.links.permanent.values())
        prohibited = state.links.prohibited
        transient = set(state.links.transient.values())

        # clause 1: transient targets lie inside the parent scope; remote
        # targets must come from a name space the scope reaches
        reachable_namespaces = (parent_scope.namespaces
                                | {r.namespace for r in parent_scope.remote})
        for target in transient:
            if target.is_local:
                doc_id = hac.engine.doc_id_of(target.key)
                assert doc_id in scope_docs, (sd_path, target)
            else:
                assert target.realm in reachable_namespaces, (sd_path, target)

        # clause 2 (local side): exactly the matching, non-permanent,
        # non-prohibited files
        expected = set()
        for doc_id in scope_docs:
            doc = hac.engine.doc_by_id(doc_id)
            text = hac.engine.loader(doc.key)
            if oracle_match(hac, state.query, doc.key, text):
                target = Target.local(doc.key[0], doc.key[1])
                if target not in permanent and target not in prohibited:
                    expected.add(target)
        local_transient = {t for t in transient if t.is_local}
        assert local_transient == expected, sd_path

        # materialisation agrees with the state
        entries = set(hac.listdir(sd_path))
        for name in state.links.names():
            assert name in entries, (sd_path, name)


@settings(max_examples=25, deadline=None)
@given(ops, st.integers(min_value=0, max_value=99))
def test_scope_invariant_after_random_history(op_list, seed):
    rng = random.Random(seed)
    hac = HacFileSystem()
    hac.makedirs("/files")
    for i in range(6):
        text = " ".join(rng.choices(WORDS, k=6))
        hac.write_file(f"/files/f{i}.txt", (text + "\n").encode())
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/sem1", "fingerprint OR alpha")
    hac.smkdir("/sem1/sub", "kernel OR alpha OR fingerprint")
    hac.smkdir("/sem2", "beta OR /sem1")

    for op, a, b in op_list:
        apply_op(hac, op, a, b, rng)

    hac.clock.tick()
    hac.ssync("/")
    check_invariant(hac)


@pytest.mark.parametrize("backend,mode", [(None, "eager"), (None, "batched"),
                                          ("cluster:3", "eager"),
                                          ("cluster:3", "batched")])
def test_maintained_links_are_from_scratch_after_every_step(backend, mode):
    @settings(max_examples=15, deadline=None)
    @given(shelf_ops, st.integers(min_value=0, max_value=99))
    def run(op_list, seed):
        rng = random.Random(seed)
        # four blocks, so that documents share them
        hac = HacFileSystem(backend=backend, num_blocks=4)
        hac.makedirs("/files")
        hac.watch("/")
        hac.maintenance.set_mode(mode)
        for i in range(6):
            text = " ".join(rng.choices(WORDS, k=6))
            hac.write_file(f"/files/f{i}.txt", (text + "\n").encode())
        hac.smkdir("/sem1", "fingerprint OR alpha")
        hac.smkdir("/sem1/sub", "kernel OR alpha OR fingerprint")
        hac.smkdir("/sem2", "beta OR /sem1")
        hac.smkdir("/files/own", "NOT gamma")
        # a plain shelf of links: its child's parent scope is only link
        # targets, and a directory under a plain parent names the shelf
        hac.mkdir("/shelf")
        for i in range(3):
            hac.symlink(f"/files/f{i}.txt", f"/shelf/l{i}")
        hac.smkdir("/shelf/pick", "alpha")
        hac.smkdir("/files/shelved", "beta OR /shelf")
        # a query with NOT over a directory, and a shelf whose one link
        # has a relative text (which records ``/``): every drain evaluates
        # these whole, beside the directories it evaluates by delta
        hac.smkdir("/files/unpicked", "alpha AND NOT /sem1")
        # a stopword under OR: ``of`` narrows no block, so the scanner
        # decides each file by its own text (at the root, which every
        # change reaches)
        hac.smkdir("/stop", "alpha OR of")
        hac.mkdir("/rshelf")
        hac.symlink("../files/f3.txt", "/rshelf/rel")
        hac.smkdir("/rshelf/pick", "beta")
        # directories nothing names: a plain tree with a file, and a plain
        # crate carrying a semantic directory
        hac.makedirs("/plain/a/b")
        hac.write_file("/plain/a/b/notes.txt", b"alpha beta plain\n")
        hac.makedirs("/crate/box")
        hac.smkdir("/crate/box/sem", "alpha OR beta")
        for step, (op, a, b) in enumerate(op_list):
            apply_op(hac, op, a, b, rng)
            # batched: every other step stays pending into the next op, so
            # renames and link edits meet a queue and drain it themselves
            if mode == "eager" or step % 2:
                assert_links_from_scratch(hac, (step, op, a, b))
            assert_is_derived(hac, (step, op, a, b))
            assert_links_are_derived(hac, (step, op, a, b))
        assert_links_from_scratch(hac, "end")
        assert [f for f in hac.fsck() if f.severity != "info"] == []

    run()


@settings(max_examples=10, deadline=None)
@given(ops)
def test_prohibitions_never_resurface(op_list):
    """Whatever happens, a prohibited target never reappears as transient."""
    rng = random.Random(1)
    hac = HacFileSystem()
    hac.makedirs("/files")
    for i in range(4):
        hac.write_file(f"/files/f{i}.txt", b"alpha beta\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/sem1", "alpha")
    hac.smkdir("/sem2", "beta")  # apply_op targets it too
    victim = sorted(hac.links("/sem1"))[0]
    hac.unlink(f"/sem1/{victim}")
    uid = hac.dirmap.uid_of("/sem1")
    tombstones = set(hac.meta.require(uid).links.prohibited)
    assert tombstones

    for op, a, b in op_list:
        if op in ("rmlink", "requery"):
            continue  # keep /sem1's own curation fixed for this property
        apply_op(hac, op, a, b, rng)
    hac.clock.tick()
    hac.ssync("/")
    state = hac.meta.require(uid)
    assert not (set(state.links.transient.values()) & tombstones)

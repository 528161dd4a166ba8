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
stronger claim holds step by step: what the cascade maintains — link
tables, symlink entries, their texts, the stored result — is what a
from-scratch evaluation gives (``reference.assert_links_from_scratch``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.hacfs import HacFileSystem
from repro.core.links import Target
from repro.util import pathutil

from tests.properties.reference import (assert_links_from_scratch,
                                        oracle_match)

WORDS = ["alpha", "beta", "gamma", "fingerprint", "kernel"]

ops = st.lists(
    st.tuples(st.sampled_from(["write", "unlink", "rename", "rmlink",
                               "addlink", "requery", "tick"]),
              st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=4)),
    max_size=14)


def apply_op(hac, op, a, b, rng):
    kind = op
    try:
        if kind == "write":
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 8)))
            hac.write_file(f"/files/f{a}.txt", (text + "\n").encode())
        elif kind == "unlink":
            path = f"/files/f{a}.txt"
            if hac.isfile(path):
                hac.unlink(path)
        elif kind == "rename":
            src, dst = f"/files/f{a}.txt", f"/files/g{a}_{b}.txt"
            if hac.isfile(src) and not hac.exists(dst, follow=False):
                hac.rename(src, dst)
        elif kind == "rmlink":
            sd = ["/sem1", "/sem1/sub", "/sem2"][a % 3]
            names = sorted(hac.links(sd))
            if names:
                hac.unlink(f"{sd}/{names[b % len(names)]}")
        elif kind == "addlink":
            sd = ["/sem1", "/sem2"][a % 2]
            target = f"/files/f{b}.txt"
            link = f"{sd}/manual{a}_{b}"
            if hac.isfile(target) and not hac.exists(link, follow=False):
                hac.symlink(target, link)
        elif kind == "requery":
            sd = ["/sem1", "/sem1/sub", "/sem2"][a % 3]
            hac.set_query(sd, WORDS[b % len(WORDS)])
        elif kind == "tick":
            hac.clock.tick()
    except Exception:
        raise


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
                                          ("cluster:3", "batched")])
def test_maintained_links_are_from_scratch_after_every_step(backend, mode):
    @settings(max_examples=15, deadline=None)
    @given(ops, st.integers(min_value=0, max_value=99))
    def run(op_list, seed):
        rng = random.Random(seed)
        hac = HacFileSystem(backend=backend)
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
        for step, (op, a, b) in enumerate(op_list):
            apply_op(hac, op, a, b, rng)
            # batched: every other step stays pending into the next op, so
            # renames and link edits meet a queue and drain it themselves
            if mode == "eager" or step % 2:
                assert_links_from_scratch(hac, (step, op, a, b))
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

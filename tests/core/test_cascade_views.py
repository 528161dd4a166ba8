"""Semantic directories as maintained views (ISSUE 24): one tree read per
cascade, link classes in doc-id algebra, no write where nothing changed.

The property suites check *maintained = from scratch* after every step of
random histories (``tests/properties/reference.py``); here are the cases
worth naming, the exact counts a cascade may cost, and the two bugs the
rewrite fixed on the way.
"""

import itertools

import pytest

from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed, NoSpace
from repro.core.links import Target
from repro.util import serialization
from repro.vfs.blockdev import FaultPlan

from tests.properties.reference import assert_links_from_scratch


def names(hac, path):
    return set(hac.links(path))


def key_of(hac, path):
    st = hac.fs.stat(path)
    return (st.fsid, st.ino)


@pytest.fixture
def watched():
    """Six files under a watched root, batched maintenance (so writes
    stay pending until something drains them), one semantic directory."""
    hac = HacFileSystem()
    hac.makedirs("/files")
    hac.watch("/")
    hac.maintenance.set_mode("batched")
    for i in range(6):
        hac.write_file(f"/files/f{i}.txt", f"alpha word{i}\n".encode())
    hac.smkdir("/sem", "alpha")
    assert len(names(hac, "/sem")) == 6
    return hac


def revive(hac, path):
    """Withdraw *path*'s document and revive it in one batch — the
    scheduler's ``tombstoned`` branch: same key, fresh doc id."""
    key, before = key_of(hac, path), hac.engine.doc_id_of(key_of(hac, path))
    hac.maintenance.note_remove(key, "/files")
    hac.maintenance.note_upsert(key, path, hac.clock.now)
    hac.maintenance.barrier()
    assert hac.engine.doc_id_of(key) not in (None, before)


class TestNamedCases:
    def test_prohibited_file_revived_under_a_new_id_stays_out(self, watched):
        watched.unlink("/sem/f0.txt")
        revive(watched, "/files/f0.txt")
        assert "f0.txt" not in names(watched, "/sem")
        assert watched.prohibited("/sem")
        assert_links_from_scratch(watched)

    def test_transient_file_revived_keeps_one_link_same_name(self, watched):
        target = Target.local(*key_of(watched, "/files/f1.txt"))
        revive(watched, "/files/f1.txt")
        links = watched.meta.require(watched.dirmap.uid_of("/sem")).links
        assert [n for n, t in links.transient.items() if t == target] \
            == ["f1.txt"]
        assert watched.readlink("/sem/f1.txt") == "/files/f1.txt"
        assert len(names(watched, "/sem")) == 6
        assert_links_from_scratch(watched)

    def test_rename_with_writes_pending_runs_the_nested_cascade(self, watched):
        watched.smkdir("/beta", "beta")
        watched.smkdir("/sem/sub", "word3 OR beta")
        watched.write_file("/files/f2.txt", b"beta only now\n")
        watched.write_file("/files/f3.txt", b"alpha beta word3\n")
        assert watched.maintenance.pending == 2
        watched.rename("/files/f3.txt", "/files/g3.txt")   # drains, then moves
        assert_links_from_scratch(watched)
        assert names(watched, "/beta") == {"f2.txt", "g3.txt"}
        assert watched.readlink("/sem/f3.txt") == "/files/g3.txt"
        watched.write_file("/files/f4.txt", b"beta too\n")
        watched.rename("/files", "/moved")                 # same, a directory
        assert_links_from_scratch(watched)
        assert watched.readlink("/sem/sub/f3.txt") == "/moved/g3.txt"

    def test_semantic_parent_is_seen_by_its_child_in_one_cascade(self, watched):
        watched.smkdir("/sem/sub", "word9")
        assert names(watched, "/sem/sub") == set()
        watched.write_file("/files/new.txt", b"alpha word9\n")
        watched.maintenance.barrier()      # one drain, one cascade
        assert "new.txt" in names(watched, "/sem")
        assert names(watched, "/sem/sub") == {"new.txt"}
        assert_links_from_scratch(watched)

    @pytest.mark.parametrize("backend", [None, "cluster:3"])
    def test_a_rewrite_moves_only_its_own_verdict(self, backend):
        """``of`` is a stopword: the index never holds it, so it nominates
        every block and the scanner finds it in each document that holds
        it.  A drain that gives or takes ``alpha`` from one document moves
        that document's verdict only, and is evaluated by delta."""
        hac = HacFileSystem(backend=backend, num_blocks=2)
        hac.makedirs("/files")
        hac.watch("/")
        for i in range(4):
            hac.write_file(f"/files/f{i}.txt", b"beta of\n")
        hac.smkdir("/stop", "alpha OR of")
        every = {f"f{i}.txt" for i in range(4)}
        assert names(hac, "/stop") == every
        hac.write_file("/files/f1.txt", b"alpha\n")
        assert names(hac, "/stop") == every
        assert_links_from_scratch(hac)
        hac.write_file("/files/f1.txt", b"gamma\n")
        assert names(hac, "/stop") == every - {"f1.txt"}
        assert_links_from_scratch(hac)
        assert hac.health()["cascades"]["delta_evaluations"] == 2

    @pytest.mark.parametrize("mode", ["eager", "batched"])
    @pytest.mark.parametrize("backend", [None, "cluster:3"])
    def test_a_write_out_of_reach_moves_no_verdict(self, backend, mode):
        """The seed rule (docs/SEMANTICS.md §5) lets a drain reach only
        what the written directory reaches.  ``notes.txt`` shares a block
        with ``/files/f0.txt``, yet giving it ``alpha`` moves no verdict
        in ``/files/stop``: each file matches by its own text."""
        hac = HacFileSystem(backend=backend, num_blocks=4)
        hac.makedirs("/files")
        hac.makedirs("/plain/a/b")
        hac.watch("/")
        hac.maintenance.set_mode(mode)
        for i in range(4):
            hac.write_file(f"/files/f{i}.txt", b"beta of\n")
        hac.smkdir("/files/stop", "alpha OR of")
        hac.write_file("/plain/a/b/notes.txt", b"alpha\n")
        assert_links_from_scratch(hac)
        assert names(hac, "/files/stop") == {f"f{i}.txt" for i in range(4)}

    def test_a_link_fed_parent_sees_its_target_move_and_change(self):
        """``/d0``'s scope holds ``/w/a.txt`` through a symlink, so a change
        in ``/w`` reaches ``/d0/q`` although ``/w`` is no ancestor of it:
        the target renamed away, renamed back, and rewritten."""
        hac = HacFileSystem()
        hac.makedirs("/w")
        hac.makedirs("/d0")
        hac.watch("/")
        hac.write_file("/w/a.txt", b"alpha\n")
        hac.symlink("/w/a.txt", "/d0/link")
        hac.smkdir("/d0/q", "alpha")
        assert names(hac, "/d0/q") == {"a.txt"}
        hac.rename("/w/a.txt", "/w/b.txt")
        assert names(hac, "/d0/q") == set()
        assert_links_from_scratch(hac)
        hac.rename("/w/b.txt", "/w/a.txt")
        assert names(hac, "/d0/q") == {"a.txt"}
        assert_links_from_scratch(hac)
        hac.write_file("/w/a.txt", b"beta\n")
        assert names(hac, "/d0/q") == set()
        assert_links_from_scratch(hac)

    def test_a_link_through_another_directory_counts_as_fed_from_anywhere(
            self):
        """``/d0/link`` reaches its file through ``/x/alias``: re-aiming
        the alias changes ``/d0``'s scope from ``/x``, which is neither
        above ``/d0`` nor above the file."""
        hac = HacFileSystem()
        for path in ("/w", "/v", "/x", "/d0"):
            hac.mkdir(path)
        hac.watch("/")
        hac.write_file("/w/a.txt", b"alpha\n")
        hac.write_file("/v/a.txt", b"beta\n")
        hac.symlink("/w", "/x/alias")
        hac.symlink("/x/alias/a.txt", "/d0/link")
        hac.smkdir("/d0/q", "alpha")
        assert names(hac, "/d0/q") == {"a.txt"}
        hac.unlink("/x/alias")
        hac.symlink("/v", "/x/alias")
        assert names(hac, "/d0/q") == set()
        assert_links_from_scratch(hac)

    def test_a_query_set_over_links_changes_what_its_plain_parent_provides(
            self):
        """``/p/d``'s symlink feeds ``/p``'s scope while ``/p/d`` is plain;
        given a query it becomes a permanent link, which no plain scope
        reads, so ``/p/q`` (under ``/p``) loses the file — and gets it
        back when the query goes."""
        hac = HacFileSystem()
        hac.makedirs("/files")
        hac.makedirs("/p/d")
        hac.watch("/")
        hac.write_file("/files/x.txt", b"alpha\n")
        hac.symlink("/files/x.txt", "/p/d/x")
        hac.smkdir("/p/q", "alpha")
        assert names(hac, "/p/q") == {"x.txt"}
        hac.set_query("/p/d", "beta")
        assert names(hac, "/p/q") == set()
        assert_links_from_scratch(hac)
        hac.set_query("/p/d", None)
        assert names(hac, "/p/q") == {"x.txt"}
        assert_links_from_scratch(hac)

    def test_killed_shard_keeps_links_flags_and_heals(self):
        hac = HacFileSystem(backend="cluster:3")
        hac.makedirs("/files")
        hac.watch("/")
        for i in range(9):
            hac.write_file(f"/files/f{i}.txt", f"alpha word{i}\n".encode())
        hac.smkdir("/sem", "alpha")
        sid = hac.engine.shard_of(key_of(hac, "/files/f0.txt"))
        hac.engine.kill_shard(sid)
        hac.write_file("/files/late.txt", b"no match here\n")
        state = hac.meta.require(hac.dirmap.uid_of("/sem"))
        assert len(names(hac, "/sem")) == 9     # stale beats lost
        assert set(state.degraded_shards) == {sid}
        hac.engine.revive_shard(sid)
        hac.write_file("/files/f0.txt", b"gone from the result\n")
        assert state.degraded_shards == {}
        assert "f0.txt" not in names(hac, "/sem")
        assert_links_from_scratch(hac)


class TestBugRegressions:
    def test_permanent_link_follows_its_renamed_target(self, populated):
        # /notes/fp sits under a plain directory the renames never touch:
        # its permanent link's file is where a change must reach it from
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/notes/fp", "recipe")
        for sd in ("/fp", "/notes/fp"):
            populated.symlink("/mail/msg2.txt", f"{sd}/msg2.txt")
        populated.rename("/mail/msg2.txt", "/mail/msg2b.txt")
        for sd in ("/fp", "/notes/fp"):
            assert populated.readlink(f"{sd}/msg2.txt") == "/mail/msg2b.txt"
            assert populated.exists(f"{sd}/msg2.txt")
            assert populated.classify(f"{sd}/msg2.txt") == "permanent"
        populated.rename("/mail", "/post")
        for sd in ("/fp", "/notes/fp"):
            assert populated.readlink(f"{sd}/msg2.txt") == "/post/msg2b.txt"
        assert populated.readlink("/fp/msg1.txt") == "/post/msg1.txt"
        assert populated.fsck() == []

    def test_stored_result_is_exact_after_a_hand_added_link(self, populated):
        populated.smkdir("/fp", "fingerprint AND alice")
        state = populated.meta.require(populated.dirmap.uid_of("/fp"))
        assert len(state.result_cache) == 1
        populated.symlink("/mail/msg2.txt", "/fp/msg2.txt")
        assert len(state.result_cache) == 2
        assert populated.scopes.provided("/fp").local == state.result_cache
        # the record holds what the user said; the result is derived
        record = serialization.loads(
            populated.fs.device.read_record(f"semdir:{state.uid}"))
        assert "result" not in record
        assert set(record["links"]) == {"permanent", "prohibited"}
        # a hand-made link to a file the query also finds: one link, the
        # permanent one, and the result counts the file once
        populated.symlink("/mail/msg1.txt", "/fp/mine.txt")
        assert names(populated, "/fp") == {"mine.txt", "msg2.txt"}
        assert len(state.result_cache) == 2
        assert populated.fsck() == []

    def test_a_reopen_derives_the_result_from_the_tree(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.symlink("/notes/recipe.txt", "/fp/pin.txt")
        populated.smkdir("/fp/sub", "alice OR recipe")
        good = populated.meta.require(populated.dirmap.uid_of("/fp")).result_cache
        again = HacFileSystem.restore(populated.fs)
        state = again.meta.require(again.dirmap.uid_of("/fp"))
        assert state.result_cache == good
        assert again.links("/fp/sub") == populated.links("/fp/sub")
        assert again.fsck() == []

    def test_an_entry_already_gone_is_counted_not_swallowed(self, populated):
        """``_apply_transient`` swallowed every exception; now an entry
        that is already gone is counted and anything else propagates."""
        populated.smkdir("/fp", "fingerprint")
        populated.fs.unlink("/fp/msg1.txt")             # behind HAC's back
        populated.write_file("/mail/msg1.txt", b"nothing to see\n")
        populated.clock.tick()
        populated.ssync("/")
        assert "msg1.txt" not in names(populated, "/fp")
        assert populated.counters.get("consistency.materialise_skips") == 1


HAND_EDITS = {
    "unlink": lambda hac: hac.unlink("/fp/m1.txt"),
    "symlink": lambda hac: hac.symlink("/mail/lunch.txt", "/fp/lunch.txt"),
    "unprohibit": lambda hac: hac.unprohibit("/fp", "/mail/m0.txt"),
}


@pytest.mark.parametrize("fault", ["crash_at", "enospc_at"])
@pytest.mark.parametrize("edit", sorted(HAND_EDITS))
def test_a_fault_inside_a_hand_edit_never_tears_result_from_links(edit, fault):
    """``unlink`` / ``symlink`` / ``unprohibit`` of a tracked link run
    outside any journal intent, and a child directory (``/fp/sub``) is
    evaluated over the result: the result is the link tables' own, in
    memory (a full device: the instance lives on) and after a reopen (a
    crash).  Swept over every record write of the edit and its cascade."""
    for offset in itertools.count():
        hac = HacFileSystem()
        hac.makedirs("/mail")
        for i in range(4):
            hac.write_file(f"/mail/m{i}.txt", f"alpha word{i}\n".encode())
        hac.write_file("/mail/lunch.txt", b"word2 but no first letter\n")
        hac.ssync("/")
        hac.smkdir("/fp", "alpha")
        hac.smkdir("/fp/sub", "word0 OR word1 OR word2")
        hac.unlink("/fp/m0.txt")
        dev = hac.fs.device
        at = dev.record_write_index + offset
        dev.set_fault_plan(FaultPlan(**{fault: at if fault == "crash_at" else [at]}))
        try:
            HAND_EDITS[edit](hac)
        except (DeviceCrashed, NoSpace):
            dev.clear_faults()
        else:
            assert offset >= 1, "the edit writes its record, its cascade none"
            return
        if fault == "crash_at":
            hac = HacFileSystem.restore(hac.fs)
        kinds = {f.kind for f in hac.fsck() if f.severity == "error"}
        state = hac.meta.require(hac.dirmap.uid_of("/fp"))
        assert hac.scopes.provided("/fp").local \
            == hac.consistency.ids_of(state.links.all_targets())
        if offset and fault == "crash_at":   # the edit's own record landed
            assert kinds == set(), (edit, offset)
            assert_links_from_scratch(hac, (edit, offset))


# ----------------------------------------------------------------------
# exact counts: what one cascade may read and write
# ----------------------------------------------------------------------

class DeviceLog:
    """Keys of the records — and of the journalled pre-images — written
    while installed on a device."""

    def __init__(self, device, monkeypatch):
        self.writes, self.preimages = [], []
        original = device.write_record

        def write_record(key, data):
            if ":u" in key and key.startswith("wal:"):
                self.preimages.append(serialization.loads(data)["key"])
            elif not key.startswith("wal:"):
                self.writes.append(key)
            return original(key, data)

        monkeypatch.setattr(device, "write_record", write_record)

    def semdir(self):
        return ([k for k in self.writes if k.startswith("semdir:")],
                [k for k in self.preimages if k.startswith("semdir:")])


@pytest.fixture
def six_views(monkeypatch):
    """One tenant, 40 files, six semantic directories under one plain
    parent; everything drained.  Yields (hac, tenant, log, walks)."""
    from repro.core import scope

    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    tenant = hac.tenants.create("main")
    tenant.mkdir("/src")
    for i in range(40):
        tenant.write_file(f"/src/f{i}.txt", f"tag{i % 6} text {i}\n".encode())
    for k in range(6):
        tenant.smkdir(f"/q{k}", f"tag{k}")
    tenant.barrier()
    walks = []
    real_walk = scope.walk
    monkeypatch.setattr(scope, "walk", lambda fs, top: walks.append(top)
                        or real_walk(fs, top))
    log = DeviceLog(hac.fs.device, monkeypatch)
    hac.counters.reset()
    return hac, tenant, log, walks


class TestExactCounts:
    def test_a_rewrite_that_changes_no_link_reads_once_writes_nothing(
            self, six_views):
        hac, tenant, log, walks = six_views
        tenant.write_file("/src/f0.txt", b"tag0 text rewritten\n")
        tenant.barrier()
        count = hac.counters.get
        assert count("consistency.reevaluations") == 6
        # by delta: one CAS probe of the parent, no tree read at all
        assert count("consistency.delta_evaluations") == 6
        assert count("consistency.scope_reads") == 0
        assert count("consistency.unchanged") == 6
        assert walks == []
        assert log.semdir() == ([], [])
        assert count("vfs.symlink") == count("vfs.unlink") == 0

    def test_a_rewrite_that_moves_one_file_writes_no_record(self, six_views):
        hac, tenant, log, walks = six_views
        hac.obs.enable()
        tenant.write_file("/src/f0.txt", b"tag0 tag3 text\n")
        tenant.barrier()
        assert log.semdir() == ([], [])     # the new link is in the tree
        assert walks == []
        assert hac.counters.get("consistency.unchanged") == 5
        assert hac.counters.get("vfs.symlink") == 1
        assert "f0.txt" in tenant.links("/q3") and "f0.txt" in tenant.links("/q0")
        # the same numbers where an operator looks: the span, and health()
        (span,) = hac.obs.trace.spans(name="hac.cascade")
        assert {k: span.attrs[k] for k in ("reevaluated", "scope_reads",
                                           "unchanged", "delta")} \
            == {"reevaluated": 1, "scope_reads": 0, "unchanged": 5, "delta": 6}
        assert hac.health()["cascades"] == {
            "cascades": 1, "reevaluations": 6, "scope_reads": 0, "unchanged": 5,
            "delta_evaluations": 6}

    @pytest.mark.parametrize("backend", [None, "cluster:3"])
    def test_a_drain_evaluates_only_what_it_drained(self, backend,
                                                    monkeypatch):
        """A one-file rewrite under a flat parent costs the same beside 100
        files as beside 1 000: no tree read, and the query is asked of the
        one document the drain changed (a whole evaluation walks every
        file and weighs every candidate)."""
        from repro.core import scope

        def cost(n):
            hac = HacFileSystem(backend=backend)
            hac.mkdir("/flat")
            hac.watch("/flat")
            hac.maintenance.set_mode("batched")
            for i in range(n):
                hac.write_file(f"/flat/f{i}.txt",
                               f"alpha word{i % 7} body\n".encode())
            hac.smkdir("/flat/pick", '"alpha word3"')
            hac.maintenance.drain()
            walked = []
            real_walk = scope.walk

            def walk(fs, top):
                for step in real_walk(fs, top):
                    walked.extend(step[2])
                    yield step

            monkeypatch.setattr(scope, "walk", walk)
            hac.counters.reset()
            hac.write_file("/flat/f3.txt", b"alpha word3 again\n")
            hac.maintenance.drain()
            monkeypatch.setattr(scope, "walk", real_walk)
            counts = {k: v for k, v in hac.counters.items()
                      if k.split(".")[0] in ("engine", "consistency", "vfs")}
            assert "f3.txt" in names(hac, "/flat/pick")
            assert_links_from_scratch(hac)
            return len(walked), counts

        small, large = cost(100), cost(1000)
        assert small == large
        assert small[0] == 0
        assert small[1]["consistency.delta_evaluations"] == 1

    def test_a_cascade_without_semantic_directories_is_untouched(self):
        """The andrew_path contract: no barrier, no scope read, no counter."""
        hac = HacFileSystem()
        hac.makedirs("/a/b")
        hac.write_file("/a/b/f.txt", b"x\n")
        hac.counters.reset()
        hac.unlink("/a/b/f.txt")
        assert hac.counters.get("consistency.cascades") == 0
        assert not [k for k, _v in hac.counters.items()
                    if k.startswith("consistency.") and k != "consistency.cascades"]
        assert hac.counters.get("sched.barrier_drains") == 0

    def test_names_are_invented_against_one_set(self, populated, monkeypatch):
        from repro.core.links import LinkSets

        calls = []
        real = LinkSets.used_names
        monkeypatch.setattr(LinkSets, "used_names",
                            lambda self: calls.append(1) or real(self))
        populated.smkdir("/fp", "fingerprint")
        assert len(names(populated, "/fp")) == 3 and calls == [1]


@pytest.fixture
def thousand_plain(monkeypatch):
    """1 000 plain directories beside a watched ``/w`` holding one file,
    and no semantic directory; yields (hac, sorts) where *sorts* counts
    the dependency graph's topological sorts."""
    from repro.core.depgraph import DependencyGraph

    hac = HacFileSystem()
    for i in range(1000):
        hac.mkdir(f"/d{i}")
    hac.mkdir("/w")
    hac.watch("/w")
    hac.write_file("/w/a.txt", b"alpha\n")
    sorts = []
    real = DependencyGraph._topo_sort
    monkeypatch.setattr(DependencyGraph, "_topo_sort",
                        lambda self, nodes: sorts.append(1) or real(self, nodes))
    hac.counters.reset()
    return hac, sorts


class TestReach:
    """A cascade reaches only what the change can reach: a plain
    directory is no node of the dependency graph, so with no semantic
    directory a change seeds nothing, and one beside the change is not
    re-evaluated."""

    @pytest.mark.parametrize("change", [
        lambda hac: hac.rename("/w/a.txt", "/w/b.txt"),
        lambda hac: hac.unlink("/w/a.txt"),
        lambda hac: hac.write_file("/w/a.txt", b"beta\n"),
    ], ids=["rename", "unlink", "watched-write"])
    def test_no_semantic_directory_no_cascade_no_sort(self, thousand_plain,
                                                      change):
        hac, sorts = thousand_plain
        change(hac)
        assert hac.counters.get("consistency.cascades") == 0
        assert sorts == []

    def test_a_semantic_directory_beside_the_change_is_not_reevaluated(
            self, thousand_plain):
        hac, _sorts = thousand_plain
        hac.smkdir("/d0/q", "alpha")
        hac.counters.reset()
        for i in range(20):
            hac.rename("/w/a.txt", "/w/b.txt")
            hac.rename("/w/b.txt", "/w/a.txt")
        assert hac.counters.get("consistency.reevaluations") == 0
        assert_links_from_scratch(hac)

    def test_a_write_under_a_bare_root_reaches_no_link_fed_directory(self):
        """A change is reported by its directory's node, not by its nearest
        named ancestor's uid: with nothing named on the way from the root,
        a write in the plain ``/w`` is no change at ``/``, so a directory
        link-fed from ``/x`` is not re-evaluated."""
        hac = HacFileSystem()
        hac.mkdir("/x")
        hac.write_file("/x/f.txt", b"alpha\n")
        hac.mkdir("/p")
        hac.symlink("/x/f.txt", "/p/l")
        hac.ssync("/")
        hac.smkdir("/p/s", "alpha")
        assert set(hac.links("/p/s")) == {"f.txt"}
        hac.mkdir("/w")
        hac.watch("/w")
        hac.counters.reset()
        for i in range(40):
            hac.write_file(f"/w/f{i % 4}.txt", b"alpha %d\n" % i)
        assert hac.counters.get("consistency.reevaluations") == 0
        hac.write_file("/x/f.txt", b"alpha again\n")
        hac.ssync("/x")
        assert hac.counters.get("consistency.reevaluations") > 0
        assert_links_from_scratch(hac)

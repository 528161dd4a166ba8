"""Unit tests for scope computation (§2.3)."""

import pytest


def doc_ids(hacfs, *paths):
    out = set()
    for path in paths:
        res = hacfs.fs.resolve(path)
        doc = hacfs.engine.doc_id_of((res.fs.fsid, res.node.ino))
        assert doc is not None, path
        out.add(doc)
    return out


class TestRootScope:
    def test_root_provides_all_indexed_files(self, populated):
        scope = populated.scopes.provided("/")
        assert set(scope.local) == doc_ids(
            populated, "/notes/fp-design.txt", "/notes/recipe.txt",
            "/mail/msg1.txt", "/mail/msg2.txt", "/src/match.c")

    def test_root_namespaces_cover_all_mounts(self, populated, library):
        populated.mkdir("/lib")
        populated.smount("/lib", library)
        assert populated.scopes.provided("/").namespaces == {"digilib"}


class TestSyntacticScope:
    def test_subtree_files(self, populated):
        scope = populated.scopes.provided("/notes")
        assert set(scope.local) == doc_ids(
            populated, "/notes/fp-design.txt", "/notes/recipe.txt")

    def test_unindexed_file_not_in_scope(self, populated):
        populated.write_file("/notes/new.txt", b"fresh fingerprint data")
        scope = populated.scopes.provided("/notes")
        # not yet indexed (data consistency is lazy): only 2 docs
        assert len(scope.local) == 2

    def test_symlink_targets_counted(self, populated):
        populated.symlink("/src/match.c", "/notes/code-link")
        scope = populated.scopes.provided("/notes")
        assert doc_ids(populated, "/src/match.c") <= set(scope.local)

    def test_dangling_symlink_ignored(self, populated):
        populated.symlink("/gone", "/notes/dangle")
        scope = populated.scopes.provided("/notes")
        assert len(scope.local) == 2

    def test_remote_symlink_contributes_remote_member(self, populated, library):
        populated.mkdir("/lib")
        populated.smount("/lib", library)
        populated.symlink("digilib://fp-survey", "/notes/survey")
        scope = populated.scopes.provided("/notes")
        assert {r.uri() for r in scope.remote} == {"digilib://fp-survey"}

    def test_namespaces_under(self, populated, library):
        populated.makedirs("/a/b")
        populated.smount("/a/b", library)
        assert populated.scopes.provided("/a").namespaces == {"digilib"}
        assert populated.scopes.provided("/notes").namespaces == set()


class TestSemanticScope:
    def test_semantic_dir_provides_its_links(self, populated):
        populated.smkdir("/fp", "fingerprint")
        scope = populated.scopes.provided("/fp")
        assert set(scope.local) == doc_ids(
            populated, "/notes/fp-design.txt", "/mail/msg1.txt", "/src/match.c")

    def test_physical_files_directly_inside_count(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.write_file("/fp/extra.txt", b"added by hand")
        populated.ssync("/")
        scope = populated.scopes.provided("/fp")
        assert doc_ids(populated, "/fp/extra.txt") <= set(scope.local)

    def test_semantic_links_excluded_from_syntactic_ancestor(self, populated):
        populated.mkdir("/group")
        populated.smkdir("/group/fp", "fingerprint")
        # /group's provided scope must NOT contain fp's query results
        scope = populated.scopes.provided("/group")
        assert not set(scope.local)

    def test_plain_dir_symlinks_do_count_for_ancestor(self, populated):
        populated.mkdir("/group")
        populated.symlink("/src/match.c", "/group/code")
        scope = populated.scopes.provided("/group")
        assert set(scope.local) == doc_ids(populated, "/src/match.c")

    def test_dangling_uid_scope_empty(self, populated):
        scope = populated.scopes.provided_by_uid(424242)
        assert not scope.local and not scope.remote and not scope.namespaces

    def test_repr(self, populated):
        assert "Scope(" in repr(populated.scopes.provided("/"))


def _lingering_row_world(pending_elsewhere):
    from repro.core.hacfs import HacFileSystem

    hac = HacFileSystem()
    hac.makedirs("/proj/src")
    hac.makedirs("/other")
    hac.write_file("/proj/src/a.txt", b"fingerprint alpha")
    hac.write_file("/proj/src/b.txt", b"fingerprint beta")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/proj/q", "fingerprint")
    hac.unlink("/proj/src/b.txt")  # unwatched: its index row lingers (§2.4)
    if pending_elsewhere:
        hac.watch("/other")
        hac.maintenance.set_mode("batched")
        hac.write_file("/other/x.txt", b"unrelated")
        assert hac.maintenance.pending == 1
    return hac


class TestScopeIsTreeTruth:
    """scope(d) is a function of the tree and the index, never of the
    maintenance queue (docs/SEMANTICS.md §3)."""

    def test_plain_scope_ignores_unrelated_queue_state(self):
        drained = _lingering_row_world(pending_elsewhere=False)
        queued = _lingering_row_world(pending_elsewhere=True)
        assert list(drained.scopes.provided("/proj").local) == \
            list(queued.scopes.provided("/proj").local) == \
            sorted(doc_ids(drained, "/proj/src/a.txt"))

    @staticmethod
    def _world_with(files):
        from repro.core.hacfs import HacFileSystem

        hac = HacFileSystem()
        for i in range(files):
            sub = f"/p/d{i % 5}"
            if not hac.exists(sub):
                hac.makedirs(sub)
            hac.write_file(f"{sub}/f{i}.txt", b"fingerprint ridge")
        hac.clock.tick()
        hac.ssync("/")
        return hac

    @staticmethod
    def _delta(hac, op, *names):
        before = hac.counters.snapshot()
        op()
        after = hac.counters.snapshot()
        return [after.get(n, 0) - before.get(n, 0) for n in names]

    def test_provided_cost_is_independent_of_subtree_size(self):
        """The traversal reads children from the directory it holds: one
        path lookup (the top) per ``provided()``, no CAS probe."""
        costs = {}
        for files in (50, 200):
            hac = self._world_with(files)
            costs[files] = self._delta(
                hac, lambda: hac.scopes.provided("/p"),
                "vfs.namei", "engine.cas_scope_probes")
            assert len(hac.scopes.provided("/p").local) == files
        assert costs[50] == costs[200]
        namei, probes = costs[200]
        assert namei <= 2 and probes == 0

    def test_reindex_namei_is_independent_of_subtree_size(self):
        costs = {}
        for files in (50, 200):
            hac = self._world_with(files)
            costs[files] = self._delta(hac, lambda: hac.reindex("/p"),
                                       "vfs.namei")
        assert costs[50] == costs[200]

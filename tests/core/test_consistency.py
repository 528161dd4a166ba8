"""Scope-consistency scenarios (§2.3's four triggers, plus cascades)."""

import pytest


def names(hacfs, path):
    return set(hacfs.links(path))


class TestHierarchicalRefinement:
    def test_child_is_refinement_of_parent(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/mail", "alice OR bob")
        assert names(populated, "/fp/mail") == {"msg1.txt"}  # msg2 not in parent

    def test_child_subset_invariant(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/sub", "sensor")
        parent_targets = {t for _c, t in populated.links("/fp").values()}
        child_targets = {t for _c, t in populated.links("/fp/sub").values()}
        assert child_targets <= parent_targets

    def test_trigger1_parent_links_edited(self, populated):
        """§2.3 trigger 1: a user modifies the links in the parent."""
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/mail", "alice")
        assert names(populated, "/fp/mail") == {"msg1.txt"}
        populated.unlink("/fp/msg1.txt")       # parent result shrinks
        assert names(populated, "/fp/mail") == set()

    def test_parent_permanent_addition_flows_down(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/food", "banana")
        assert names(populated, "/fp/food") == set()
        populated.symlink("/notes/recipe.txt", "/fp/recipe.txt")
        assert names(populated, "/fp/food") == {"recipe.txt"}

    def test_trigger2_moving_semantic_dir_changes_scope(self, populated):
        """§2.3 trigger 2: the directory moves somewhere else."""
        populated.smkdir("/fp", "fingerprint")          # scope: everything
        populated.smkdir("/fp/any", "alice OR lunch")   # within fp: msg1
        assert names(populated, "/fp/any") == {"msg1.txt"}
        populated.rename("/fp/any", "/any")             # scope: root now
        assert names(populated, "/any") == {"msg1.txt", "msg2.txt"}

    def test_move_under_other_semantic_dir(self, populated):
        populated.smkdir("/food", "recipe OR banana")
        populated.smkdir("/q", "walnuts OR sensor")
        assert names(populated, "/q") == {"recipe.txt", "msg1.txt"}
        populated.rename("/q", "/food/q")
        assert names(populated, "/food/q") == {"recipe.txt"}

    def test_trigger3_grandparent_scope_change_cascades(self, populated):
        """§2.3 trigger 3: a change in the scope of the parent itself."""
        populated.smkdir("/a", "fingerprint")
        populated.smkdir("/a/b", "fingerprint")
        populated.smkdir("/a/b/c", "alice")
        assert names(populated, "/a/b/c") == {"msg1.txt"}
        populated.unlink("/a/msg1.txt")  # changes scope of /a/b, then /a/b/c
        assert names(populated, "/a/b") == {"fp-design.txt", "match.c"}
        assert names(populated, "/a/b/c") == set()

    def test_trigger4_query_change(self, populated):
        """§2.3 trigger 4: the query itself changes."""
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/x", "alice")
        populated.set_query("/fp", "lunch")
        # parent result changed entirely; the child refines the new result
        assert names(populated, "/fp") == {"msg2.txt"}
        assert names(populated, "/fp/x") == set()

    def test_permanent_in_child_may_exceed_parent_scope(self, populated):
        """The paper's own argument for parent->child refinement: users may
        link a file into a child even when the parent's scope lacks it."""
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/misc", "sensor")
        populated.symlink("/notes/recipe.txt", "/fp/misc/recipe.txt")
        populated.ssync("/")
        assert "recipe.txt" in names(populated, "/fp/misc")
        # and it did NOT leak upward into the parent
        assert "recipe.txt" not in names(populated, "/fp")


class TestAlgorithmGuarantees:
    def test_invariant_clause1_transient_subset_of_parent_scope(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/sub", "sensor OR recipe")
        parent_scope = populated.scopes.provided("/fp")
        uid = populated.dirmap.uid_of("/fp/sub")
        state = populated.meta.require(uid)
        for target in state.links.transient.values():
            doc = populated.engine.doc_id_of(target.key)
            assert doc in parent_scope.local

    def test_invariant_clause2_completeness(self, populated):
        """Every matching in-scope file is linked unless prohibited."""
        populated.smkdir("/fp", "fingerprint")
        assert names(populated, "/fp") == {"fp-design.txt", "msg1.txt", "match.c"}

    def test_reevaluation_topological_single_visit(self, populated):
        populated.smkdir("/a", "fingerprint")
        populated.smkdir("/a/b", "sensor OR minutiae OR fingerprint")
        populated.smkdir("/a/b/c", "alice")
        populated.counters.reset()
        populated.unlink("/a/msg1.txt")
        # /a itself plus its two dependents, each exactly once
        assert populated.counters.get("consistency.reevaluations") == 3

    def test_topological_order_visits_once_where_a_blind_sweep_repeats(self):
        """Ablation C in counts: on a chain of directories that each
        refine the previous one by reference, a curation change at the
        head reaches the tail in one visit per member; an order-oblivious
        fixpoint sweep fixes one level per pass."""
        from repro.core.hacfs import HacFileSystem

        depth = 6

        def chain_with_head_prohibition():
            hac = HacFileSystem()
            hac.write_file("/f.txt", b"alpha\n")
            hac.write_file("/g.txt", b"alpha\n")
            hac.clock.tick()
            hac.ssync("/")
            hac.smkdir("/c0", "alpha")
            for i in range(1, depth):
                hac.smkdir(f"/c{i}", f"alpha AND /c{i - 1}")
            # edit the stored state directly, so nothing has cascaded yet
            uid0 = hac.dirmap.uid_of("/c0")
            state = hac.meta.require(uid0)
            state.links.prohibit("f.txt")
            hac.fs.unlink("/c0/f.txt")
            hac.meta.flush(uid0)
            hac.counters.reset()
            return hac, uid0

        topo, uid0 = chain_with_head_prohibition()
        topo.consistency.on_scope_changed([uid0], include_origins=True)
        assert topo.counters.get("consistency.reevaluations") == depth

        blind, _ = chain_with_head_prohibition()
        order = [blind.dirmap.uid_of(p)
                 for p in sorted(blind.semantic_dirs(), reverse=True)]
        # a list, not a generator: every pass sweeps the whole chain
        while any([blind.consistency.reevaluate(uid) for uid in order]):
            pass
        assert blind.counters.get("consistency.reevaluations") \
            >= depth * (depth - 1)
        for i in range(depth):
            assert names(topo, f"/c{i}") == names(blind, f"/c{i}") == {"g.txt"}

    def test_result_cache_updated(self, populated):
        populated.smkdir("/fp", "fingerprint")
        uid = populated.dirmap.uid_of("/fp")
        state = populated.meta.require(uid)
        # the paper's N/8 rule: one bit per indexed file, no more
        assert 0 < state.result_cache.nbytes <= (len(populated.engine) + 7) // 8
        assert len(state.result_cache) == 3
        populated.unlink("/fp/msg1.txt")
        state = populated.meta.require(uid)
        assert len(state.result_cache) == 2

    def test_plain_dirs_not_reevaluated(self, populated):
        populated.mkdir("/plain")
        populated.counters.reset()
        populated.ssync("/")
        # full pass touches only semantic dirs; none exist
        assert populated.counters.get("consistency.reevaluations") == 0


class TestDirRefQueries:
    def test_ref_to_semantic_dir(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/combo", "lunch OR /fp")
        assert names(populated, "/combo") == {
            "msg1.txt", "msg2.txt", "fp-design.txt", "match.c"}

    def test_ref_to_syntactic_dir(self, populated):
        populated.smkdir("/q", "fingerprint AND /mail")
        assert names(populated, "/q") == {"msg1.txt"}

    def test_ref_update_cascades_outside_subtree(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/watch", "/fp AND alice")
        assert names(populated, "/watch") == {"msg1.txt"}
        populated.unlink("/fp/msg1.txt")   # /watch is not under /fp
        assert names(populated, "/watch") == set()

    def test_rename_of_referenced_dir_keeps_query_valid(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/watch", "/fp AND alice")
        populated.rename("/fp", "/prints")
        assert populated.get_query("/watch") == "/prints AND alice"
        assert names(populated, "/watch") == {"msg1.txt"}

    def test_cycle_rejected_and_state_intact(self, populated):
        from repro.errors import DependencyCycle

        populated.smkdir("/a2", "fingerprint")
        populated.smkdir("/b2", "/a2 AND alice")
        with pytest.raises(DependencyCycle):
            populated.set_query("/a2", "fingerprint AND /b2")
        assert populated.get_query("/a2") == "fingerprint"
        assert names(populated, "/b2") == {"msg1.txt"}

    def test_removed_referenced_dir_resolves_empty(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/watch", "/fp")
        for name in list(populated.links("/fp")):
            populated.unlink(f"/fp/{name}")
        populated.set_query("/fp", None)
        populated.rmdir("/fp")
        populated.ssync("/")
        assert names(populated, "/watch") == set()

    def test_unknown_path_in_query_rejected(self, populated):
        from repro.errors import UnknownDirectoryReference

        with pytest.raises(UnknownDirectoryReference):
            populated.smkdir("/bad", "/no/such/dir")
        # smkdir is journaled: the failed operation is rolled back whole,
        # so the directory it created on the way is gone again
        assert not populated.exists("/bad")
        assert not any(f.severity == "error" for f in populated.fsck())

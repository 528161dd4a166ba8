"""Data consistency: the lazy reindex policy of §2.4."""

import pytest


class TestLaziness:
    def test_new_file_invisible_until_sync(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.write_file("/notes/new.txt", b"more fingerprint material")
        assert "new.txt" not in populated.listdir("/fp")
        populated.clock.tick()
        populated.ssync("/")
        assert "new.txt" in populated.listdir("/fp")

    def test_modified_file_stale_until_sync(self, populated):
        populated.smkdir("/fp", "fingerprint")
        assert "recipe.txt" not in populated.listdir("/fp")
        populated.clock.tick()
        populated.write_file("/notes/recipe.txt",
                             b"fingerprint cookies recipe")
        assert "recipe.txt" not in populated.listdir("/fp")  # still stale
        populated.ssync("/")
        assert "recipe.txt" in populated.listdir("/fp")

    def test_deleted_file_link_dangles_until_sync(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.unlink("/mail/msg1.txt")
        populated.clock.tick()
        populated.ssync("/")
        assert "msg1.txt" not in populated.listdir("/fp")

    def test_file_modified_away_from_query_dropped_at_sync(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.clock.tick()
        populated.write_file("/mail/msg1.txt", b"now all about gardening")
        populated.ssync("/")
        assert "msg1.txt" not in populated.listdir("/fp")
        # NOT prohibited — it simply stopped matching
        assert populated.prohibited("/fp") == []

    def test_moved_out_of_scope_dropped_at_sync(self, populated):
        """The paper's archive example: a matching file moved outside the
        query's scope must leave the semantic directory."""
        populated.smkdir("/fp", "fingerprint AND /mail")
        assert set(populated.links("/fp")) == {"msg1.txt"}
        populated.mkdir("/archive")
        populated.rename("/mail/msg1.txt", "/archive/msg1.txt")
        populated.ssync("/")
        assert populated.listdir("/fp") == []


class TestSubtreeReindex:
    def test_subtree_reindex_leaves_outside_docs(self, populated):
        populated.write_file("/mail/new.txt", b"new fingerprint mail")
        populated.clock.tick()
        plan = populated.reindex("/mail")
        assert plan.added and not plan.removed
        assert len(populated.engine) == 6

    def test_subtree_sync_updates_dependents(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.write_file("/mail/new.txt", b"fresh fingerprint news")
        populated.clock.tick()
        populated.ssync("/mail")
        assert "new.txt" in populated.listdir("/fp")

    def test_reindex_noop_when_unchanged(self, populated):
        assert populated.reindex("/").is_noop

    def test_reindex_tokenises_exactly_the_change_set(self, populated):
        """§2.4's economics (Ablation D): a periodic reindex costs in
        proportion to what changed, not to the corpus."""
        def tokenised():
            return (populated.counters.get("engine.indexed")
                    + populated.counters.get("engine.updated"))

        populated.clock.tick()
        for path in ("/mail/msg1.txt", "/src/match.c"):
            populated.write_file(path, b"freshly changed fingerprint text\n")
        populated.clock.tick()
        before = tokenised()
        plan = populated.reindex("/")
        assert plan.touched == 2 and plan.unchanged == 3
        assert not plan.added and not plan.removed
        assert tokenised() - before == 2


class TestScheduler:
    def test_periodic_reindex_fires_on_clock(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.scheduler.set_period(3600.0)  # "once an hour"
        populated.write_file("/notes/late.txt", b"late fingerprint note")
        populated.clock.advance(1800)
        assert "late.txt" not in populated.listdir("/fp")
        populated.clock.advance(1801)
        assert "late.txt" in populated.listdir("/fp")
        assert populated.scheduler.runs == 1

    def test_period_change_rearms(self, populated):
        populated.scheduler.set_period(100.0)
        populated.scheduler.set_period(10.0)
        populated.clock.advance(11)
        assert populated.scheduler.runs == 1
        populated.scheduler.cancel()
        populated.clock.advance(1000)
        assert populated.scheduler.runs == 1

    def test_history_records_plans(self, populated):
        populated.write_file("/x.txt", b"hello fingerprint")
        populated.clock.tick()
        plan = populated.scheduler.sync("/")
        assert populated.scheduler.history[-1][1] == "/"
        assert plan.added


class TestRestore:
    def test_restore_rebuilds_from_device(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.unlink("/fp/msg1.txt")               # a prohibition
        populated.symlink("/notes/recipe.txt", "/fp/recipe.txt")  # permanent
        fs = populated.fs

        from repro.core.hacfs import HacFileSystem
        revived = HacFileSystem.restore(fs)
        assert revived.is_semantic("/fp")
        assert revived.get_query("/fp") == "fingerprint"
        assert "msg1.txt" not in revived.listdir("/fp")   # tombstone held
        assert revived.classify("/fp/recipe.txt") == "permanent"
        assert set(revived.links("/fp")) == {
            "fp-design.txt", "match.c", "recipe.txt"}

    def test_restore_preserves_uids_for_queries(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/watch", "/fp AND alice")
        uid = populated.dirmap.uid_of("/fp")

        from repro.core.hacfs import HacFileSystem
        revived = HacFileSystem.restore(populated.fs)
        assert revived.dirmap.uid_of("/fp") == uid
        assert revived.get_query("/watch") == "/fp AND alice"
        assert "msg1.txt" in revived.listdir("/watch")

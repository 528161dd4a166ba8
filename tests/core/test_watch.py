"""Eager data consistency: watched subtrees (extension of §2.4)."""

import pytest


class TestWatchRegistration:
    def test_add_returns_canonical_root(self, populated):
        root = populated.watch("/mail")
        assert root == "/mail"
        assert populated.watches.roots() == ["/mail"]

    def test_add_syncs_first(self, populated):
        populated.write_file("/mail/pre.txt", b"fingerprint before watch")
        populated.clock.tick()
        populated.smkdir("/fp", "fingerprint")
        assert "pre.txt" not in populated.listdir("/fp")  # lazy so far
        populated.watch("/mail")
        assert "pre.txt" in populated.listdir("/fp")      # watch syncs

    def test_remove(self, populated):
        populated.watch("/mail")
        assert populated.unwatch("/mail") is True
        assert populated.unwatch("/mail") is False
        assert populated.watches.roots() == []

    def test_remove_through_a_symlink(self, populated):
        populated.symlink("/mail", "/lnk")
        assert populated.watch("/lnk") == "/mail"
        assert populated.unwatch("/lnk") is True
        assert populated.watches.roots() == []

    def test_remove_after_the_directory_is_gone(self, populated):
        populated.mkdir("/tmp")
        populated.watch("/tmp")
        populated.rmdir("/tmp")
        assert populated.unwatch("/tmp") is True
        assert populated.watches.roots() == []

    def test_register_covers_without_syncing(self, populated):
        populated.write_file("/mail/pre.txt", b"fingerprint before watch")
        populated.clock.tick()
        before = populated.counters.get("hac.reindex")
        assert populated.watches.register("/mail") == "/mail"
        assert populated.counters.get("hac.reindex") == before
        assert populated.watches.covers("/mail/pre.txt")

    def test_covers(self, populated):
        populated.watch("/mail")
        assert populated.watches.covers("/mail/x.txt")
        assert populated.watches.covers("/mail")
        assert not populated.watches.covers("/notes/x.txt")


class TestEagerVisibility:
    def test_write_visible_immediately(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        populated.write_file("/mail/hot.txt", b"breaking fingerprint news")
        assert "hot.txt" in populated.listdir("/fp")   # no ssync needed

    def test_unwatched_subtree_stays_lazy(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        populated.write_file("/notes/cold.txt", b"fingerprint but lazy")
        assert "cold.txt" not in populated.listdir("/fp")
        populated.clock.tick()
        populated.ssync("/")
        assert "cold.txt" in populated.listdir("/fp")

    def test_modify_away_drops_immediately(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        assert "msg1.txt" in populated.listdir("/fp")
        populated.clock.tick()
        populated.write_file("/mail/msg1.txt", b"now about gardening")
        assert "msg1.txt" not in populated.listdir("/fp")

    def test_delete_drops_immediately(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        populated.unlink("/mail/msg1.txt")
        assert "msg1.txt" not in populated.listdir("/fp")

    def test_fd_write_triggers(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        fd = populated.open("/mail/late.txt", "w")
        populated.write(fd, b"fingerprint via descriptor")
        populated.close(fd)
        assert "late.txt" in populated.listdir("/fp")

    def test_rename_into_watched_subtree(self, populated):
        populated.smkdir("/fpmail", "fingerprint AND /mail")
        populated.watch("/mail")
        populated.write_file("/notes/wander.txt", b"a fingerprint memo")
        populated.rename("/notes/wander.txt", "/mail/wander.txt")
        assert "wander.txt" in populated.listdir("/fpmail")

    def test_rename_refreshes_name_terms(self, populated):
        populated.watch("/mail")
        populated.smkdir("/named", "name:msg1")
        assert "msg1.txt" in populated.listdir("/named")
        populated.rename("/mail/msg1.txt", "/mail/other.txt")
        assert populated.listdir("/named") == []

    def test_truncate_triggers(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        populated.truncate("/mail/msg1.txt", 0)
        assert "msg1.txt" not in populated.listdir("/fp")


class TestInteractionWithCuration:
    def test_prohibition_respected_by_eager_path(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.watch("/mail")
        populated.unlink("/fp/msg1.txt")      # prohibit
        populated.clock.tick()
        populated.write_file("/mail/msg1.txt",
                             b"still about the fingerprint sensor",
                             append=True)
        assert "msg1.txt" not in populated.listdir("/fp")

    def test_eager_pays_per_write_what_lazy_pays_at_sync(self, populated):
        """Ablation E in counts: freshness costs one tokenisation per
        watched write, the lazy side pays nothing until the sync and then
        the whole burst at once."""
        def tokenised():
            return populated.counters.get("engine.tokenisations")

        populated.watch("/mail")
        burst = 4
        for i in range(burst):
            before = tokenised()
            populated.write_file(f"/mail/new{i}.txt", b"hotword inside\n")
            assert tokenised() - before == 1
            populated.write_file(f"/notes/new{i}.txt", b"hotword inside\n")
            assert tokenised() - before == 1          # unwatched: no cost
        populated.clock.tick()
        before = tokenised()
        populated.ssync("/")
        assert tokenised() - before == burst

    def test_watch_counters(self, populated):
        populated.watch("/mail")
        populated.write_file("/mail/a.txt", b"x")
        populated.write_file("/mail/a.txt", b"y")
        assert populated.counters.get("watch.reindexed") >= 2

"""HAC over a sharded search cluster: engine seam, degradation flags,
persistence, and the shell commands."""

import pytest

from repro.cba.backend import open_backend
from repro.cluster import ShardedSearchCluster
from repro.core.hacfs import HacFileSystem
from repro.shell import cli
from repro.shell.session import HacShell


def populate(hacfs):
    hacfs.makedirs("/notes")
    hacfs.makedirs("/mail")
    hacfs.makedirs("/src")
    hacfs.write_file("/notes/fp-design.txt",
                     b"design notes for the fingerprint matcher\n")
    hacfs.write_file("/notes/recipe.txt",
                     b"banana bread recipe with walnuts\n")
    hacfs.write_file("/mail/msg1.txt",
                     b"the fingerprint sensor prototype works\n")
    hacfs.write_file("/src/match.c",
                     b"/* fingerprint minutiae matcher */\n")
    hacfs.clock.tick()
    hacfs.ssync("/")


def key_of(hacfs, path):
    for doc_id in hacfs.engine.all_docs():
        doc = hacfs.engine.doc_by_id(doc_id)
        if doc.path == path:
            return doc.key
    raise AssertionError(f"{path} not indexed")


@pytest.fixture
def cfs():
    """A HAC file system running over a 3-shard cluster."""
    fs = HacFileSystem(backend=open_backend("cluster:3"))
    populate(fs)
    fs.smkdir("/q", "fingerprint")
    return fs


class TestEngineSeam:
    def test_factory_builds_a_cluster(self, cfs):
        assert isinstance(cfs.engine, ShardedSearchCluster)
        assert len(cfs.engine.shards) == 3

    def test_links_match_monolithic_twin(self, cfs):
        mono = HacFileSystem()
        populate(mono)
        mono.smkdir("/q", "fingerprint")
        assert set(cfs.links("/q")) == set(mono.links("/q"))
        assert set(cfs.links("/q")) == {"fp-design.txt", "msg1.txt",
                                        "match.c"}

    def test_writes_flow_through_the_cluster(self, cfs):
        cfs.write_file("/notes/new.txt", b"another fingerprint note\n")
        cfs.clock.tick()
        cfs.ssync("/")
        assert "new.txt" in cfs.links("/q")
        cfs.unlink("/notes/new.txt")
        cfs.clock.tick()
        cfs.ssync("/")
        assert "new.txt" not in cfs.links("/q")

    def test_adopt_engine_mid_life_preserves_links(self):
        fs = HacFileSystem()
        populate(fs)
        fs.smkdir("/q", "fingerprint")
        before = set(fs.links("/q"))
        cluster = open_backend("cluster:2")(
            fs._load_doc, counters=fs.counters, clock=fs.clock,
            transducer=fs.engine.transducer,
            num_blocks=fs.engine.index.num_blocks)
        fs.adopt_engine(cluster)
        assert fs.engine is cluster
        assert len(cluster) > 0
        assert set(fs.links("/q")) == before
        assert fs.fsck() == []

    def test_watched_subtree_stays_fresh(self, cfs):
        cfs.watch("/notes")
        cfs.write_file("/notes/eager.txt", b"eager fingerprint update\n")
        assert "eager.txt" in cfs.links("/q")  # no explicit ssync

    def test_fsck_clean(self, cfs):
        assert cfs.fsck() == []


class TestDegradation:
    def test_killed_shard_keeps_links_and_flags_directory(self, cfs):
        key = key_of(cfs, "/notes/fp-design.txt")
        sid = cfs.engine.shard_of(key)
        before = set(cfs.links("/q"))
        cfs.engine.kill_shard(sid)
        cfs.clock.tick()
        cfs.ssync("/")  # must not raise
        assert set(cfs.links("/q")) == before  # stale beats lost
        flags = cfs.health("/q")["directories"]["/q"]["degraded_shards"]
        assert set(flags) == {sid}
        assert "fp-design.txt" in cfs.health("/q")["directories"]["/q"]["degraded_links"]
        assert cfs.counters.get("consistency.partial_evaluations") >= 1
        assert cfs.counters.get("consistency.shard_degradations") == 1

    def test_revive_clears_flags(self, cfs):
        key = key_of(cfs, "/notes/fp-design.txt")
        sid = cfs.engine.shard_of(key)
        cfs.engine.kill_shard(sid)
        cfs.clock.tick()
        cfs.ssync("/")
        cfs.engine.revive_shard(sid)
        cfs.clock.tick()
        cfs.ssync("/")
        assert cfs.health("/q")["directories"] == {}
        assert cfs.counters.get("consistency.shard_recoveries") == 1
        assert set(cfs.links("/q")) == {"fp-design.txt", "msg1.txt",
                                        "match.c"}

    def test_degradation_timestamp_is_first_failure(self, cfs):
        key = key_of(cfs, "/notes/fp-design.txt")
        sid = cfs.engine.shard_of(key)
        cfs.engine.kill_shard(sid)
        cfs.clock.tick()
        cfs.ssync("/")
        first = cfs.health("/q")["directories"]["/q"]["degraded_shards"][sid]
        cfs.clock.tick()
        cfs.ssync("/")
        assert cfs.health("/q")["directories"]["/q"]["degraded_shards"][sid] == first  # not re-stamped


class TestPersistence:
    def test_restore_autodetects_cluster(self, cfs):
        cfs.save_index()
        again = HacFileSystem.restore(cfs.fs)
        assert isinstance(again.engine, ShardedSearchCluster)
        assert set(again.links("/q")) == {"fp-design.txt", "msg1.txt",
                                          "match.c"}
        assert again.fsck() == []

    def test_restore_with_factory_and_saved_index(self, cfs):
        cfs.save_index()
        again = HacFileSystem.restore(
            cfs.fs, backend=open_backend("cluster:3"))
        assert isinstance(again.engine, ShardedSearchCluster)
        assert len(again.engine) == len(cfs.engine)
        assert set(again.links("/q")) == set(cfs.links("/q"))

    def test_restore_with_factory_builds_fresh_when_unsaved(self, cfs):
        # no save_index(): the factory must rebuild from the corpus
        again = HacFileSystem.restore(
            cfs.fs, backend=open_backend("cluster:2"))
        assert isinstance(again.engine, ShardedSearchCluster)
        assert len(again.engine.shards) == 2
        again.ssync("/")
        assert set(again.links("/q")) == {"fp-design.txt", "msg1.txt",
                                          "match.c"}

    @pytest.mark.parametrize("saved, reopened, via", [
        ("monolith", "cluster:3", "restore.index_rebuilds"),
        ("cluster:3", "monolith", "restore.index_from_segments")])
    def test_a_saved_index_reopens_under_the_other_backend(self, saved,
                                                           reopened, via):
        """A monolith folds a cluster's shards into one run and reads and
        tokenises nothing; a cluster has no shard map to install a
        monolith's segments by, so it rebuilds and replaces them.  Either
        way the answers hold and the next reopen is clean."""
        hac = HacFileSystem(backend=saved)
        populate(hac)
        hac.smkdir("/q", "fingerprint")
        hac.save_index()
        again = HacFileSystem.restore(hac.fs, backend=reopened)
        assert again.counters.get(via) == 1
        if via == "restore.index_from_segments":
            assert again.counters.get("engine.tokenisations") == 0
        assert len(again.engine) == len(hac.engine)
        assert set(again.links("/q")) == set(hac.links("/q"))
        assert again.glimpse("banana") == ["/notes/recipe.txt"]
        again.save_index()
        assert HacFileSystem.restore(hac.fs).fsck() == []

    def test_restored_cluster_accepts_incremental_sync(self, cfs):
        cfs.save_index()
        again = HacFileSystem.restore(cfs.fs)
        again.write_file("/mail/msg2.txt", b"fingerprint follow-up\n")
        again.clock.tick()
        again.ssync("/")
        assert "msg2.txt" in again.links("/q")


class TestShell:
    @pytest.fixture
    def shell(self):
        sh = HacShell()
        populate(sh.hacfs)
        sh.hacfs.smkdir("/q", "fingerprint")
        return sh

    def test_shards_before_clustering(self, shell):
        assert shell.shards() == []
        assert "not a cluster" in cli.execute(shell, "shards")

    def test_smkcluster_and_shards_commands(self, shell):
        out = cli.execute(shell, "smkcluster 2")
        assert "2 shard(s)" in out
        assert isinstance(shell.hacfs.engine, ShardedSearchCluster)
        rows = shell.shards()
        assert len(rows) == 2
        assert sum(docs for _sid, docs, _h, _c in rows) == \
            len(shell.hacfs.engine)
        listing = cli.execute(shell, "shards")
        assert "shard0" in listing and "closed" in listing

    def test_cluster_backed_glimpse_and_links(self, shell):
        cli.execute(shell, "smkcluster 3")
        hits = shell.glimpse("fingerprint")
        assert "/notes/fp-design.txt" in hits
        assert "fp-design.txt" in {name for name, _cls, _t
                                   in shell.sls("/q")}
        assert cli.execute(shell, "fsck") == "clean"

    def test_smkcluster_default_shard_count(self, shell):
        assert "3 shard(s)" in cli.execute(shell, "smkcluster")

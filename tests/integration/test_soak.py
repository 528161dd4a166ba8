"""Deterministic soak test: a medium-sized world driven hard, then audited.

A 200-file corpus, a dozen semantic directories (hierarchies + query
references + a remote mount), 250 scripted-random operations, periodic
syncs — and at the end, the full scope-invariant audit from the property
suite plus structural sanity checks.  One seed, fully reproducible.
"""

import random

import pytest

from repro.core.hacfs import HacFileSystem
from repro.remote.searchsvc import SimulatedSearchService
from repro.util import pathutil
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.vfs.walker import iter_files

from tests.properties.test_scope_invariant import check_invariant

TOPICS = {"alphatop": 0.2, "betatop": 0.1, "gammatop": 0.4}


@pytest.fixture(scope="module")
def world():
    hac = HacFileSystem(num_blocks=128)
    gen = CorpusGenerator(CorpusConfig(n_files=200, words_per_file=60,
                                       dirs=8, topics=TOPICS, seed=99))
    gen.populate(hac, "/db")
    lib = SimulatedSearchService("lib", documents={
        f"doc{i}": f"remote alphatop document number {i}" for i in range(6)
    })
    hac.mkdir("/lib")
    hac.smount("/lib", lib)
    hac.clock.tick()
    hac.ssync("/")

    hac.smkdir("/alpha", "alphatop")
    hac.smkdir("/alpha/narrow", "betatop OR number")
    hac.smkdir("/beta", "betatop")
    hac.smkdir("/combo", "/alpha AND gammatop")
    hac.smkdir("/anti", "gammatop AND NOT betatop")
    hac.smkdir("/db/dir001/local", "alphatop")
    return hac


def drive(hac, seed, steps=250):
    rng = random.Random(seed)
    files = [p for p, _n in iter_files(hac.fs, "/db")]
    sem_dirs = ["/alpha", "/alpha/narrow", "/beta", "/combo", "/anti"]
    words = list(TOPICS) + ["filler", "noise"]
    for step in range(steps):
        op = rng.randrange(8)
        try:
            if op == 0:  # write new
                path = f"/db/dir{rng.randrange(8):03d}/x{step}.txt"
                text = " ".join(rng.choices(words, k=8))
                hac.write_file(path, (text + "\n").encode())
                files.append(path)
            elif op == 1 and files:  # modify
                victim = rng.choice(files)
                if hac.isfile(victim):
                    hac.write_file(victim, b"gammatop extra\n", append=True)
            elif op == 2 and files:  # delete
                victim = rng.choice(files)
                if hac.isfile(victim):
                    hac.unlink(victim)
                    files.remove(victim)
            elif op == 3 and files:  # rename
                victim = rng.choice(files)
                dst = f"/db/dir{rng.randrange(8):03d}/mv{step}.txt"
                if hac.isfile(victim) and not hac.exists(dst, follow=False):
                    hac.rename(victim, dst)
                    files.remove(victim)
                    files.append(dst)
            elif op == 4:  # curate: prohibit something
                sd = rng.choice(sem_dirs)
                names = sorted(hac.links(sd))
                if names:
                    hac.unlink(f"{sd}/{rng.choice(names)}")
            elif op == 5 and files:  # curate: permanent link
                sd = rng.choice(sem_dirs)
                target = rng.choice(files)
                link = f"{sd}/pin{step}"
                if hac.isfile(target) and not hac.exists(link, follow=False):
                    hac.symlink(target, link)
            elif op == 6:  # partial sync
                hac.clock.tick()
                hac.ssync(rng.choice(["/db", "/db/dir000", "/"]))
            elif op == 7:  # time passes
                hac.clock.tick()
        except Exception as exc:  # no operation may corrupt the system
            raise AssertionError(f"step {step} op {op} blew up: {exc}") from exc


class TestSoak:
    def test_soak_then_audit(self, world):
        drive(world, seed=7)
        world.clock.tick()
        world.ssync("/")
        check_invariant(world)

    def test_structures_consistent_after_soak(self, world):
        # every registered directory resolves and owns state
        for uid, path in list(world.dirmap.items()):
            assert world.fs.isdir(path), path
            assert world.meta.get(uid) is not None, path
            assert uid in world.depgraph
        # every live directory is registered
        from repro.vfs.walker import walk
        for dirpath, _d, _f, _listed in walk(world.fs, "/"):
            assert world.dirmap.uid_of(dirpath) is not None, dirpath

    def test_engine_registry_matches_live_files(self, world):
        live = {(res.fs.fsid, res.node.ino)
                for p, _n in iter_files(world.fs, "/")
                for res in [world.fs.resolve(p, follow=False)]}
        indexed = set(world.engine.mtime_snapshot())
        assert indexed <= live | indexed  # sanity
        # after the final full sync, indexed == live exactly
        assert indexed == live

    def test_fsck_clean_after_soak(self, world):
        errors = [f for f in world.fsck() if f.severity == "error"]
        assert errors == []

    def test_restore_after_soak(self, world):
        revived = HacFileSystem.restore(world.fs)
        assert revived.semantic_dirs() == world.semantic_dirs()
        for sd in world.semantic_dirs():
            assert revived.get_query(sd) == world.get_query(sd)
            assert revived.prohibited(sd) == world.prohibited(sd)

"""The synthetic corpus generator: determinism and selectivity control."""

import os
import subprocess
import sys

import pytest

import repro
from repro.core.hacfs import HacFileSystem
from repro.workloads.corpus import CorpusConfig, CorpusGenerator


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = CorpusGenerator(CorpusConfig(n_files=10, seed=5))
        b = CorpusGenerator(CorpusConfig(n_files=10, seed=5))
        assert dict(a.documents()) == dict(b.documents())

    def test_different_seed_differs(self):
        a = CorpusGenerator(CorpusConfig(n_files=10, seed=5))
        b = CorpusGenerator(CorpusConfig(n_files=10, seed=6))
        assert dict(a.documents()) != dict(b.documents())

    def test_document_stable_across_calls(self):
        gen = CorpusGenerator(CorpusConfig(n_files=5))
        assert gen.document(3) == gen.document(3)

    def test_topic_carriers_independent_of_hash_seed(self):
        """``hash()`` of a str is salted per process; the carriers (and so
        every selectivity the benches dial in) must not follow the salt."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("from repro.workloads.corpus import CorpusConfig, "
                "CorpusGenerator as G; print(G(CorpusConfig(n_files=800, "
                "topics={'rareword': 0.005}, seed=9)).topic_files('rareword'))")
        seen = {subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src,
                                PYTHONHASHSEED=str(salt))).stdout
            for salt in (0, 1, 2)}
        assert len(seen) == 1, seen

    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_files=0)


class TestTopics:
    def test_topic_fraction_respected(self):
        cfg = CorpusConfig(n_files=200, topics={"fingerprint": 0.1}, seed=1)
        gen = CorpusGenerator(cfg)
        carriers = [i for i in range(200) if "fingerprint" in gen.document(i)]
        assert carriers == gen.topic_files("fingerprint")
        assert len(carriers) == 20

    def test_topic_word_absent_from_background(self):
        cfg = CorpusConfig(n_files=50, topics={"fingerprint": 0.1}, seed=2)
        gen = CorpusGenerator(cfg)
        non_carriers = set(range(50)) - set(gen.topic_files("fingerprint"))
        for i in list(non_carriers)[:10]:
            assert "fingerprint" not in gen.document(i)

    def test_multiple_topics_independent(self):
        cfg = CorpusConfig(n_files=100,
                           topics={"alphatopic": 0.05, "betatopic": 0.5})
        gen = CorpusGenerator(cfg)
        assert len(gen.topic_files("alphatopic")) == 5
        assert len(gen.topic_files("betatopic")) == 50

    def test_topic_repeats_in_document(self):
        cfg = CorpusConfig(n_files=10, topics={"mark": 1.0}, topic_repeats=3)
        gen = CorpusGenerator(cfg)
        assert gen.document(0).split().count("mark") == 3


class TestMaterialisation:
    def test_populate_into_hacfs(self):
        hac = HacFileSystem()
        gen = CorpusGenerator(CorpusConfig(n_files=12, dirs=3))
        paths = gen.populate(hac, "/corpus")
        assert len(paths) == 12
        assert all(hac.isfile(p) for p in paths)
        assert len(hac.listdir("/corpus")) == 3

    def test_searchable_after_sync(self):
        hac = HacFileSystem()
        gen = CorpusGenerator(CorpusConfig(n_files=30, dirs=2,
                                           topics={"fingerprint": 0.2}))
        gen.populate(hac, "/c")
        hac.clock.tick()
        hac.ssync("/")
        hac.smkdir("/fp", "fingerprint")
        assert len(hac.links("/fp")) == len(gen.topic_files("fingerprint"))

    def test_as_dict_for_remote_services(self):
        gen = CorpusGenerator(CorpusConfig(n_files=4))
        docs = gen.as_dict(prefix="lib/")
        assert len(docs) == 4
        assert all(k.startswith("lib/") for k in docs)

    def test_total_bytes(self):
        gen = CorpusGenerator(CorpusConfig(n_files=5))
        assert gen.total_bytes() == sum(len(t) for _r, t in gen.documents())

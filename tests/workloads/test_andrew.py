"""The Andrew benchmark implementation, over several FS layers."""

import pytest

from repro.baselines.jadefs import JadeFileSystem
from repro.baselines.pseudofs import PseudoFileSystem
from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.andrew import (
    PHASES,
    AndrewBenchmark,
    AndrewConfig,
    RawFsAdapter,
    generate_source_tree,
)

SMALL = AndrewConfig(dirs=2, files_per_dir=2, functions_per_file=3)


class TestSourceTree:
    def test_deterministic(self):
        assert generate_source_tree(SMALL) == generate_source_tree(SMALL)

    def test_shape(self):
        tree = generate_source_tree(SMALL)
        assert len(tree) == 4
        assert all(rel.endswith(".c") for rel in tree)
        assert all("int fn_" in text for text in tree.values())


class TestPhases:
    def test_full_run_on_raw_fs(self):
        bench = AndrewBenchmark(RawFsAdapter(FileSystem()), SMALL)
        timings = bench.run()
        assert set(timings) == set(PHASES) | {"total"}
        assert timings["total"] > 0

    def test_phases_produce_expected_artifacts(self):
        target = RawFsAdapter(FileSystem())
        bench = AndrewBenchmark(target, SMALL)
        bench.install_sources()
        bench.phase_makedir()
        bench.phase_copy()
        assert target.fs.read_file("/andrew/dst/module00/src00.c") == \
            target.fs.read_file("/andrew/src/module00/src00.c")
        count = bench.phase_scan()
        assert count == 2 + 4  # module dirs + copied files
        total = bench.phase_read()
        assert total == sum(len(t) for t in bench.source.values())
        binary = bench.phase_make()
        assert target.fs.read_file(binary).startswith(b"BIN ")
        assert target.fs.exists("/andrew/dst/module01/src01.c.o")

    def test_runs_on_hacfs(self):
        bench = AndrewBenchmark(HacFileSystem(), SMALL)
        timings = bench.run()
        assert timings["total"] > 0

    def test_hac_metadata_is_a_modest_fraction_of_the_tree(self):
        # §4 in text: HAC's structures cost ~5 % on top of the UNIX tree
        raw = RawFsAdapter(FileSystem())
        AndrewBenchmark(raw, SMALL).run()
        hac = HacFileSystem()
        AndrewBenchmark(hac, SMALL).run()
        assert 0 < hac.metadata_bytes() < 0.6 * raw.fs.device.used_bytes

    def test_runs_on_jade(self):
        jade = JadeFileSystem(FileSystem())
        timings = AndrewBenchmark(jade, SMALL).run()
        assert timings["total"] > 0

    def test_runs_on_pseudo(self):
        pseudo = PseudoFileSystem(FileSystem())
        timings = AndrewBenchmark(pseudo, SMALL).run()
        assert timings["total"] > 0

    def test_make_is_deterministic_in_output(self):
        t1 = RawFsAdapter(FileSystem())
        b1 = AndrewBenchmark(t1, SMALL)
        b1.run()
        t2 = RawFsAdapter(FileSystem())
        b2 = AndrewBenchmark(t2, SMALL)
        b2.run()
        assert t1.fs.read_file("/andrew/dst/a.out") == \
            t2.fs.read_file("/andrew/dst/a.out")


class TestTable1Counts:
    """The §4 attribute cache's effect on Table 1's Scan and Read phases,
    pinned as device operations at the bench's configuration: Scan pays
    one metadata read per directory listing and per directory stat (the
    copied files were cached when Copy wrote them), Read pays none."""

    CFG = AndrewConfig(dirs=15, files_per_dir=10, functions_per_file=8)

    def test_scan_and_read_charge_the_pinned_counts(self):
        hac = HacFileSystem()
        bench = AndrewBenchmark(hac, self.CFG)
        bench.install_sources()
        bench.phase_makedir()
        bench.phase_copy()
        counters = hac.counters
        keys = ("blockdev.meta_read_ops", "attrcache.hit", "attrcache.miss")

        def delta(phase):
            before = [counters.get(k) for k in keys]
            phase()
            return [counters.get(k) - b for k, b in zip(keys, before)]

        assert delta(bench.phase_scan) == [31, 150, 15]
        assert delta(bench.phase_read) == [0, 0, 0]

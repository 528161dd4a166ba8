"""The benchmark support machinery itself."""

import pathlib

import pytest

from repro.bench.harness import (
    BenchResult,
    assert_shape,
    report,
    report_phases,
    time_call,
)
from repro.bench.tables import PAPER, ratio, slowdown_pct


class TestTables:
    def test_paper_constants_cover_every_table(self):
        assert set(PAPER) == {"table1", "table2", "table3", "table4"}
        assert PAPER["table1"]["unix"]["total"] == 38
        assert PAPER["table2"]["hac"] == 46.0
        assert PAPER["table4"]["few"]["ratio"] == 4.0

    def test_ratio(self):
        assert ratio(3.0, 2.0) == 1.5
        assert ratio(1.0, 0.0) == float("inf")

    def test_slowdown_pct(self):
        assert slowdown_pct(57, 38) == pytest.approx(50.0)
        assert slowdown_pct(38, 38) == 0.0


class TestHarness:
    def test_time_call_returns_result(self):
        seconds, value = time_call(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0

    def test_bench_result_rows(self):
        assert BenchResult("x", 1.5, 2.0).row() == ["x", "1.5", "2"]
        assert BenchResult("y", 3.0).row() == ["y", "3", "-"]
        assert BenchResult("z", 1.0, 2.0, unit="s").row() == ["z", "1s", "2s"]

    def test_report_renders_and_returns(self, capsys):
        text = report("demo", [BenchResult("m", 1.0, 2.0)])
        out = capsys.readouterr().out
        assert "demo" in text and "demo" in out
        assert "m" in text and "paper" in text

    def test_report_phases(self, capsys):
        text = report_phases("phases", {"sys": {"a": 1.0, "b": 2.0}},
                             ["a", "b"])
        assert "sys" in text and "1.0000" in text

    def test_assert_shape(self):
        assert_shape("ok", 1.5, 1.0, 2.0)
        with pytest.raises(AssertionError) as exc:
            assert_shape("bad", 5.0, 1.0, 2.0)
        assert "bad" in str(exc.value)
        assert "5.000" in str(exc.value)


class TestBenchSuite:
    def test_every_bench_has_a_caller(self):
        """A bench nobody runs rots: every ``benchmarks/bench_*.py`` —
        the paper's four tables included — is a guard CI names."""
        root = pathlib.Path(__file__).parent.parent
        ci = (root / ".github" / "workflows" / "ci.yml").read_text()
        orphans = [bench.name
                   for bench in sorted((root / "benchmarks").glob("bench_*.py"))
                   if f"benchmarks/{bench.name}" not in ci]
        assert orphans == []


class TestE2ELayerCatalogue:
    def test_every_traced_name_resolves(self):
        """``benchmarks/e2e/trace.py`` wraps layers by name and only
        *reports* a name that no longer exists, so a refactor could
        un-instrument a layer without any benchmark failing.  Installing
        the wrappers must find every ``(module, class, function)``."""
        import importlib
        import sys

        bench_dir = str(pathlib.Path(__file__).parent.parent / "benchmarks")
        sys.path.insert(0, bench_dir)
        try:
            trace = importlib.import_module("e2e.trace")
        finally:
            sys.path.remove(bench_dir)
        import repro.core.hacfs as hacfs_module

        patches, missing = trace.install(trace.Tracer())
        trace.uninstall(patches)
        assert missing == []
        assert {patch.name for patch in patches} >= {
            "scope_docs", "scope_count", "rebuild_cas", "reset_path_map",
            "walk", "apply_segments"}
        # module-level functions are also patched where ``from x import f``
        # bound them; hacfs's traversal and parser calls are traced only
        # through these two bindings, so dropping an import must fail here
        import_sites = {(patch.owner, patch.name) for patch in patches}
        assert (hacfs_module, "walk") in import_sites
        assert (hacfs_module, "parse_query") in import_sites

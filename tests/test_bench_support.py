"""What ``benchmarks/`` holds: every script has a caller, and the e2e
harness still instruments every layer it names."""

import pathlib


class TestBenchSuite:
    def test_every_bench_has_a_caller(self):
        """A benchmark script nobody runs rots: every ``.py`` under
        ``benchmarks/`` outside ``e2e/`` — the timed paper shapes and the
        pair tool — is one CI names."""
        root = pathlib.Path(__file__).parent.parent
        ci = (root / ".github" / "workflows" / "ci.yml").read_text()
        benches = root / "benchmarks"
        orphans = [path.name for path in sorted(benches.rglob("*.py"))
                   if benches / "e2e" not in path.parents
                   and f"benchmarks/{path.relative_to(benches)}" not in ci]
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

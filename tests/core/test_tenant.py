"""The Tenant facade: namespaces, quotas, attribution, lifecycle."""

import pytest

from repro.errors import (AdmissionRejected, FileNotFound, InvalidArgument,
                          QuotaExceeded, UnknownTenant)
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec, recompute_usage


@pytest.fixture
def hac():
    return HacFileSystem()


@pytest.fixture
def acme(hac):
    return hac.tenants.create("acme", quota=QuotaSpec(
        max_inodes=20, max_bytes=1000, max_docs=10, weight=2))


@pytest.fixture
def buyco(hac):
    return hac.tenants.create("buyco")


class TestLifecycle:
    def test_create_carves_a_scope_root(self, hac, acme):
        assert acme.root == "/tenants/acme"
        assert hac.isdir("/tenants/acme")
        assert hac.tenants.names() == ["acme"]
        assert "acme" in hac.tenants

    def test_names_are_validated(self, hac):
        for bad in ("", "a/b", "..", "UPPER CASE", "/x"):
            with pytest.raises(InvalidArgument):
                hac.tenants.create(bad)

    def test_duplicate_creation_is_rejected(self, hac, acme):
        with pytest.raises(InvalidArgument):
            hac.tenants.create("acme")

    def test_unknown_tenant_raises(self, hac):
        with pytest.raises(UnknownTenant):
            hac.tenants.get("nobody")

    def test_tenant_of_path_prefix_matches(self, hac, acme):
        of = hac.tenants.tenant_of_path
        assert of("/tenants/acme") == "acme"
        assert of("/tenants/acme/deep/file.txt") == "acme"
        assert of("/tenants/acmecorp/x") is None   # no partial-name match
        assert of("/notes/a.txt") is None
        assert of("/tenants") is None

    def test_empty_manager_leaves_the_world_untouched(self, hac):
        assert not hac.exists("/tenants")
        assert "tenants" not in hac.maintenance.status()
        assert hac.health()["tenants"] == {}


class TestFacadeOps:
    def test_paths_are_rebased_both_ways(self, hac, acme):
        acme.makedirs("/a/b")
        acme.write_file("/a/b/f.txt", b"fingerprint data")
        assert acme.listdir("/a/b") == ["f.txt"]
        assert acme.read_file("/a/b/f.txt") == b"fingerprint data"
        assert hac.isfile("/tenants/acme/a/b/f.txt")
        assert acme.stat("/a/b/f.txt").is_file

    def test_dotdot_cannot_escape_the_root(self, hac, acme, buyco):
        buyco.write_file("/secret.txt", b"other tenant")
        with pytest.raises(FileNotFound):
            acme.read_file("/../buyco/secret.txt")
        # and the lexical collapse lands inside acme, not above it
        acme.write_file("/x.txt", b"mine")
        assert acme.read_file("/a/../x.txt") == b"mine"

    def test_root_removal_is_blocked(self, acme):
        with pytest.raises(InvalidArgument):
            acme.rmdir("/")

    def test_symlinks_rebase_their_text(self, hac, acme):
        acme.write_file("/t.txt", b"target")
        acme.symlink("/t.txt", "/l")
        assert acme.readlink("/l") == "/t.txt"
        assert hac.readlink("/tenants/acme/l") == "/tenants/acme/t.txt"

    def test_fd_surface_is_scoped(self, acme):
        fd = acme.create_open("/fd.txt") if hasattr(acme, "create_open") \
            else None
        if fd is None:
            acme.create("/fd.txt")
            fd = acme.open("/fd.txt", "w")
        acme.write(fd, b"fingerprint bytes")
        acme.close(fd)
        assert acme.read_file("/fd.txt") == b"fingerprint bytes"


class TestQuotas:
    def test_byte_budget_rejects_before_any_bytes_land(self, hac, acme):
        with pytest.raises(QuotaExceeded) as exc:
            acme.write_file("/big.txt", b"x" * 2000)
        assert exc.value.resource == "bytes"
        assert not hac.exists("/tenants/acme/big.txt")
        assert acme.ledger.usage() == {"inodes": 0, "bytes": 0}

    def test_inode_budget_counts_dirs_and_files(self, hac):
        t = hac.tenants.create("tiny", quota=QuotaSpec(max_inodes=2))
        t.mkdir("/d")
        t.write_file("/d/f.txt", b"ok")
        with pytest.raises(QuotaExceeded):
            t.write_file("/d/g.txt", b"over")
        assert t.ledger.usage()["inodes"] == 2

    def test_rewrites_charge_only_the_delta(self, acme):
        acme.write_file("/f.txt", b"aaaa")
        acme.write_file("/f.txt", b"aa")
        assert acme.ledger.usage() == {"inodes": 1, "bytes": 2}
        acme.write_file("/f.txt", b"aaaaaaaa")
        assert acme.ledger.usage()["bytes"] == 8

    def test_unlink_releases_the_budget(self, acme):
        acme.write_file("/f.txt", b"fingerprint")
        acme.unlink("/f.txt")
        assert acme.ledger.usage() == {"inodes": 0, "bytes": 0}

    def test_doc_budget_gates_new_indexed_files(self, hac):
        t = hac.tenants.create("lib", quota=QuotaSpec(max_docs=2))
        t.write_file("/a.txt", b"fingerprint one")
        t.write_file("/b.txt", b"fingerprint two")
        t.barrier()
        with pytest.raises(QuotaExceeded) as exc:
            t.write_file("/c.txt", b"fingerprint three")
        assert exc.value.resource == "docs"

    def test_root_watch_cannot_be_lifted(self, hac):
        """The root watch is what makes every write count: without it the
        doc budget only sees the index, which un-watched writes never
        reach until an ``ssync`` lands them all at once."""
        t = hac.tenants.create("a", quota=QuotaSpec(max_docs=3))
        t.write_file("/f0.txt", b"alpha 0")
        t.write_file("/f1.txt", b"alpha 1")
        t.symlink("/", "/lnk")
        for name in ("/", "/lnk"):
            with pytest.raises(InvalidArgument):
                t.unwatch(name)
        assert hac.watches.roots() == [t.root]
        t.write_file("/f2.txt", b"alpha 2")
        with pytest.raises(QuotaExceeded) as exc:
            t.write_file("/f3.txt", b"alpha 3")
        assert exc.value.resource == "docs"
        t.ssync("/")
        assert hac.engine.scope_count(t.root) == 3
        # watches below the root still come and go
        t.mkdir("/sub")
        assert t.watch("/sub") == "/sub"
        assert t.unwatch("/sub") is True

    def test_recompute_matches_the_charged_ledger(self, hac, acme):
        acme.makedirs("/a/b")
        acme.write_file("/a/b/f.txt", b"fingerprint data")
        acme.write_file("/g.txt", b"more")
        assert recompute_usage(hac.fs, acme.root) == acme.ledger.usage()

    def test_recompute_skips_symlinks_like_the_facade(self, hac, acme):
        acme.write_file("/f.txt", b"data")
        acme.symlink("/f.txt", "/l")
        assert recompute_usage(hac.fs, acme.root) == acme.ledger.usage()

    @staticmethod
    def assert_ledger_is_the_tree(hac, tenant):
        assert tenant.usage() == recompute_usage(hac.fs, tenant.root)
        assert [f for f in hac.fsck() if f.kind.startswith("tenant-")] == []

    def test_truncating_open_releases_the_old_bytes(self, hac, acme):
        acme.write_file("/keep.txt", b"k" * 40)
        acme.write_file("/f.txt", b"x" * 100)
        fd = acme.open("/f.txt", "w")
        acme.write(fd, b"y" * 50)
        acme.close(fd)
        assert acme.usage() == {"inodes": 2, "bytes": 90}
        self.assert_ledger_is_the_tree(hac, acme)

    def test_fd_write_inside_a_file_charges_only_the_growth(self, hac, acme):
        acme.write_file("/f.txt", b"x" * 100)
        fd = acme.open("/f.txt", "rw")
        acme.write(fd, b"y" * 50)
        acme.close(fd)
        assert acme.usage()["bytes"] == 100
        self.assert_ledger_is_the_tree(hac, acme)

    def test_rename_over_a_file_releases_what_it_replaced(self, hac, acme):
        acme.write_file("/a.txt", b"a" * 150)
        acme.write_file("/b.txt", b"b" * 40)
        acme.rename("/b.txt", "/a.txt")
        assert acme.usage() == {"inodes": 1, "bytes": 40}
        self.assert_ledger_is_the_tree(hac, acme)

    def test_open_for_writing_is_charged_like_any_new_file(self, hac):
        t = hac.tenants.create("tiny", quota=QuotaSpec(max_inodes=1))
        t.write_file("/only.txt", b"ok")
        with pytest.raises(QuotaExceeded) as exc:
            t.open("/second.txt", "w")
        assert exc.value.resource == "inodes"
        assert not t.exists("/second.txt")
        t.unlink("/only.txt")
        t.close(t.open("/second.txt", "w"))
        assert t.usage() == {"inodes": 1, "bytes": 0}
        self.assert_ledger_is_the_tree(hac, t)

    def test_writes_through_a_link_charge_the_file_it_names(self, hac, acme):
        acme.write_file("/f.txt", b"data")
        acme.symlink("/f.txt", "/l")
        acme.write_file("/l", b"twelve bytes")
        acme.truncate("/l", 5)
        assert acme.usage() == {"inodes": 1, "bytes": 5}
        self.assert_ledger_is_the_tree(hac, acme)

    @pytest.mark.parametrize("shed", [
        lambda t, fd: t.truncate("/f.txt", 0),
        lambda t, fd: t.write(fd, b"y" * 16),
        lambda t, fd: t.open("/f.txt", "w"),
    ], ids=["truncate", "fd_write", "open_w"])
    def test_a_shed_write_charges_nothing(self, shed):
        """The admission gate sheds before the tree changes, so the
        commit ``_op`` skips on the exception had nothing to record."""
        hac = HacFileSystem(backend="cluster:3")
        t = hac.tenants.create("acme")
        t.watch("/")
        hac.maintenance.set_mode("batched")
        t.write_file("/f.txt", b"twelve bytes")
        t.write_file("/g.txt", b"g" * 18)
        fd = t.open("/g.txt", "a")
        assert hac.maintenance.pending >= 2
        hac.admission.max_queue_depth = 2
        hac.admission.enable()
        hac.engine.kill_shard("shard0")
        with pytest.raises(AdmissionRejected):
            shed(t, fd)
        assert t.usage() == {"inodes": 2, "bytes": 30}
        assert t.usage() == recompute_usage(hac.fs, t.root)

    def test_set_quota_keeps_usage(self, hac, acme):
        acme.write_file("/f.txt", b"1234")
        hac.tenants.set_quota("acme", QuotaSpec(max_bytes=4))
        with pytest.raises(QuotaExceeded):
            acme.write_file("/g.txt", b"5")


class TestAttribution:
    def test_journal_intents_carry_the_tenant_id(self, hac, acme,
                                                 monkeypatch):
        opened = []
        orig = hac.journal.begin

        def spy(op, payload):
            intent = orig(op, payload)
            if intent is not None:
                opened.append(intent)
            return intent

        monkeypatch.setattr(hac.journal, "begin", spy)
        acme.write_file("/f.txt", b"fingerprint")
        assert any(i.payload.get("tenant") == "acme" for i in opened), \
            "no journal intent was stamped with the tenant id"

    def test_spans_carry_the_tenant_tag(self, hac, acme):
        hac.obs.trace.enable()
        acme.write_file("/f.txt", b"fingerprint")
        spans = [s for s in hac.obs.trace.spans()
                 if s.name.startswith("tenant.")
                 and s.attrs.get("tenant") == "acme"]
        assert spans

    def test_scheduler_buckets_by_tenant(self, hac, acme, buyco):
        hac.maintenance.set_mode("batched")
        acme.write_file("/a.txt", b"fingerprint a")
        buyco.write_file("/b.txt", b"fingerprint b")
        assert hac.maintenance.pending_by_tenant() == {"acme": 1, "buyco": 1}
        assert hac.maintenance.status()["tenants"] == {"acme": 1, "buyco": 1}

    def test_health_reports_the_tenant_section(self, hac, acme):
        acme.write_file("/f.txt", b"12345")
        row = hac.health()["tenants"]["acme"]
        assert row["root"] == "/tenants/acme"
        assert row["usage"] == {"inodes": 1, "bytes": 5}
        assert row["quota"]["max_bytes"] == 1000

    def test_tenant_health_filters_directories(self, hac, acme, buyco):
        report = acme.health()
        assert report["tenant"]["name"] == "acme"
        assert "buyco" not in str(report.get("directories", {}))


class TestIsolationAndScoping:
    def test_glimpse_sees_only_the_tenant_subtree(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint ridges alpha")
        buyco.write_file("/b.txt", b"fingerprint ridges beta")
        hac.makedirs("/shared")
        hac.write_file("/shared/c.txt", b"fingerprint ridges host")
        hac.ssync("/")
        assert acme.glimpse("fingerprint") == ["/a.txt"]
        assert buyco.glimpse("fingerprint") == ["/b.txt"]

    def test_snapshot_glimpse_is_scoped_too(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint alpha")
        buyco.write_file("/b.txt", b"fingerprint beta")
        acme.barrier()
        buyco.barrier()
        hac.maintenance.publish()
        assert acme.glimpse("fingerprint",
                            consistency="snapshot") == ["/a.txt"]

    def test_semantic_dirs_link_only_tenant_docs(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint ridge alpha")
        buyco.write_file("/b.txt", b"fingerprint ridge beta")
        acme.smkdir("/q", "fingerprint")
        acme.barrier()
        assert sorted(acme.links("/q")) == ["a.txt"]

    def test_cross_tenant_cascades_are_pruned(self, hac, acme, buyco):
        acme.write_file("/a.txt", b"fingerprint alpha")
        buyco.smkdir("/q", "fingerprint")
        buyco.barrier()
        before = hac.counters.get("consistency.reevaluations")
        acme.write_file("/a2.txt", b"fingerprint alpha two")
        acme.barrier()
        assert hac.counters.get("consistency.cross_tenant_skips") >= 1
        # buyco's directory did not re-evaluate on acme's write
        assert hac.counters.get("consistency.reevaluations") == before

    def test_host_semdirs_still_see_tenant_writes(self, hac, acme):
        hac.smkdir("/all", "fingerprint")
        acme.write_file("/a.txt", b"fingerprint alpha")
        acme.barrier()
        hac.ssync("/all")
        assert "a.txt" in hac.links("/all")


class TestGlimpseAnswerPath:
    """The answer stays a bitmap to the last line of the facade: one bulk
    ``paths_of``, one sort, one prefix cut (DESIGN.md §3b)."""

    LEVELS = ("strong", "snapshot")

    @staticmethod
    def count_calls(monkeypatch, cls, name):
        calls = []
        real = getattr(cls, name)

        def spy(self, *args):
            calls.append(args)
            return real(self, *args)
        monkeypatch.setattr(cls, name, spy)
        return calls

    def test_no_per_hit_work_in_the_facade(self, hac, buyco, monkeypatch):
        from repro.cba.registry import DocRegistry
        from repro.core.tenant import Tenant

        for i in range(300):
            buyco.write_file(f"/f{i:03d}.txt", b"fingerprint ridge")
        buyco.barrier()
        hac.maintenance.publish()
        rows = self.count_calls(monkeypatch, DocRegistry, "doc_by_id")
        rebased = self.count_calls(monkeypatch, Tenant, "_rel")
        want = [f"/f{i:03d}.txt" for i in range(300)]
        for level in self.LEVELS:
            assert buyco.glimpse("fingerprint", consistency=level) == want
        assert rows == [] and rebased == []

    def test_isolation_survives_a_lost_scope_term(self, hac, acme, buyco,
                                                  monkeypatch):
        """The ends of the sorted answer prove confinement; when they do
        not, the per-path filter still runs."""
        acme.write_file("/a.txt", b"fingerprint alpha")
        acme.write_file("/z.txt", b"fingerprint omega")
        buyco.write_file("/b.txt", b"fingerprint beta")
        hac.makedirs("/aaa")
        hac.write_file("/aaa/host.txt", b"fingerprint host")
        hac.ssync("/")
        hac.maintenance.publish()
        monkeypatch.setattr("repro.cba.queryast.scoped",
                            lambda node, prefix: node)
        for level in self.LEVELS:
            assert acme.glimpse("fingerprint", consistency=level) == \
                ["/a.txt", "/z.txt"]
            assert buyco.glimpse("fingerprint", consistency=level) == \
                ["/b.txt"]

    def test_semantic_scope_answers_like_the_shell(self, hac, acme):
        """docs/SEMANTICS.md §2: a semantic directory provides its curated
        result as the scope — for a tenant as for the shell."""
        from repro.shell.session import HacShell

        acme.makedirs("/docs")
        acme.write_file("/docs/x.txt", b"alpha beta")
        acme.write_file("/docs/y.txt", b"alpha gamma")
        acme.write_file("/z.txt", b"alpha beta")
        acme.smkdir("/sel", "beta")
        acme.barrier()
        hac.maintenance.publish()
        shell = HacShell(hac)
        for level in self.LEVELS:
            got = acme.glimpse("alpha", scope_path="/sel", consistency=level)
            assert got == ["/docs/x.txt", "/z.txt"]
            assert [acme.root + path for path in got] == shell.glimpse(
                "alpha", scope_path=acme.root + "/sel", consistency=level)

    def test_answers_are_sorted_and_tenant_relative(self, hac, acme, buyco):
        acme.makedirs("/docs/deep")
        # written out of order: the answer is sorted, not id-ordered
        for path in ("/z.txt", "/docs/y.txt", "/a.txt", "/docs/deep/m.txt"):
            acme.write_file(path, b"fingerprint ridge")
        buyco.makedirs("/docs")
        buyco.write_file("/docs/other.txt", b"fingerprint ridge")
        hac.ssync("/")
        hac.maintenance.publish()
        for level in self.LEVELS:
            def ask(scope_path):
                return acme.glimpse("fingerprint", scope_path=scope_path,
                                    consistency=level)
            everything = ["/a.txt", "/docs/deep/m.txt", "/docs/y.txt",
                          "/z.txt"]
            assert ask("/") == everything
            assert ask("/docs") == ["/docs/deep/m.txt", "/docs/y.txt"]
            assert ask("/missing") == []
            assert ask("/z.txt/below") == []
            # ``..`` clamps at the tenant's own root (chroot semantics)
            assert ask("/../../tenants/buyco") == []
            assert ask("/docs/../..") == everything


class TestRestore:
    def test_tenants_survive_a_reopen(self, hac, acme):
        acme.write_file("/f.txt", b"fingerprint data")
        acme.barrier()
        hac.save_index()
        again = HacFileSystem.restore(hac.fs)
        t = again.tenants.get("acme")
        assert t.ledger.spec.max_bytes == 1000
        assert t.ledger.usage() == {"inodes": 1, "bytes": 16}
        assert t.read_file("/f.txt") == b"fingerprint data"
        assert t.glimpse("fingerprint") == ["/f.txt"]

    def test_restored_tenants_keep_enforcing_quotas(self, hac):
        t = hac.tenants.create("tight", quota=QuotaSpec(max_bytes=10))
        t.write_file("/f.txt", b"123456")
        again = HacFileSystem.restore(hac.fs)
        with pytest.raises(QuotaExceeded):
            again.tenants.get("tight").write_file("/g.txt", b"12345")


class TestFsck:
    def test_clean_world_has_no_tenant_findings(self, hac, acme):
        acme.write_file("/f.txt", b"fingerprint")
        assert [f for f in hac.fsck() if f.kind.startswith("tenant-")] == []

    def test_out_of_band_writes_surface_as_drift(self, hac, acme):
        hac.write_file("/tenants/acme/sneaky.txt", b"behind the facade")
        drift = [f for f in hac.fsck() if f.kind == "tenant-usage-drift"]
        assert len(drift) == 1 and drift[0].severity == "warn"
        hac.fsck(repair=True)
        assert [f for f in hac.fsck()
                if f.kind == "tenant-usage-drift"] == []
        assert acme.ledger.usage()["inodes"] == 1

    def test_index_past_the_doc_budget_is_over_quota(self, hac):
        t = hac.tenants.create("a", quota=QuotaSpec(max_docs=3))
        for i in range(5):
            hac.write_file(f"/tenants/a/f{i}.txt", b"alpha %d" % i)
        hac.maintenance.barrier()
        assert hac.engine.scope_count(t.root) == 5
        over = [f for f in hac.fsck() if f.kind == "tenant-over-quota"]
        assert len(over) == 1 and over[0].severity == "warn"
        assert "docs usage 5 exceeds the budget 3" in over[0].detail

"""hacfsck: the structural self-audit."""

import pytest

from repro.core.fsck import hacfsck
from repro.core.hacfs import HacFileSystem
from repro.core.links import Target


def kinds(findings, severity=None):
    return sorted(f.kind for f in findings
                  if severity is None or f.severity == severity)


class TestCleanWorlds:
    def test_fresh_fs_is_clean(self, hacfs):
        assert hacfsck(hacfs) == []

    def test_populated_world_is_clean(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.symlink("/notes/recipe.txt", "/fp/pin.txt")
        populated.unlink("/fp/msg1.txt")
        assert hacfsck(populated) == []

    def test_after_heavy_activity_is_clean(self, populated, library):
        populated.mkdir("/lib")
        populated.smount("/lib", library)
        populated.smkdir("/fp", "fingerprint")
        populated.rename("/fp", "/prints")
        populated.smkdir("/watch2", "/prints AND alice")
        populated.ssync("/")
        errors = [f for f in hacfsck(populated) if f.severity == "error"]
        assert errors == []

    def test_unsynced_deletion_is_info_only(self, populated):
        populated.unlink("/mail/msg1.txt")   # index entry now stale
        findings = hacfsck(populated)
        assert kinds(findings) == ["stale-doc"]
        assert findings[0].severity == "info"
        populated.ssync("/")
        assert hacfsck(populated) == []


class TestDetection:
    def test_ghost_path(self, populated):
        populated.mkdir("/empty")
        populated.smkdir("/q", "fingerprint AND /empty")
        populated.fs.rmdir("/empty")  # bypass HAC: a named directory goes
        # a directory nothing names needs no uid, made behind HAC's back too
        populated.fs.mkdir("/raw")
        findings = hacfsck(populated)
        assert [(f.kind, f.path) for f in findings
                if f.severity == "error"] == [("ghost-path", "/empty")]

    def test_orphan_state(self, populated):
        populated.meta.create(4242, None, "stray")
        findings = hacfsck(populated)
        assert "orphan-state" in kinds(findings)

    def test_missing_state(self, populated):
        populated.smkdir("/q", "fingerprint AND /notes")
        uid = populated.dirmap.uid_of("/notes")
        populated.meta.drop(uid)
        assert "missing-state" in kinds(hacfsck(populated))

    def test_missing_transient_symlink(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.fs.unlink("/fp/msg1.txt")  # bypass HAC interception
        findings = hacfsck(populated)
        assert "missing-transient" in kinds(findings)

    def test_stale_link_text(self, populated):
        populated.smkdir("/fp", "fingerprint")
        # an intercepted rename self-heals (the cascade rewrites the link),
        # so go behind HAC's back to create genuinely stale text
        populated.fs.rename("/mail/msg1.txt", "/mail/moved.txt")
        findings = hacfsck(populated)
        assert "stale-link-text" in kinds(findings)

    def test_bad_hierarchy_edge(self, populated):
        """Records that place a semantic directory under one whose query
        names it: the hierarchy edge closes a cycle the graph refuses."""
        from repro.cba.queryparser import parse_query

        populated.smkdir("/fp", "fingerprint")
        populated.smkdir("/fp/sub", "alice")
        state = populated.meta.require(populated.dirmap.uid_of("/fp"))
        state.query = parse_query("fingerprint OR /fp/sub",
                                  resolve_dir=populated.dirmap.uid_of)
        assert "cycle" in kinds(hacfsck(populated))

    def test_finding_str(self, populated):
        populated.meta.create(777, None, "stray")
        finding = [f for f in hacfsck(populated) if f.kind == "orphan-state"][0]
        assert "orphan-state" in str(finding) and "[warn]" in str(finding)


class TestRepair:
    def test_repair_orphan_state(self, populated):
        populated.meta.create(999, None, "stray")
        hacfsck(populated, repair=True)
        assert hacfsck(populated) == []

    def test_repair_missing_symlink(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.fs.unlink("/fp/msg1.txt")
        hacfsck(populated, repair=True)
        # a lost transient link is evaluation's to put back, and it does
        assert "msg1.txt" in populated.listdir("/fp")
        assert hacfsck(populated) == []

    def test_repair_missing_permanent_drops_it(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.symlink("/notes/recipe.txt", "/fp/pin.txt")
        populated.fs.unlink("/fp/pin.txt")
        assert "missing-permanent" in kinds(hacfsck(populated, repair=True))
        assert "pin.txt" not in populated.links("/fp")
        assert hacfsck(HacFileSystem.restore(populated.fs)) == []

    def test_repair_stale_link_text(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.fs.rename("/mail/msg1.txt", "/mail/moved.txt")
        hacfsck(populated, repair=True)
        assert "stale-link-text" not in kinds(hacfsck(populated))
        name = populated.readlink("/fp/msg1.txt")
        assert name == "/mail/moved.txt"

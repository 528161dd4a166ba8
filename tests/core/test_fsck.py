"""hacfsck: the structural self-audit."""

import pytest

from repro.core.fsck import hacfsck
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
        populated.fs.mkdir("/raw")  # bypass HAC: unregistered
        findings = hacfsck(populated)
        assert "unregistered-dir" in kinds(findings)

    def test_orphan_state(self, populated):
        populated.meta.create(4242, None, "stray")
        findings = hacfsck(populated)
        assert "orphan-state" in kinds(findings)

    def test_missing_state(self, populated):
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
        uid = populated.dirmap.uid_of("/notes")
        other = populated.dirmap.uid_of("/mail")
        populated.depgraph.set_hierarchy_edge(uid, other)
        assert "bad-hierarchy-edge" in kinds(hacfsck(populated))

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
        leftovers = [f for f in hacfsck(populated) if f.severity == "error"]
        assert leftovers == []
        # the dropped tracking can be regenerated by a sync
        populated.ssync("/")
        assert "msg1.txt" in populated.listdir("/fp")
        assert hacfsck(populated) == []

    def test_repair_stale_link_text(self, populated):
        populated.smkdir("/fp", "fingerprint")
        populated.fs.rename("/mail/msg1.txt", "/mail/moved.txt")
        hacfsck(populated, repair=True)
        assert "stale-link-text" not in kinds(hacfsck(populated))
        name = populated.readlink("/fp/msg1.txt")
        assert name == "/mail/moved.txt"

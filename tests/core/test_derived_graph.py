"""The dependency graph is derived state: whatever sequence of mutations,
rollbacks and reopens a name space has been through, the graph it keeps
equals the one its global map and queries imply — the named cases here,
the random ones in ``tests/properties``."""

import pytest

from repro.errors import DependencyCycle, NoSpace
from repro.core.hacfs import HacFileSystem
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

from tests.properties.derived import assert_graph_is_derived, graph_shape


@pytest.fixture
def world(populated):
    """The shared populated world (``fingerprint`` files under /notes,
    /mail and /src) plus one nested directory."""
    populated.mkdir("/notes/deep")
    return populated


def test_directory_renamed_under_a_younger_one(world):
    world.smkdir("/old", "fingerprint AND /notes")
    world.mkdir("/young")
    world.rename("/old", "/young/old")
    assert world.dirmap.uid_of("/young/old") < world.dirmap.uid_of("/young")
    assert_graph_is_derived(world)


def test_removed_reference_dangles_on_both_sides(world):
    world.mkdir("/gone")
    world.smkdir("/q", "fingerprint AND (/notes OR /gone)")
    gone = world.dirmap.uid_of("/gone")
    assert gone in world.depgraph.providers_of(world.dirmap.uid_of("/q"))
    world.rmdir("/gone")
    assert gone not in world.depgraph
    assert_graph_is_derived(world)


def test_reopen_never_reuses_a_uid_a_query_still_names(world):
    """A removed directory's uid lives on in the query that named it.  A
    reload that handed it to the next ``mkdir`` would turn the dangling
    reference into a live edge — here, child → its own parent, a cycle
    that stopped the file system from ever being reopened again."""
    world.mkdir("/a")
    world.mkdir("/b")
    world.set_query("/a", "fingerprint AND /b")
    gone = world.dirmap.uid_of("/b")
    world.rmdir("/b")
    hac = HacFileSystem.restore(world.fs)
    assert_graph_is_derived(hac)
    hac.mkdir("/a/c")
    hac.mkdir("/c")
    assert gone not in (hac.dirmap.uid_of("/a/c"), hac.dirmap.uid_of("/c"))
    assert_graph_is_derived(hac)
    hac = HacFileSystem.restore(hac.fs)
    assert_graph_is_derived(hac)
    assert hac.fsck() == []
    # an in-process rollback runs the same loader
    dev = hac.fs.device
    dev.set_fault_plan(FaultPlan(enospc_at=[dev.record_write_index + 1]))
    with pytest.raises(NoSpace):
        hac.mkdir("/a/c/d")
    dev.clear_faults()
    hac.mkdir("/d")
    assert hac.dirmap.uid_of("/d") != gone
    assert_graph_is_derived(hac)


def test_query_naming_its_own_parent(world):
    """Both edge kinds on one pair: fsck stays clean, and moving the
    directory away keeps the dependency its query still states."""
    world.smkdir("/notes/q", "fingerprint AND /notes")
    assert world.fsck() == []
    assert_graph_is_derived(world)
    world.rename("/notes/q", "/q")
    notes, q = world.dirmap.uid_of("/notes"), world.dirmap.uid_of("/q")
    assert world.depgraph.providers_of(q) == {0: "hierarchy",
                                              notes: "reference"}
    assert_graph_is_derived(world)


def test_mount_adopts_and_unmount_forgets(world):
    other = FileSystem(name="other")
    other.mkdir("/inner")
    other.mkdir("/inner/deeper")
    other.write_file("/inner/c.txt", b"fingerprint three\n")
    world.mkdir("/mnt")
    world.mount("/mnt", other)
    world.smkdir("/q", "fingerprint AND /mnt/inner")
    assert_graph_is_derived(world)
    world.unmount("/mnt")
    assert_graph_is_derived(world)


def test_tenant_resolved_references(world):
    tenant = world.tenants.create("t")
    tenant.mkdir("/src")
    tenant.write_file("/src/x.txt", b"fingerprint four\n")
    tenant.smkdir("/q", "fingerprint AND /src")
    q = world.dirmap.uid_of("/tenants/t/q")
    src = world.dirmap.uid_of("/tenants/t/src")
    assert world.depgraph.providers_of(q)[src] == "reference"
    assert_graph_is_derived(world)


def test_rejected_cycle_rolls_back_to_the_derived_graph(world):
    world.smkdir("/p", "fingerprint")
    world.smkdir("/q", "fingerprint AND /p")
    before = graph_shape(world.depgraph)
    with pytest.raises(DependencyCycle):
        world.set_query("/p", "fingerprint AND /q")
    assert graph_shape(world.depgraph) == before
    assert_graph_is_derived(world)


@pytest.mark.parametrize("op", [
    lambda h: h.smkdir("/q2", "fingerprint AND /notes/deep"),
    lambda h: h.rename("/notes/deep", "/deep"),
    lambda h: h.set_query("/q", "fingerprint AND /notes/deep"),
    lambda h: h.rmdir("/empty"),
], ids=["smkdir", "rename_dir", "set_query", "rmdir"])
def test_soft_failure_reloads_the_same_graph(world, op):
    """An in-process rollback runs the loader a reopen runs: after a
    transient ENOSPC at any write of the operation the graph is the one
    from before it, and a reopen derives that very graph again."""
    world.smkdir("/q", "fingerprint AND /notes")
    world.mkdir("/empty")
    before = graph_shape(world.depgraph)
    dev = world.fs.device
    offset = 0
    while True:
        dev.set_fault_plan(
            FaultPlan(enospc_at=[dev.record_write_index + offset]))
        try:
            op(world)
        except NoSpace:
            assert graph_shape(world.depgraph) == before, offset
            assert_graph_is_derived(world, offset)
            offset += 1
            continue
        break
    assert offset > 0
    dev.clear_faults()
    assert_graph_is_derived(world)
    reopened = HacFileSystem.restore(world.fs)
    assert graph_shape(reopened.depgraph) == graph_shape(world.depgraph)

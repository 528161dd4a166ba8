"""Durable state says each thing once: which record kinds a device ends
up holding, that ``restore`` reads every one of them, how many device
writes the structural operations cost, and that a reopen syncs the tree
exactly once.  Exact counters throughout — no wall clock."""

import pytest

from repro.core.hacfs import HacFileSystem

#: every record kind HAC persists once its intents have committed
FAMILIES = {"engineconf", "globalmap", "semdir", "tenants",
            "seg", "segmanifest", "cbaindex"}


def families(device):
    return {key.split(":")[0] for key in device.record_keys()}


@pytest.fixture
def world():
    """One tenant over 20 files, batched maintenance, everything drained."""
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    tenant = hac.tenants.create("a")
    tenant.makedirs("/d")
    for i in range(20):
        tenant.write_file(f"/d/f{i}.txt", b"alpha %d" % i)
    tenant.barrier()
    return hac, tenant


def reads_while_loading(device, reopen):
    """Record families *reopen* reads before its first device write —
    the loading half of a restore; the sync it ends in journals, and a
    journal pre-image read is not the loader knowing a record."""
    seen, wrote = set(), []
    read, write = device.read_record, device.write_record

    def spy_read(key):
        if not wrote:
            seen.add(key.split(":")[0])
        return read(key)

    def spy_write(key, data):
        wrote.append(key)
        return write(key, data)

    device.read_record, device.write_record = spy_read, spy_write
    try:
        reopen()
    finally:
        del device.read_record, device.write_record
    assert wrote, "the reopen never reached its sync"
    return seen


def test_record_catalogue():
    hac = HacFileSystem()
    hac.maintenance.set_mode("batched")
    alpha, beta = hac.tenants.create("alpha"), hac.tenants.create("beta")
    for tenant in (alpha, beta):
        tenant.mkdir("/docs")
        tenant.write_file("/docs/a.txt", b"fingerprint notes")
        tenant.smkdir("/fp", "fingerprint AND /docs")
    alpha.rename("/docs", "/papers")
    hac.maintenance.drain()
    hac.ssync("/")
    hac.save_index()
    device = hac.fs.device
    assert families(device) == FAMILIES

    # every kind on the device is one the loader reads: with the saved
    # index, and — the segment records' turn — without it
    read = reads_while_loading(device, lambda: HacFileSystem.restore(hac.fs))
    device.delete_record("cbaindex")
    read |= reads_while_loading(device,
                                lambda: HacFileSystem.restore(hac.fs))
    for family in sorted(families(device) | {"cbaindex"}):
        assert family in read, f"{family}: written, but restore never reads it"
    assert families(device) == FAMILIES - {"cbaindex"}


@pytest.mark.parametrize("bound, op", [
    (8, lambda t: t.mkdir("/m")),
    (10, lambda t: t.smkdir("/s", "alpha")),
    (6, lambda t: t.set_query("/q", "alpha AND 1")),
    (8, lambda t: t.rename("/empty", "/moved")),
    (8, lambda t: t.rmdir("/empty")),
], ids=["mkdir", "smkdir", "set_query", "rename_dir", "rmdir"])
def test_structural_ops_write_each_fact_once(world, bound, op):
    """Device writes (deletes included) per call: the intent's begin, one
    pre-image and one write per record touched, the commit's deletes —
    and the records touched are the directory's own and the global map,
    not a second copy of either."""
    hac, tenant = world
    tenant.smkdir("/q", "alpha")
    tenant.mkdir("/empty")
    device = hac.fs.device
    before = device.record_write_index
    op(tenant)
    assert device.record_write_index - before <= bound


def test_restore_syncs_the_tree_once():
    hac = HacFileSystem()
    for name in ("alpha", "beta"):
        tenant = hac.tenants.create(name)
        tenant.write_file("/a.txt", b"fingerprint notes")
    counters = hac.counters
    before = counters.get("hac.reindex")
    again = HacFileSystem.restore(hac.fs, counters=counters)
    assert counters.get("hac.reindex") - before == 1
    assert again.watches.roots() == ["/tenants/alpha", "/tenants/beta"]
    # registered is enough: the one sync covered both roots' files, and
    # writes from here on are eager again
    beta = again.tenants.get("beta")
    assert beta.glimpse("fingerprint") == ["/a.txt"]
    beta.write_file("/b.txt", b"fingerprint more")
    assert beta.glimpse("fingerprint") == ["/a.txt", "/b.txt"]

"""Durable state says each thing once: which record kinds a device ends
up holding, that ``restore`` reads every one of them, how many device
writes the structural operations cost, and that a reopen syncs the tree
exactly once.  Exact counters throughout — no wall clock."""

import pytest

from repro.core.hacfs import HacFileSystem

#: every record kind HAC persists once its intents have committed
FAMILIES = {"engineconf", "semdir", "tenants",
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
    (5, lambda t: t.mkdir("/m")),
    (6, lambda t: t.smkdir("/s", "alpha")),
    (5, lambda t: t.set_query("/q", "alpha AND 1")),
    (5, lambda t: t.rename("/empty", "/moved")),
    (5, lambda t: t.rmdir("/empty")),
], ids=["mkdir", "smkdir", "set_query", "rename_dir", "rmdir"])
def test_structural_ops_write_each_fact_once(world, bound, op):
    """Device writes (deletes included) per call: the intent's begin, one
    pre-image and one write per record touched, the commit's deletes —
    and the one record touched is the directory's own: the global map is
    derived from the places the records hold, never written, and the
    cascade that links the query's results writes no record at all."""
    hac, tenant = world
    tenant.smkdir("/q", "alpha")
    tenant.mkdir("/empty")
    device = hac.fs.device
    before = device.record_write_index
    op(tenant)
    assert device.record_write_index - before <= bound


def bytes_and_key_lengths(device, op):
    """Bytes written to the device while *op* runs, and the summed length
    of the record keys they were written under."""
    written = []
    write = device.write_record

    def spy(key, data):
        written.append((len(key), len(data)))
        return write(key, data)

    device.write_record = spy
    try:
        op()
    finally:
        del device.write_record
    return sum(n for _k, n in written), sum(k for k, _n in written)


@pytest.mark.parametrize("op", [
    lambda h: h.mkdir("/new"),
    lambda h: h.rename("/d0005", "/moved"),
], ids=["mkdir", "rename_dir"])
def test_namespace_writes_are_flat_in_the_directory_count(op):
    """A directory's record says where it sits, so a ``mkdir`` or a
    directory ``rename`` writes the same bytes among 1 000 siblings as
    among 10 — up to the longer uid and journal sequence in the record
    names, which is all that may grow."""
    def cost(siblings):
        hac = HacFileSystem()
        for i in range(siblings):
            hac.mkdir(f"/d{i:04d}")
        return bytes_and_key_lengths(hac.fs.device, lambda: op(hac))

    (small, small_keys), (large, large_keys) = cost(10), cost(1000)
    assert 0 <= large - small <= large_keys - small_keys


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


def semdir_traffic(device, op):
    """``semdir:`` records written, and ``semdir:`` pre-images journaled,
    while *op* runs."""
    from repro.util import serialization

    writes, preimages = [], []
    write = device.write_record

    def spy(key, data):
        if key.startswith("semdir:"):
            writes.append(key)
        elif key.startswith("wal:") and ":u" in key and \
                serialization.loads(data)["key"].startswith("semdir:"):
            preimages.append(key)
        return write(key, data)

    device.write_record = spy
    try:
        op()
    finally:
        del device.write_record
    return writes, preimages


def linked_world(links):
    """*links* files matching ``alpha`` under a watched ``/files``, and one
    semantic directory linking every one of them."""
    hac = HacFileSystem()
    hac.mkdir("/files")
    for i in range(links):
        hac.write_file(f"/files/f{i:04d}.txt", b"alpha %d" % i)
    hac.ssync("/")
    hac.smkdir("/sem", "alpha")
    hac.watch("/files")
    assert len(hac.links("/sem")) == links
    return hac


@pytest.mark.parametrize("links", [10, 1000])
def test_a_cascade_moving_one_link_writes_no_semdir_record(links):
    """A cascade that adds or drops one transient link writes no
    ``semdir:`` record and journals no ``semdir:`` pre-image, however many
    links the directory holds: the link is a symlink in the tree."""
    hac = linked_world(links)
    device = hac.fs.device
    added = semdir_traffic(
        device, lambda: hac.write_file("/files/new.txt", b"alpha new"))
    assert len(hac.links("/sem")) == links + 1
    dropped = semdir_traffic(
        device, lambda: hac.write_file("/files/f0000.txt", b"beta"))
    assert len(hac.links("/sem")) == links
    assert added == dropped == ([], [])


def test_a_prohibition_writes_the_same_bytes_beside_any_number_of_links():
    """Prohibiting one link writes the directory's record — the user's
    facts only — so the bytes do not grow with the transient class beside
    it (up to the length of the link's name)."""
    def cost(links):
        hac = linked_world(links)
        written = bytes_and_key_lengths(
            hac.fs.device, lambda: hac.unlink("/sem/f0000.txt"))
        assert hac.prohibited("/sem")
        return written

    (small, _keys), (large, _keys) = cost(10), cost(1000)
    assert abs(large - small) <= len("f0000.txt")

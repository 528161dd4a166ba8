"""Durable state says each thing once: which record kinds a device ends
up holding, that ``restore`` reads every one of them, how many device
writes the structural operations cost, and that a reopen syncs the tree
exactly once.  Exact counters throughout — no wall clock."""

import pytest

from repro.core.hacfs import HacFileSystem
from repro.util import serialization

#: every record kind HAC persists once its intents have committed
FAMILIES = {"engineconf", "semdir", "tenants", "seg", "segmanifest"}


def families(device):
    return {key.split(":")[0] for key in device.record_keys()}


@pytest.fixture
def world():
    return world_on("monolith")


def world_on(backend):
    """One tenant over 20 files, batched maintenance, everything drained."""
    hac = HacFileSystem(backend=backend)
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


def catalogue(backend):
    """The record families a two-tenant world on *backend* holds after
    ``save_index``, and the ones a reopen of it reads while loading."""
    hac = HacFileSystem(backend=backend)
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
    held = families(device)
    return held, reads_while_loading(device,
                                     lambda: HacFileSystem.restore(hac.fs))


def test_record_catalogue():
    """The monolith's saved index is its segments; every kind the device
    holds is one the loader reads."""
    held, read = catalogue("monolith")
    assert held == FAMILIES
    for family in sorted(held):
        assert family in read, f"{family}: written, but restore never reads it"


def test_record_catalogue_of_a_cluster():
    """A cluster's saved index is segments too: one per shard, under the
    manifest's shard map."""
    held, read = catalogue("cluster:3")
    assert held == FAMILIES
    for family in sorted(held):
        assert family in read, f"{family}: written, but restore never reads it"


def written_by(device, op):
    """*op*'s result, and the record keys written and deleted while it
    runs."""
    wrote, deleted = [], []
    write, delete = device.write_record, device.delete_record

    def spy_write(key, data):
        wrote.append(key)
        return write(key, data)

    def spy_delete(key):
        deleted.append(key)
        return delete(key)

    device.write_record, device.delete_record = spy_write, spy_delete
    try:
        return op(), wrote, deleted
    finally:
        del device.write_record, device.delete_record


def test_a_reopen_after_save_index_writes_only_its_begin():
    """The segments are the index: the monolith's ``save_index`` seals
    and merges them and writes no second copy, and a cluster's writes
    each shard's live rows as one, so a reopen installs them back and its
    closing sync finds nothing to write.  Each reopen writes its own
    ``wal:`` begin, which its commit deletes, and nothing else.  So does
    a second monolith ``save_index`` with nothing noted; a cluster's has
    no memtable to say so, and replaces its segments in one intent."""
    for backend in ("monolith", "cluster:3"):
        hac, _tenant = world_on(backend)
        device = hac.fs.device
        hac.save_index()
        for _ in range(2):
            hac, wrote, deleted = written_by(
                device, lambda: HacFileSystem.restore(hac.fs))
            assert len(wrote) == 1 and wrote[0].startswith("wal:"), \
                (backend, wrote)
            assert deleted == wrote
        old = sorted(k for k in device.record_keys() if k.startswith("seg"))
        _bytes, wrote, deleted = written_by(device, hac.save_index)
        assert "cbaindex" not in device.record_keys()
        if backend == "monolith":
            assert len(wrote) == 1 and wrote[0].startswith("wal:"), wrote
            assert deleted == wrote
        else:
            records = [key for key in wrote if not key.startswith("wal:")]
            assert len(records) == 4 and records[-1] == "segmanifest"
            assert set(old) - {"segmanifest"} <= set(deleted)
            assert [k for k in wrote if k.endswith(":begin")] == \
                [wrote[0]], wrote


@pytest.mark.parametrize("writes, op", [
    (0, lambda t: t.mkdir("/m")),
    (5, lambda t: t.smkdir("/s", "alpha")),
    (5, lambda t: t.set_query("/q", "alpha AND 1")),
    (5, lambda t: t.set_query("/d", "alpha")),
    (5, lambda t: t.rename("/empty", "/moved")),
    (5, lambda t: t.rmdir("/empty")),
], ids=["mkdir", "smkdir", "set_query", "set_query_unnamed", "rename_dir",
        "rmdir"])
def test_structural_ops_write_each_fact_once(world, writes, op):
    """Device writes (deletes included) per call: the intent's begin, one
    pre-image and one write per record touched, the commit's deletes —
    and the one record touched is the directory's own, written once even
    when the op mints it (``smkdir``, a query on a directory nothing
    named): the global map is derived from the places the records hold,
    never written, and the cascade that links the query's results writes
    no record at all.  A plain ``mkdir`` writes nothing.  A query names
    ``/empty``, so its move and removal are journaled."""
    hac, tenant = world
    tenant.smkdir("/q", "alpha")
    tenant.mkdir("/empty")
    tenant.smkdir("/r", "alpha AND NOT /empty")
    device = hac.fs.device
    before = device.record_write_index
    op(tenant)
    assert device.record_write_index - before == writes


@pytest.mark.parametrize("op", [
    lambda t: t.mkdir("/m"),
    lambda t: t.rename("/empty", "/moved"),
    lambda t: t.rmdir("/empty"),
    lambda t: t.rename("/crate", "/empty/crate"),
], ids=["mkdir", "rename_dir", "rmdir", "rename_dir_of_files"])
def test_a_plain_directory_writes_nothing(world, op):
    """A directory nothing names is the tree's alone (docs/SEMANTICS.md
    §1): its ``mkdir``, ``rmdir`` and ``rename`` make no device write —
    no intent, no record — however many files it holds."""
    hac, tenant = world
    tenant.smkdir("/q", "alpha")
    tenant.mkdir("/empty")
    tenant.mkdir("/crate")
    tenant.write_file("/crate/f.txt", b"alpha crate")
    tenant.barrier()
    device = hac.fs.device
    before = device.record_write_index
    op(tenant)
    assert device.record_write_index - before == 0


def test_naming_a_parent_writes_exactly_its_record(world):
    """The first ``smkdir`` under a parent nothing names writes one record
    more than one under a named parent — the parent's — and journals its
    pre-image."""
    hac, tenant = world
    tenant.mkdir("/plain")
    tenant.mkdir("/named")
    tenant.smkdir("/named/first", "alpha")
    device = hac.fs.device
    named = semdir_traffic(device,
                           lambda: tenant.smkdir("/named/s", "alpha"))
    plain = semdir_traffic(device,
                           lambda: tenant.smkdir("/plain/s", "alpha"))
    parent = f"semdir:{hac.dirmap.uid_of('/tenants/a/plain')}"
    new = f"semdir:{hac.dirmap.uid_of('/tenants/a/plain/s')}"
    (named_writes, named_preimages), (writes, preimages) = named, plain
    assert writes == [parent] + [new] * len(named_writes)
    assert len(preimages) == len(named_preimages) + 1


def test_a_glimpse_naming_a_plain_directory_writes_nothing(world):
    """An ad-hoc query resolves a plain directory it names for that one
    evaluation: a read mints no uid and writes no record."""
    hac, tenant = world
    device = hac.fs.device
    before = device.record_write_index
    assert len(tenant.glimpse("alpha AND /d")) == 20
    assert len(hac.glimpse("alpha AND /tenants/a/d")) == 20
    assert device.record_write_index - before == 0
    assert hac.dirmap.uid_of("/tenants/a/d") is None


def bytes_and_key_lengths(device, op):
    """Bytes written to the device while *op* runs, and the summed length
    of the record keys they name: the key each is written under, and, for
    every op, the key a journal pre-image (``wal:<seq>:u<i>``) holds the
    old bytes of — a pre-image carries its record's name in its body.  Of
    the ops below only ``smkdir`` journals a record whose name grows with
    the directory count (its new uid); ``mkdir`` writes nothing and a
    directory ``rename`` journals the same record at both sizes."""
    written = []
    write = device.write_record

    def spy(key, data):
        named = len(key)
        if key.startswith("wal:") and ":u" in key:
            named += len(serialization.loads(data)["key"])
        written.append((named, len(data)))
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
    lambda h: h.smkdir("/d0005/new", "alpha"),
], ids=["mkdir", "rename_dir", "smkdir"])
def test_namespace_writes_are_flat_in_the_directory_count(op):
    """A directory's record says where it sits, so a ``mkdir``, a
    directory ``rename`` or an ``smkdir`` writes the same bytes among
    1 000 named siblings as among 10 — up to the longer uid and journal
    sequence in the record names, which is all that may grow."""
    def cost(siblings):
        hac = HacFileSystem()
        for i in range(siblings):
            hac.mkdir(f"/d{i:04d}")
        # one query names every sibling
        hac.smkdir("/all", "alpha AND (%s)" % " OR ".join(
            f"/d{i:04d}" for i in range(siblings)))
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

"""Property: under a storm of renames the path map never serves a stale
resolution, and its invalidation/rebase accounting matches an oracle.

The map's coherence protocol (repro.vfs.pathmap) claims that after any
mutation every *live* entry still equals what a fresh component walk
would resolve.  This suite hammers exactly the operations that move or
destroy canonical paths — directory and file renames, rmdir/unlink,
mount and unmount — on a deep warmed tree, and after **every** op:

* each live cached path re-resolves by a raw walk to the very node the
  map holds (identity, not equality), proving no stale service;
* every live entry's generation stamp is from the current generation
  era (> the generation before the op when the entry was rebased by it);
* the counted work matches an oracle computed *before* the op from
  ``live_keys()``: a dir rename must rebase exactly the live entries
  under the old prefix (plus the dir itself), an unlink/rmdir must
  tombstone at most the one exact entry, a mount/unmount must kill the
  covered prefix.

``REF_SEED`` shifts the fuzz seed (CI matrix shares it with the
equivalence harness).
"""

import random

import pytest

from repro.util import pathutil
from repro.vfs.filesystem import FileSystem

from tests.properties.reference import SEED as BASE_SEED

TOP = ["/a", "/b", "/c"]
MIDS = ["m0", "m1"]
LEAVES = ["x", "y"]


def build_fs() -> FileSystem:
    fs = FileSystem(name="storm")
    for top in TOP:
        fs.mkdir(top)
        for mid in MIDS:
            fs.mkdir(f"{top}/{mid}")
            for leaf in LEAVES:
                fs.mkdir(f"{top}/{mid}/{leaf}")
                fs.write_file(f"{top}/{mid}/{leaf}/f.txt", b"data")
    return fs


def warm(fs: FileSystem) -> None:
    """Touch every path so the map holds the whole tree."""
    stack = ["/"]
    while stack:
        path = stack.pop()
        for name in sorted(fs.listdir(path)):
            child = (path.rstrip("/") or "") + "/" + name
            fs.stat(child)
            if fs.isdir(child):
                stack.append(child)


def all_dirs(fs: FileSystem):
    out = []
    stack = ["/"]
    while stack:
        path = stack.pop()
        for name in sorted(fs.listdir(path)):
            child = (path.rstrip("/") or "") + "/" + name
            if fs.isdir(child):
                out.append(child)
                stack.append(child)
    return out


def assert_no_stale_service(fs: FileSystem) -> None:
    """Every live entry must resolve — by a raw walk, bypassing the map —
    to the identical node object the map would serve."""
    pm = fs._pathmap
    for key in pm.live_keys():
        _fs, node, _literal = fs._walk(key, follow_last=False)
        cached = pm.lookup(key)
        # lookup may evict via the liveness backstop; served ⇒ identical
        if cached is not None:
            assert cached is node, key


def test_rename_storm_never_serves_stale(seed: int = BASE_SEED):
    rng = random.Random(seed)
    fs = build_fs()
    subfs = FileSystem(name="storm-sub")
    subfs.write_file("/inner.txt", b"mounted")
    mounted_at = None
    warm(fs)
    pm = fs._pathmap
    assert len(pm) > 20  # the storm starts from a fully warmed map

    for _step in range(160):
        dirs = all_dirs(fs)
        live_before = set(pm.live_keys())
        gen_before = pm.generation
        r = rng.random()
        if r < 0.45 and len(dirs) > 1:
            src = rng.choice(dirs)
            dparent = rng.choice(dirs + ["/"])
            dst = (dparent.rstrip("/") or "") + "/" + f"r{_step}"
            covered = (mounted_at.rstrip("/") + "/"
                       if mounted_at is not None else None)
            crosses = covered is not None and any(
                p == mounted_at or p.startswith(covered)
                for p in (src, dst, dparent))
            if (not crosses and not dst.startswith(src + "/")
                    and not fs.exists(dst)
                    and not dparent.startswith(src)
                    and not fs._subtree_has_mounts(
                        fs, fs.resolve(src).node)):
                moved_oracle = len([k for k in live_before
                                    if k == src
                                    or k.startswith(src + "/")])
                before = fs.counters.get("pathmap.rebased")
                fs.rename(src, dst)
                moved = fs.counters.get("pathmap.rebased") - before
                assert moved == moved_oracle, (src, dst)
                # rebased entries are stamped with the new generation
                for key in pm.live_keys():
                    if key == dst or key.startswith(dst.rstrip("/") + "/"):
                        assert pm.entry_generation(key) > gen_before, key
        elif r < 0.60:
            files = [k for k in live_before if k.endswith(".txt")
                     and fs.isfile(k)]
            if files:
                victim = rng.choice(files)
                before = fs.counters.get("pathmap.invalidated")
                fs.unlink(victim)
                assert fs.counters.get("pathmap.invalidated") - before == 1
                assert pm.lookup(victim) is None
        elif r < 0.72:
            # keep a floor of directories so the storm never empties the
            # tree (rmdir of the last few would starve later ops)
            empties = [d for d in dirs
                       if not fs.listdir(d) and d != mounted_at]
            if empties and len(dirs) > 6:
                fs.rmdir(rng.choice(empties))
        elif r < 0.82 and mounted_at is None and dirs:
            cover = rng.choice(dirs)
            if not fs.listdir(cover):
                fs.mount(cover, subfs)
                mounted_at = cover
                # the covered prefix is dead: resolving under it now
                # crosses the mount, so nothing there may be served
                for key in pm.live_keys():
                    assert not key.startswith(cover.rstrip("/") + "/"), key
        elif r < 0.90 and mounted_at is not None:
            fs.unmount(mounted_at)
            mounted_at = None
        elif dirs:
            # re-warm a random subtree so the map stays populated
            target = rng.choice(dirs)
            for name in fs.listdir(target):
                fs.stat((target.rstrip("/") or "") + "/" + name)
        assert_no_stale_service(fs)

    assert fs.counters.get("pathmap.rebased") > 0
    assert fs.counters.get("pathmap.stale") >= 0
    assert fs.counters.get("pathmap.hit") > 0


@pytest.mark.parametrize("seed", [BASE_SEED + 1, BASE_SEED + 2])
def test_rename_storm_more_seeds(seed):
    test_rename_storm_never_serves_stale(seed)


# ----------------------------------------------------------------------
# the same storm one layer up: the map and the graph stay derivable
# ----------------------------------------------------------------------

def build_hac(backend=None):
    from repro.core.hacfs import HacFileSystem

    hac = HacFileSystem(backend=backend)
    for top in TOP:
        hac.mkdir(top)
        for mid in MIDS:
            hac.mkdir(f"{top}/{mid}")
            hac.write_file(f"{top}/{mid}/f.txt", b"alpha data")
    hac.ssync("/")
    return hac


def all_names(fs: FileSystem):
    """Every name in the tree, mounts included; links are not followed."""
    out = []
    stack = ["/"]
    while stack:
        path = stack.pop()
        for name in fs.listdir(path):
            child = (path.rstrip("/") or "") + "/" + name
            out.append(child)
            if not fs.islink(child) and fs.isdir(child):
                stack.append(child)
    return out


@pytest.mark.parametrize("seed", [BASE_SEED, BASE_SEED + 1])
def test_storm_keeps_the_graph_derived(seed, backend=None, mode="eager"):
    """Directory moves (under older and younger directories alike, some
    onto an empty directory they replace), queries naming random
    directories (the ones that would close a cycle through semantic
    directories rejected and rolled back), detaches,
    removals of referenced directories, a mount and its unmount, writes
    through a link to a file and through a link to a watched directory,
    documents left lingering in the index by an unwatched unlink,
    renames of a file that a plain storm directory links to, a tenant
    resolving references in its own name space, and ad-hoc glimpses naming
    a random directory (named or not, which must answer what that
    directory's scope does): after
    **every** step, accepted or refused, the map HAC maintains is the map
    its records' places load, the graph HAC maintains is the graph its map
    and queries imply, every semantic directory's links are the links a
    from-scratch evaluation gives and the ones its record plus its tree
    load, fsck agrees, ``stat`` answers for the node each name reaches,
    and the watch is on wherever its directory is now, or gone with it.
    Most storm directories are named by nothing, until a query, a
    semantic directory placed in one, or a move of one names them."""
    from repro.errors import ReproError
    from repro.vfs.walker import walk
    from tests.properties.derived import (assert_is_derived,
                                         assert_links_are_derived,
                                         assert_stat_is_the_nodes)
    from tests.properties.reference import assert_links_from_scratch

    rng = random.Random(seed)
    hac = build_hac(backend)
    hac.maintenance.set_mode(mode)
    tenant = hac.tenants.create("t")
    tenant.mkdir("/src")
    tenant.write_file("/src/x.txt", b"alpha tenant")
    subfs = FileSystem(name="storm-sub")
    subfs.mkdir("/inner")
    subfs.write_file("/inner/i.txt", b"alpha mounted")
    mounted_at = None
    refused = 0
    hac.write_file("/top.txt", b"alpha at the top")
    hac.symlink("/top.txt", "/flink")
    hac.symlink("/c/m0", "/dlink")
    # a plain storm directory links to the file the writes go to and the
    # renames move: a semantic directory placed under it is link-fed
    hac.symlink("/c/m0/f.txt", "/a/m1/clink")
    tenant_roots = hac.watches.roots()
    watched = hac.fs.resolve(hac.watch("/c/m0")).node.ino

    for step in range(120):
        dirs = sorted(p for p, _d, _f, _listed in walk(hac.fs, "/")
                      if p != "/" and not p.startswith("/tenants"))
        semantic = [p for p in hac.semantic_dirs()
                    if not p.startswith("/tenants")]
        naming = " OR ".join(rng.sample(dirs, rng.randint(1, 2)))
        r = rng.random()
        try:
            if r < 0.30:
                src = rng.choice(dirs)
                dst = (rng.choice(dirs + ["/"]).rstrip("/")) + f"/r{step}"
                empties = [d for d in dirs if not hac.listdir(d)]
                if empties and rng.random() < 0.25:
                    dst = rng.choice(empties)
                if src == mounted_at or dst == mounted_at:
                    continue
                hac.rename(src, dst)
            elif r < 0.46:
                parent = rng.choice(dirs + ["/"]).rstrip("/")
                hac.smkdir(f"{parent}/q{step}", f"alpha AND ({naming})")
            elif r < 0.60 and semantic:
                hac.set_query(rng.choice(semantic), f"alpha AND ({naming})")
            elif r < 0.64 and semantic:
                hac.set_query(rng.choice(semantic), None)
            elif r < 0.74:
                victim = rng.choice(dirs)
                if victim != mounted_at:
                    hac.rmdir(victim)
            elif r < 0.80 and mounted_at is None:
                cover = f"/mnt{step}"
                hac.mkdir(cover)
                hac.mount(cover, subfs)
                mounted_at = cover
            elif r < 0.84 and mounted_at is not None:
                hac.unmount(mounted_at)
                mounted_at = None
            elif r < 0.88:
                hac.write_file(rng.choice(["/flink", "/dlink/f.txt"]),
                               f"alpha written at {step}".encode())
            elif r < 0.92:
                # a lingering document: indexed, then unlinked outside
                # any watch, it stays registered under its directory
                # until a sync reaches it, and moves with that directory
                home = rng.choice(dirs)
                if mounted_at is not None and \
                        pathutil.is_ancestor(mounted_at, home, strict=False):
                    continue
                hac.write_file(f"{home}/l{step}.txt", b"alpha lingering")
                hac.ssync(home)
                hac.unlink(f"{home}/l{step}.txt")
            elif r < 0.94:
                ref = rng.choice(dirs)
                assert hac.glimpse(f"alpha AND {ref}") \
                    == hac.glimpse("alpha", scope_path=ref), (step, ref)
            elif r < 0.97:
                # the linked file moves away and back
                names = ["/dlink/f.txt", "/dlink/g.txt"]
                if not hac.exists(names[0]):
                    names.reverse()
                hac.rename(*names)
            else:
                tenant.smkdir(f"/q{step}", "alpha AND /src")
        except ReproError:
            # a cycle, a non-empty rmdir, a move into its own subtree or
            # across the mount: refused, rolled back, and still derivable
            refused += 1
        assert_is_derived(hac, step)
        assert_links_from_scratch(hac, step)
        assert_links_are_derived(hac, step)
        errors = [f for f in hac.fsck() if f.severity == "error"]
        assert errors == [], (step, [str(f) for f in errors])
        assert_stat_is_the_nodes(
            hac, all_names(hac.fs) + ["/dlink/f.txt"], step)
        live = hac.fs.path_of_ino(watched)
        assert hac.watches.roots() \
            == sorted(tenant_roots + ([live] if live else [])), step

    assert refused > 0
    assert hac.semantic_dirs()


def test_storm_on_a_cluster():
    test_storm_keeps_the_graph_derived(BASE_SEED, backend="cluster:3")


def test_storm_batched():
    test_storm_keeps_the_graph_derived(BASE_SEED, mode="batched")

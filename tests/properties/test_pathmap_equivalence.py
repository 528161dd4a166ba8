"""Property: the path map is observationally identical to pure walking.

Folding the tree into a map (DESIGN.md §3i) accelerates ``namei``; it
must never change what any call returns.  The component walk survives as
the map's miss path, :meth:`FileSystem._walk`, and that is the reference:
one world runs a seeded mix of mkdir/rename/rmdir/write/unlink/stat/
listdir/read/ssync/smkdir ops, and after every op each path in the
candidate pool must resolve through the map (``resolve()``) to exactly
the node — or exactly the error — a fresh walk of the same tree finds.
A crash tail arms a device fault mid-``smkdir`` and requires the same
agreement (and a clean ``fsck``) after recovery, proving the map stays
coherent through journal rollback and tree undo (recovery mutates the
tree through the same invalidating operations).

``REF_SEED`` shifts the fuzz seeds (CI matrix).
"""

import random

import pytest

from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed, VfsError
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem

from tests.properties.reference import SEED as BASE_SEED

#: candidate directories, parents before children so mkdir can build them
DIRS = ["/t/a", "/t/b", "/t/c", "/t/a/x", "/t/a/y", "/t/b/z"]
FILES = [f"f{i}.txt" for i in range(6)]
WORDS = ["fingerprint", "banana", "ridge", "recipe", "lunch", "minutiae"]
QUERIES = ["fingerprint", "ridge AND NOT banana", "recipe OR lunch"]


def build_world() -> HacFileSystem:
    clock = VirtualClock()
    counters = Counters()
    fs = FileSystem(name="hac", clock=clock, counters=counters,
                    fsid="hac#pmeq")
    hac = HacFileSystem(fs=fs, clock=clock, counters=counters)
    hac.makedirs("/t")
    hac.write_file("/t/seed.txt", b"fingerprint ridge baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    return hac


#: every path an op can touch, plus shapes the map must never cache
#: (``..`` components) or must cache under the normalized key
POOL = (["/", "/t", "/fp", "/ridge", "/t/seed.txt", "/fp/seed.txt"] + DIRS
        + [f"{d}/{f}" for d in DIRS + ["/t"] for f in FILES]
        + ["/t/a/../b", "/t//a/", "/t/a/x/../../b/z", "/fp/../t/seed.txt"])


def _outcome(fn):
    try:
        fs, node = fn()
        return (fs, node)
    except VfsError as exc:
        return type(exc)


def assert_map_agrees_with_walk(fs: FileSystem, context) -> None:
    """``resolve()`` (map first) vs a fresh ``_walk()`` of the same tree,
    both follow modes, every pooled path: same node or same error."""
    for path in POOL:
        for follow in (True, False):
            def mapped():
                res = fs.resolve(path, follow=follow)
                return res.fs, res.node

            def walked():
                return fs._walk(path, follow_last=follow)[:2]

            assert _outcome(mapped) == _outcome(walked), \
                (context, path, follow)


def op_script(seed: int, n_ops: int = 120):
    rng = random.Random(seed)
    ops = []
    paths = DIRS + ["/t"]
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.12:
            ops.append(("mkdir", rng.choice(DIRS)))
        elif r < 0.30:
            text = " ".join(rng.choices(WORDS, k=rng.randint(2, 5))) + "\n"
            ops.append(("write", rng.choice(paths), rng.choice(FILES), text))
        elif r < 0.42:
            ops.append(("mvdir", rng.choice(DIRS), rng.choice(DIRS)))
        elif r < 0.52:
            ops.append(("mvfile", rng.choice(paths), rng.choice(FILES),
                        rng.choice(paths), rng.choice(FILES)))
        elif r < 0.58:
            ops.append(("rmdir", rng.choice(DIRS)))
        elif r < 0.64:
            ops.append(("rm", rng.choice(paths), rng.choice(FILES)))
        elif r < 0.78:
            ops.append(("stat", rng.choice(paths), rng.choice(FILES)))
        elif r < 0.86:
            ops.append(("listdir", rng.choice(paths)))
        elif r < 0.92:
            ops.append(("query", rng.choice(QUERIES)))
        else:
            ops.append(("ssync",))
    ops.append(("ssync",))
    ops.append(("query", QUERIES[0]))
    return ops


def apply_op(hac: HacFileSystem, op):
    """Run one scripted op, guarded so that scripts stay valid on any
    tree state.  Returns the observation (or None for mutators)."""
    kind = op[0]
    if kind == "mkdir":
        path = op[1]
        parent = path.rsplit("/", 1)[0] or "/"
        if not hac.exists(path) and hac.isdir(parent):
            hac.mkdir(path)
    elif kind == "write":
        if hac.isdir(op[1]) and not hac.isdir(f"{op[1]}/{op[2]}"):
            hac.write_file(f"{op[1]}/{op[2]}", op[3].encode())
            hac.clock.tick()
    elif kind == "mvdir":
        src, dst = op[1], op[2]
        dparent = dst.rsplit("/", 1)[0] or "/"
        if (src != dst and hac.isdir(src) and not hac.exists(dst)
                and hac.isdir(dparent)
                and not dst.startswith(src + "/")
                and not dparent.startswith(src)):
            hac.rename(src, dst)
    elif kind == "mvfile":
        src, dst = f"{op[1]}/{op[2]}", f"{op[3]}/{op[4]}"
        if (src != dst and hac.isfile(src) and not hac.exists(dst)
                and hac.isdir(op[3])):
            hac.rename(src, dst)
    elif kind == "rmdir":
        path = op[1]
        if hac.isdir(path) and not hac.listdir(path):
            hac.rmdir(path)
    elif kind == "rm":
        path = f"{op[1]}/{op[2]}"
        if hac.isfile(path):
            hac.unlink(path)
    elif kind == "stat":
        path = f"{op[1]}/{op[2]}"
        if hac.isfile(path):
            return ("file", hac.read_file(path))
        return ("nofile", hac.exists(path))
    elif kind == "listdir":
        if hac.isdir(op[1]):
            return sorted(hac.listdir(op[1]))
        return None
    elif kind == "query":
        ast = parse_query(op[1], resolve_dir=hac.dirmap.uid_of)
        return hac.engine.search(ast).to_bytes()
    elif kind == "ssync":
        hac.clock.tick()
        hac.ssync("/")
    return None


@pytest.mark.parametrize("seed",
                         [BASE_SEED, BASE_SEED + 1, BASE_SEED + 2])
def test_map_world_is_bit_identical_to_walk_world(seed):
    hac = build_world()
    counters = hac.counters
    for op in op_script(seed):
        apply_op(hac, op)
        assert_map_agrees_with_walk(hac.fs, (seed, op))

    # the map actually served the hot path, and coherence events fired
    assert counters.get("pathmap.hit") > 0, seed
    assert counters.get("pathmap.invalidated") > 0, seed
    # folding the tree into the map sheds walk steps: a warmed sweep of
    # the pool through resolve() walks fewer components than walking it
    for path in POOL:
        hac.exists(path)
    steps0 = counters.get("vfs.walk_steps")
    for path in POOL:
        hac.exists(path)
    mapped_steps = counters.get("vfs.walk_steps") - steps0
    for path in POOL:
        try:
            hac.fs._walk(path, follow_last=True)
        except VfsError:
            pass
    walked_steps = counters.get("vfs.walk_steps") - steps0 - mapped_steps
    assert mapped_steps < walked_steps, seed


@pytest.mark.parametrize("seed", [BASE_SEED, BASE_SEED + 1])
def test_crash_recovery_converges_identically(seed):
    """Crash inside a journaled ``smkdir``, restore, and require the map
    to agree with the walk on the recovered tree — recovery's tree undo
    goes through the same invalidating fs operations, so the map never
    outlives a rolled-back resolution."""
    hac = build_world()
    for op in op_script(seed)[:60]:
        apply_op(hac, op)
    for path in POOL:                      # warm the map before the crash
        hac.exists(path)
    dev = hac.fs.device
    dev.set_fault_plan(
        FaultPlan(crash_at=dev.record_write_index + 2 + seed % 3))
    with pytest.raises(DeviceCrashed):
        hac.smkdir("/ridge", "ridge")
        hac.ssync("/")
    revived = HacFileSystem.restore(hac.fs)
    assert [f for f in revived.fsck() if f.severity == "error"] == [], seed
    assert_map_agrees_with_walk(revived.fs, seed)
    for op in op_script(seed + 100)[:40]:  # and it stays coherent after
        apply_op(revived, op)
        assert_map_agrees_with_walk(revived.fs, (seed, op))

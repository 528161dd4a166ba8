"""Ablation N — folding the tree into a map, and publishing is not persisting.

Two storage-plane claims from DESIGN.md §3i, on deterministic counters:

* **Path map**: resolving a deep path by component walk
  (``FileSystem._walk``, the map's miss path and the reference here)
  costs one step per component; ``resolve()`` answers warmed resolutions
  with a single hash probe on the same tree.  Counted in
  ``vfs.walk_steps``.
* **Publishing is not persisting**: one-document drains write the same
  device records with a snapshot replica attached as without one, and
  no segment below the seal threshold.  Counted in ``blockdev.write_ops``
  and ``segments.seals`` / ``segments.compactions``.

Recovery by segment merge against a rebuild is Ablation G's, in
``test_recovery.py``.
"""

from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem

DEPTH = 8
FANOUT = 3
ROUNDS = 5


def build_deep_fs():
    """A depth-8 tree with files at every level — the worst case for
    component-wise ``namei`` and the best for the map."""
    fs = FileSystem()
    leaves = []
    stack = [("", 0)]
    while stack:
        prefix, depth = stack.pop()
        if depth == DEPTH:
            continue
        for i in range(FANOUT if depth < 3 else 1):
            path = f"{prefix}/d{depth}_{i}"
            fs.mkdir(path)
            fpath = f"{path}/f.txt"
            fs.write_file(fpath, b"payload")
            leaves.append(fpath)
            stack.append((path, depth + 1))
    return fs, leaves


def resolve_rounds(resolve, leaves):
    for _ in range(ROUNDS):
        for path in leaves:
            resolve(path)


def test_map_vs_walk_resolution():
    fs, leaves = build_deep_fs()

    def walk(path):
        return fs._walk(path, follow_last=True)

    counted = {}
    for label, resolve in (("walk", walk), ("map", fs.resolve)):
        resolve_rounds(resolve, leaves)  # warm both the same way
        steps = fs.counters.get("vfs.walk_steps")
        hits = fs.counters.get("pathmap.hit")
        resolve_rounds(resolve, leaves)
        counted[label] = (fs.counters.get("vfs.walk_steps") - steps,
                          fs.counters.get("pathmap.hit") - hits)
    assert all(fs.resolve(p).node is walk(p)[1] for p in leaves)
    walk_steps, _ = counted["walk"]
    map_steps, map_hits = counted["map"]

    # the contract: a warmed map resolves without re-walking — at least
    # 2x fewer steps than namei (in practice it is ~steps-per-path x)
    assert map_steps * 2 <= walk_steps, (
        f"path map shed too few walk steps: {map_steps} vs {walk_steps}")
    assert map_hits >= len(leaves) * ROUNDS, "warmed resolutions missed the map"


DRAINS = 20
COUNTED = ("blockdev.write_ops", "segments.seals", "segments.compactions")


def drain_counts(with_replica: bool):
    """Deltas of :data:`COUNTED` over ``DRAINS`` one-document drains of
    distinct files, with or without a snapshot replica attached."""
    hac = HacFileSystem()
    hac.makedirs("/inbox")
    hac.write_file("/inbox/seed.txt", b"fingerprint baseline\n")
    hac.clock.tick()
    hac.ssync("/")
    hac.watch("/inbox")
    hac.maintenance.set_mode("batched")
    if with_replica:
        hac.engine.attach_replica()
    before = [hac.counters.get(name) for name in COUNTED]
    for i in range(DRAINS):
        hac.clock.tick()
        hac.write_file(f"/inbox/m{i}.txt", b"fingerprint lead %d\n" % i)
        hac.maintenance.drain()
    return {name: hac.counters.get(name) - was
            for name, was in zip(COUNTED, before)}


def test_replica_does_not_change_what_drains_persist():
    plain, replicated = drain_counts(False), drain_counts(True)
    # a snapshot reader must not change what drains persist: no seal on
    # publish, so no segment record and no compaction below the threshold
    assert replicated == plain, (replicated, plain)
    assert plain["segments.seals"] == plain["segments.compactions"] == 0

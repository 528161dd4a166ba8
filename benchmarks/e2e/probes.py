"""Adversarial tree shapes, timed untraced in a world of their own.

ROADMAP asks what a path index costs where *Reconstruct the Directories for
In-Memory File Systems* and Wellenzohn et al. say it degrades: a deep-skinny
chain, one flat directory with tens of thousands of entries, and a storm of
renames of a hot prefix.  The four numbers are ungated per-layer values; the
probe world has no semantic directories, so they measure the pathname layer
(``vfs.*`` behind the ``Tenant`` facade) and the CAS rebase, not the cascade.
They run apart from the workload worlds because 20 000 files under a tree
that ten semantic directories watch would cost minutes of cascade.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict

from repro.core.hacfs import HacFileSystem

pc = time.perf_counter

DEPTH = 48
FLAT = 20_000
STORM_FILES = 240
STORM_TRIPS = 8
BATCH = 1000
REPEATS = 7


def run(backend: str) -> Dict[str, float]:
    hac = HacFileSystem(backend=backend)
    hac.maintenance.set_mode("batched")
    tenant = hac.tenants.create("probe")

    deep = ""
    for level in range(DEPTH):
        deep += f"/d{level:02d}"
        tenant.mkdir(deep)
    leaf = deep + "/leaf.txt"
    tenant.write_file(leaf, b"deep leaf\n")
    tenant.mkdir("/flat")
    for i in range(FLAT):
        tenant.create(f"/flat/f{i:05d}")
    hot = []
    for i in range(STORM_FILES):
        parent = f"/hot/m{i % 6}/p{i % 4}"
        if i < 24:
            tenant.makedirs(parent)
        path = f"{parent}/unit{i:03d}.py"
        tenant.write_file(path, f"def unit{i}(): return {i}\n".encode())
        hot.append(path)
    hac.maintenance.drain()

    flat_names = [f"/flat/f{(i * 7919) % FLAT:05d}" for i in range(BATCH)]
    exists = tenant.exists

    def batch_us(paths) -> float:
        values = []
        for _ in range(REPEATS):
            t0 = pc()
            for p in paths:
                exists(p)
            values.append((pc() - t0) / len(paths) * 1e6)
        return statistics.median(values)

    out = {"vfs.namei_deep_us": batch_us([leaf] * BATCH),
           "vfs.namei_flat_us": batch_us(flat_names)}
    values = []
    for _ in range(REPEATS):
        t0 = pc()
        listing = tenant.listdir("/flat")
        values.append((pc() - t0) * 1e3)
    assert len(listing) == FLAT
    out["vfs.listdir_flat_ms"] = statistics.median(values)

    values = []
    here, there = "/hot", "/hot_moved"
    for _trip in range(STORM_TRIPS):
        for old, new in ((here, there), (there, here)):
            for p in hot[::5]:          # keep the prefix hot in the path map
                exists(p if old == here else there + p[len(here):])
            t0 = pc()
            tenant.rename(old, new)
            values.append((pc() - t0) * 1e3)
    out["vfs.pathmap.rebase_storm_ms"] = statistics.median(values)
    return out

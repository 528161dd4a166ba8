"""Convergence-window invariants for the chaos soak.

After every window the orchestrator *heals* the chaos world (lifts every
armed fault, revives shards, un-lags replicas, waits out breaker
cooldowns, drains and republishes) and then *checks* a fixed list of
invariants.  Healing is part of the contract being tested: the system
must converge to a clean state under its own mechanisms — breakers
re-close by probing, stale directories re-sync, the fsck audit comes
back clean — once the faults stop, with no state surgery beyond turning
the fault injectors off.

The cross-world invariant is a canonical **state digest**: a SHA-256
over everything two correct worlds must agree on — the file tree (paths,
content hashes, symlink targets), semantic-directory link
classifications, prohibitions, and the strong answers to the probe-query
panel.  Doc ids, mtimes, snapshot versions, and clock values are
excluded by construction: faults legitimately burn reserved ids and
skew virtual time without making either world wrong.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence

from repro.cluster.coordinator import BREAKER_COOLDOWN

#: virtual seconds heal() waits out — past every breaker cooldown in play
HEAL_WAIT = BREAKER_COOLDOWN + 1.0


def heal(world) -> None:
    """Lift every fault injector and let the world reconverge.

    Two sync rounds on purpose: the first runs with breakers half-open
    (its successes re-close them and clear staleness marks), the second
    runs against an all-closed world and republishes, so snapshot reads
    answer from converged state.
    """
    world.device.clear_faults()
    hac = world.hac
    if world.k > 0:
        for sid in sorted(hac.engine.shards):
            hac.engine.revive_shard(sid)
            hac.engine.set_replica_lag(sid, 0)
    else:
        for replica in hac.engine.snapshot_info()["replicas"]:
            hac.engine.set_replica_lag(str(replica["id"]), 0)
    transport = world.service.transport
    transport.fail_on = None
    transport.failure_rate = 0.0
    world.clock.advance(HEAL_WAIT)
    for _ in range(2):
        hac.maintenance.drain(reason="heal")
        world.shell.ssync("/")
    hac.maintenance.publish()


# ---------------------------------------------------------------------------
# the canonical state digest
# ---------------------------------------------------------------------------


def tree_of(surface) -> Dict[str, str]:
    """``{path: "dir" | "link:<target>" | "file:<sha256>"}`` for every
    entry below ``/`` of *surface* — a :class:`FileSystem` or a
    :class:`~repro.core.tenant.Tenant` (whose paths are tenant-relative)."""
    out: Dict[str, str] = {}
    stack = ["/"]
    while stack:
        path = stack.pop()
        for name in sorted(surface.listdir(path)):
            child = (path.rstrip("/") or "") + "/" + name
            st = surface.lstat(child)
            if st.is_dir:
                out[child] = "dir"
                stack.append(child)
            elif st.is_symlink:
                out[child] = "link:" + surface.readlink(child)
            else:
                digest = hashlib.sha256(surface.read_file(child)).hexdigest()
                out[child] = "file:" + digest
    return out


def resolve_display(world, display: str) -> str:
    """Normalise a link-target display for cross-world comparison.

    Local targets display as ``<fsid>:ino<N>`` — an identity that
    legitimately differs between two worlds (fs ids are per-instance,
    and rolled-back creates burn inode numbers) — so they are resolved
    to the file's *current path*.  Remote displays
    (``namespace://doc``) are already world-independent.
    """
    fs = world.hac.fs
    prefix = f"{fs.fsid}:ino"
    if display.startswith(prefix):
        path = fs.path_of_ino(int(display[len(prefix):]))
        if path is not None:
            return path
    return display


def _semdirs(world,
             paths: Optional[Sequence[str]] = None
             ) -> Dict[str, Dict[str, object]]:
    hac = world.hac
    out: Dict[str, Dict[str, object]] = {}
    if paths is None:
        paths = sorted(hac.semantic_dirs())
    for path in paths:
        out[path] = {
            "links": {name: [cls, resolve_display(world, display)]
                      for name, (cls, display)
                      in sorted(hac.links(path).items())},
            "prohibited": [resolve_display(world, d)
                           for d in hac.prohibited(path)],
        }
    return out


def state_digest(world, queries: Sequence[str] = ()) -> str:
    """SHA-256 of the world's canonical observable state.

    A semantic directory's links count by class and target, not by name.
    A link is named after its file's basename when it is made, so a file
    written and then renamed is linked under its old name where the write
    was indexed at once, and under its new one where a batched drain
    indexed it after the rename — both worlds are correct."""
    semdirs = _semdirs(world)
    tree = tree_of(world.hac.fs)
    for path, sd in semdirs.items():
        for name in sd["links"]:
            tree.pop(f"{path}/{name}", None)
        sd["links"] = sorted(sd["links"].values())
    obj = {
        "tree": tree,
        "semdirs": semdirs,
        "queries": {q: world.shell.glimpse(q, consistency="strong")
                    for q in queries},
    }
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the invariant list
# ---------------------------------------------------------------------------


def check_invariants(world, oracle=None,
                     queries: Sequence[str] = ()) -> List[str]:
    """Run the full invariant list against a *healed* world; returns
    human-readable violations (empty = all hold).

    1. ``hac.health()`` converges: no directory carries staleness.
    2. Every circuit breaker re-closed.
    3. No shard is down or breaker-open.
    4. The fsck audit reports no error-severity finding.
    5. Strong and snapshot answers agree on the probe panel.
    6. The admission gate reports ``healthy`` (when enabled).
    7. The state digest matches the fault-free oracle's (when given).
    """
    violations: List[str] = []
    health = world.hac.health()
    for path, info in sorted(health["directories"].items()):
        violations.append(f"directory {path} still degraded: {info}")
    for name, desc in sorted(health["breakers"].items()):
        if desc["state"] != "closed":
            violations.append(f"breaker {name} stuck {desc['state']}")
    for sid, state in sorted(health["shards"].items()):
        if state in ("down", "open", "half_open"):
            violations.append(f"shard {sid} unhealthy: {state}")
    for finding in world.hac.fsck(repair=False):
        if finding.severity == "error":
            violations.append(f"fsck error: {finding}")
    for query in queries:
        strong = world.shell.glimpse(query, consistency="strong")
        snapshot = world.shell.glimpse(query, consistency="snapshot")
        if strong != snapshot:
            violations.append(
                f"probe {query!r}: strong {strong} != snapshot {snapshot}")
    admission = world.hac.admission
    if admission.enabled and admission.state() != "healthy":
        violations.append(
            f"admission still {admission.state()} after heal: "
            f"{admission.degraded_backends()}")
    if oracle is not None:
        ours = state_digest(world, queries=queries)
        theirs = state_digest(oracle, queries=queries)
        if ours != theirs:
            violations.append(
                f"state digest diverged from oracle: {ours[:16]} != "
                f"{theirs[:16]}")
    return violations

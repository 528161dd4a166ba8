"""The twin-world soak: one seeded fault schedule, one op mix, one digest.

Two :class:`World` instances run one seeded, model-driven op stream.  The
*faulted* world is batched, has the admission gate on, and executes a
fault schedule (:func:`schedule`); the *oracle* is eager and never sees a
fault.  Ops go through a **surface** — the host :class:`HacFileSystem`, or
a :class:`~repro.core.tenant.Tenant`, which is the same API seen through
a path prefix — so one loop serves two modes:

* **shared** — every op runs on the host surface under the schedule's
  faults and is mirrored to the oracle when it took effect.  At every
  convergence window both worlds heal and :func:`check_invariants` must
  find nothing, down to a digest equal to the oracle's;
* **tenancy** — the faulted world hosts tenants ``alpha`` and ``beta``,
  the oracle only ``beta``.  Faults are armed around ``alpha``'s op of
  each step and lifted before ``beta``'s, which is mirrored; beta's op
  must never fail, its strong answers must equal the oracle's, and the
  windows digest beta's surface.  Whatever alpha's faults do, beta must
  end as if alpha never existed.

Ops are generated from a **model** of each actor's files, never from live
world state.  A faulted op that raises may still have had its effect (a
crash froze the device mid-op, a drain failed after the write landed), so
the runner recovers when the device is frozen and then probes the
post-state: the op is mirrored, and the model updated, exactly when its
effect survived.  Clocks, doc ids and mtimes may diverge between the
worlds; the digest leaves them out by construction.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cba.backend import open_backend
from repro.cluster.coordinator import BREAKER_COOLDOWN, BREAKER_THRESHOLD
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.core.tenant import Tenant
from repro.errors import AdmissionRejected, DeviceCrashed, ReproError
from repro.remote.rpc import CircuitBreaker, RpcTransport
from repro.remote.searchsvc import SimulatedSearchService
from repro.util.clock import VirtualClock
from repro.util.stats import Counters
from repro.vfs.blockdev import FaultPlan
from repro.vfs.filesystem import FileSystem
from repro.workloads.mailgen import MailGenerator

#: every fault kind, in the order the events of one step fire (kills
#: before revivals, faults armed before anything that might consume them)
KIND_ORDER = ("kill_shard", "remote_down", "lag", "enospc", "tear",
              "crash", "revive_shard", "remote_up")

#: the query panel every digest and invariant check evaluates
PROBE_QUERIES = ("fingerprint", "project", "fingerprint AND project",
                 "budget OR deadline")

#: steps between two convergence windows (the last step closes one too)
WINDOW = 20

#: virtual seconds a heal waits out: past every breaker cooldown in play
HEAL_WAIT = BREAKER_COOLDOWN + 1.0

_NOTES = {
    "/notes/fp-design.txt": "design notes for the fingerprint matcher "
                            "minutiae extraction and ridge counting",
    "/notes/budget.txt": "project budget draft numbers for the deadline",
    "/notes/recipe.txt": "banana bread recipe with walnuts",
}

_REMOTE_DOCS = {
    "fp-survey": "survey of fingerprint recognition methods",
    "fp-sensors": "capacitive fingerprint sensors in practice",
    "nn-paper": "convolutional networks for images",
}

#: the op mix (weights); reads dominate like a mail/Andrew day would
_OP_MIX = (("write", 5), ("rewrite", 4), ("delete", 2), ("rename", 2),
           ("pin", 1), ("read_strong", 5), ("read_snapshot", 4), ("tick", 3))

_MUTATIONS = ("write", "delete", "rename", "pin")


def schedule(seed: int, steps: int, shards: Sequence[str] = (),
             faults: int = 1) -> List[Tuple[int, str, Dict]]:
    """Expand *seed* into ``(step, kind, args)`` fault events, each to fire
    before op *step*, ordered by step and then :data:`KIND_ORDER`.

    Every outage (a shard kill, the remote going down) schedules its own
    end a few steps later, so faults overlap but none is permanent.  The
    same arguments always give the same schedule.
    """
    if steps < 10:
        raise ValueError("a soak needs at least 10 steps")
    rng = random.Random(seed * 2654435761 % (2 ** 31) + steps)
    events: List[Tuple[int, str, Dict]] = []

    def outage(down: str, up: str, args: Dict) -> None:
        start = rng.randrange(1, max(2, steps - 6))
        events.append((start, down, args))
        events.append((min(steps - 1, start + rng.randrange(3, 9)), up, args))

    for shard in shards:
        outage("kill_shard", "revive_shard", {"shard": shard})
    outage("remote_down", "remote_up", {})
    for _ in range(faults):
        shard = rng.choice(list(shards)) if shards else None
        events.append((rng.randrange(1, steps), "lag",
                       {"shard": shard, "publishes": rng.randrange(1, 4)}))
        events.append((rng.randrange(1, steps), "enospc",
                       {"burst": rng.randrange(1, 4)}))
        for kind in ("tear", "crash"):
            events.append((rng.randrange(1, steps), kind,
                           {"offset": rng.randrange(0, 4)}))
    return sorted(events, key=lambda e: (e[0], KIND_ORDER.index(e[1])))


# ---------------------------------------------------------------------------
# the world
# ---------------------------------------------------------------------------


class World:
    """One HAC deployment the soak faults or leaves pristine.

    Without *tenants* the host is the one surface: it gets the corpus, a
    mounted remote name space under ``/lib``, and two semantic
    directories.  With *tenants* each tenant gets that corpus in its own
    namespace instead (a tenant cannot mount) and the host stays bare.

    :param k: search-cluster shards (0 = monolithic engine).
    :param batched: run the maintenance scheduler in batched mode.
    :param admission: enable the admission gate.
    """

    def __init__(self, k: int = 0, tenants: Sequence[str] = (),
                 batched: bool = False, admission: bool = False):
        self.k = k
        self.tenants = tuple(tenants)
        self.batched = batched
        self.admission = admission
        self.clock = VirtualClock()
        self.counters = Counters()
        self.backend = (open_backend({"kind": "cluster", "shards": k,
                                      "latency": 0.0}) if k else None)
        # a pinned fsid makes the soak reproducible across processes: doc
        # keys embed it, and a cluster hashes keys onto shards
        fs = FileSystem(name="hac", clock=self.clock,
                        counters=self.counters, fsid="hac#soak")
        self.hac = HacFileSystem(fs=fs, clock=self.clock,
                                 counters=self.counters, backend=self.backend)
        # the remote's breaker is set like a shard's, so one cooldown
        # heals every breaker in play
        self.service = SimulatedSearchService(
            "digilib", documents=dict(_REMOTE_DOCS),
            transport=RpcTransport(
                "digilib", clock=self.clock, latency=0.0,
                counters=self.counters,
                breaker=CircuitBreaker(failure_threshold=BREAKER_THRESHOLD,
                                       cooldown=BREAKER_COOLDOWN,
                                       counters=self.counters,
                                       name="digilib")))
        for name in self.tenants:
            # the noisy neighbour weighs four times its victim in a drain
            self.hac.tenants.create(
                name, quota=QuotaSpec(weight=4 if name == "alpha" else 1))
        for name in self.tenants or (None,):
            surface = self.surface(name)
            surface.makedirs("/notes")
            for path, text in sorted(_NOTES.items()):
                surface.write_file(path, text.encode("utf-8"))
            MailGenerator().populate(surface, "/mail", count=8)
        if not self.tenants:
            self.hac.makedirs("/lib")
        self._wire()
        for name in self.tenants or (None,):
            self.surface(name).smkdir("/q-fp", "fingerprint")
            self.surface(name).smkdir("/q-proj", "project")
        self.hac.ssync("/")
        self.hac.maintenance.publish()

    def _wire(self) -> None:
        """The in-memory wiring a restore drops, so :meth:`recover` redoes
        it: the remote mount, watches, scheduler mode and admission."""
        if not self.tenants:
            self.hac.smount("/lib", self.service)
            self.hac.watch("/mail")
            self.hac.watch("/notes")
        if self.batched:
            self.hac.maintenance.set_mode("batched")
        if self.admission:
            self.hac.admission.enable()

    def surface(self, tenant: Optional[str] = None):
        """The host, or tenant *tenant*'s facade (re-fetched: a recovery
        replaces the host and with it every facade)."""
        return self.hac if tenant is None else self.hac.tenants.get(tenant)

    @property
    def device(self):
        return self.hac.fs.device

    def shard_ids(self) -> List[str]:
        return sorted(self.hac.engine.shards) if self.k else []

    def recover(self) -> None:
        """The reboot: restore from the device records, re-wire, and
        reconverge."""
        self.hac = HacFileSystem.restore(self.hac.fs, clock=self.clock,
                                         counters=self.counters,
                                         backend=self.backend)
        self._wire()
        self.hac.ssync("/")
        self.hac.maintenance.publish()

    def lift(self) -> None:
        """Turn every fault injector off; nothing else."""
        self.device.clear_faults()
        engine = self.hac.engine
        if self.k:
            for sid in self.shard_ids():
                engine.revive_shard(sid)
                engine.set_replica_lag(sid, 0)
        else:
            for replica in engine.snapshot_info()["replicas"]:
                engine.set_replica_lag(str(replica["id"]), 0)
        self.service.transport.fail_on = None
        self.service.transport.failure_rate = 0.0

    def heal(self) -> None:
        """Lift every fault and let the world reconverge under its own
        mechanisms: breakers re-close by probing once their cooldown is
        past.  Two sync rounds on purpose — the first runs with breakers
        half-open (its successes re-close them), the second against an
        all-closed world — then a publish, so snapshot reads answer from
        the converged state."""
        self.lift()
        self.clock.advance(HEAL_WAIT)
        for _ in range(2):
            self.hac.maintenance.drain(reason="heal")
            self.hac.ssync("/")
        self.hac.maintenance.publish()


# ---------------------------------------------------------------------------
# the digest and the invariants
# ---------------------------------------------------------------------------


def _anchor(surface) -> Tuple[HacFileSystem, str, Optional[str]]:
    """``(host, path prefix, tenant name)`` behind *surface*."""
    if isinstance(surface, Tenant):
        return surface.manager.hacfs, surface.root, surface.name
    return surface, "", None


def _target(surface, display: str) -> str:
    """A link target display made comparable across worlds: a local
    ``<fsid>:ino<N>`` (fs ids are per instance, rolled-back creates burn
    inode numbers) becomes the file's current path on *surface*; a remote
    ``namespace://doc`` already is comparable."""
    hac, root, _name = _anchor(surface)
    prefix = f"{hac.fs.fsid}:ino"
    if display.startswith(prefix):
        path = hac.fs.path_of_ino(int(display[len(prefix):]))
        if path is not None:
            return path[len(root):] if path.startswith(root + "/") else path
    return display


def _tree(surface) -> Dict[str, str]:
    """``{path: "dir" | "link:<target>" | "file:<sha256>"}`` below ``/``."""
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
                out[child] = "file:" + hashlib.sha256(
                    surface.read_file(child)).hexdigest()
    return out


def digest(surface, queries: Sequence[str] = ()) -> str:
    """SHA-256 of *surface*'s canonical observable state: its tree, each
    semantic directory's links by class and resolved target and its
    prohibitions, and the strong answers to *queries*.  Paths are relative
    to the surface, so a tenant hashes the same in any host.

    A link counts by class and target, not by name: a link is named after
    its file's basename when it is made, so a file written and then
    renamed is linked under its old name where the write was indexed at
    once, and under its new one where a batched drain indexed it after
    the rename — both worlds are correct."""
    hac, root, tenant = _anchor(surface)
    hac.maintenance.barrier(tenant=tenant)
    tree = _tree(surface)
    semdirs = {}
    for host_path in sorted(hac.semantic_dirs()):
        if root and not host_path.startswith(root + "/"):
            continue
        path = host_path[len(root):]
        links = hac.links(host_path)
        for name in links:
            tree.pop(f"{path}/{name}", None)
        semdirs[path] = {
            "links": sorted([cls, _target(surface, display)]
                            for cls, display in links.values()),
            "prohibited": [_target(surface, d)
                           for d in hac.prohibited(host_path)],
        }
    blob = json.dumps({"tree": tree, "semdirs": semdirs,
                       "queries": {q: surface.glimpse(q) for q in queries}},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_invariants(world: World, oracle: Optional[World] = None,
                     tenant: Optional[str] = None) -> List[str]:
    """The invariant list for a *healed* world, checked over the surface
    of *tenant* (the host when None); returns the violations found.

    1. ``hac.health()`` converges: no directory carries staleness.
    2. Every circuit breaker re-closed.
    3. No shard is down or breaker-open.
    4. The fsck audit reports no error-severity finding.
    5. Strong and snapshot answers agree on the probe panel.
    6. The admission gate reports ``healthy`` (when enabled).
    7. The digest matches the oracle's (when given).
    """
    violations: List[str] = []
    hac = world.hac
    health = hac.health()
    for path, info in sorted(health["directories"].items()):
        violations.append(f"directory {path} still degraded: {info}")
    for name, desc in sorted(health["breakers"].items()):
        if desc["state"] != "closed":
            violations.append(f"breaker {name} stuck {desc['state']}")
    for sid, state in sorted(health["shards"].items()):
        if state in ("down", "open", "half_open"):
            violations.append(f"shard {sid} unhealthy: {state}")
    for finding in hac.fsck(repair=False):
        if finding.severity == "error":
            violations.append(f"fsck error: {finding}")
    surface = world.surface(tenant)
    for query in PROBE_QUERIES:
        strong = surface.glimpse(query, consistency="strong")
        snapshot = surface.glimpse(query, consistency="snapshot")
        if strong != snapshot:
            violations.append(
                f"probe {query!r}: strong {strong} != snapshot {snapshot}")
    if hac.admission.enabled and hac.admission.state() != "healthy":
        violations.append(
            f"admission still {hac.admission.state()} after heal: "
            f"{hac.admission.degraded_backends()}")
    if oracle is not None:
        ours = digest(surface, PROBE_QUERIES)
        theirs = digest(oracle.surface(tenant), PROBE_QUERIES)
        if ours != theirs:
            violations.append(f"digest diverged from the oracle's: "
                              f"{ours[:16]} != {theirs[:16]}")
    return violations


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


class _Model:
    """One actor's files as the op stream believes them to be."""

    def __init__(self):
        self.files: Dict[str, str] = {}
        self.pinned: set = set()

    def note(self, op: Dict[str, str]) -> None:
        kind = op["op"]
        if kind == "write":
            self.files[op["path"]] = op["text"]
        elif kind == "delete":
            self.files.pop(op["path"], None)
        elif kind == "rename":
            self.files[op["new"]] = self.files.pop(op["path"])
            if op["path"] in self.pinned:
                # the permanent link follows the file to its new path
                self.pinned.discard(op["path"])
                self.pinned.add(op["new"])
        elif kind == "pin":
            self.pinned.add(op["path"])


class Soak:
    """One seeded soak in *tenancy* or shared mode; :meth:`run` returns
    its report, reproducible bit for bit from ``(seed, k, steps,
    tenancy)``."""

    def __init__(self, seed: int = 0, k: int = 0, steps: int = 40,
                 tenancy: bool = False):
        self.seed = seed
        self.k = k
        self.steps = steps
        self.tenancy = tenancy
        self.faulted = World(k=k, tenants=("alpha", "beta") if tenancy
                             else (), batched=True, admission=True)
        self.oracle = World(tenants=("beta",) if tenancy else ())
        #: whose ops are faulted, and whose the windows digest
        self.noisy, self.observed = ("alpha", "beta") if tenancy \
            else (None, None)
        self.events = schedule(seed, steps, self.faulted.shard_ids(),
                               steps // 4 if tenancy else 1)
        self._rng = random.Random(seed * 7919 + 17)
        self._stats = self.faulted.counters.scoped("soak")
        self._models = {name: _Model() for name in {self.noisy,
                                                   self.observed}}
        self._names = 0
        self._ops = [op for op, weight in _OP_MIX for _ in range(weight)]
        self.violations: List[str] = []

    # -- faults ---------------------------------------------------------------

    def _fire(self, kind: str, args: Dict) -> None:
        world = self.faulted
        engine = world.hac.engine
        device = world.device
        self._stats.add(f"events.{kind}")
        if kind == "kill_shard":
            engine.kill_shard(args["shard"])
        elif kind == "revive_shard":
            engine.revive_shard(args["shard"])
        elif kind in ("remote_down", "remote_up"):
            world.service.transport.fail_on = None
            world.service.transport.failure_rate = float(kind == "remote_down")
        elif kind == "lag":
            if args["shard"]:
                engine.set_replica_lag(args["shard"], args["publishes"])
            else:
                for replica in engine.snapshot_info()["replicas"]:
                    engine.set_replica_lag(str(replica["id"]),
                                           args["publishes"])
        else:
            # merge into whatever plan is armed already
            plan = device.fault_plan or FaultPlan()
            base = device.record_write_index
            enospc = set(plan.enospc_at)
            if kind == "enospc":
                enospc |= set(range(base, base + args["burst"]))
            device.set_fault_plan(FaultPlan(
                crash_at=base + args["offset"] if kind == "crash"
                else plan.crash_at,
                tear_at=base + args["offset"] if kind == "tear"
                else plan.tear_at,
                enospc_at=enospc))

    # -- the op stream: decided by the rng and the model alone ----------------

    def _pick(self, model: _Model) -> Dict[str, str]:
        rng = self._rng
        op = rng.choice(self._ops)
        unpinned = sorted(set(model.files) - model.pinned)
        if op == "rewrite" and not model.files:
            op = "write"
        if op in ("delete", "rename", "pin") and not unpinned:
            op = "write"
        if op in ("write", "rewrite"):
            if op == "rewrite":
                path = rng.choice(sorted(model.files))
            else:
                self._names += 1
                root = rng.choice(("/mail", "/notes"))
                path = f"{root}/w{self._names:04d}.txt"
            words = [rng.choice(("fingerprint", "project", "budget",
                                 "deadline", "lunch")) for _ in range(3)]
            return {"op": "write", "path": path,
                    "text": "From: soak\nSubject: %s soak\n\nupdate about "
                            "the %s\n" % (words[0], " and the ".join(words))}
        if op == "rename":
            path = rng.choice(unpinned)
            self._names += 1
            return {"op": "rename", "path": path, "new": "%s/r%04d.txt" % (
                path.rsplit("/", 1)[0], self._names)}
        if op in ("delete", "pin"):
            return {"op": op, "path": rng.choice(unpinned)}
        if op.startswith("read"):
            return {"op": "read", "consistency": op[5:],
                    "query": rng.choice(PROBE_QUERIES)}
        return {"op": "tick"}

    @staticmethod
    def _link_for(surface, target: str) -> Optional[str]:
        """The ``/q-fp`` link pointing at *target*, when the membership
        holds it (both worlds ``ssync`` it first, so the answer is
        deterministic)."""
        for name, (_cls, display) in sorted(surface.links("/q-fp").items()):
            if _target(surface, display) == target:
                return name
        return None

    def _apply(self, world: World, actor: Optional[str],
               op: Dict[str, str]):
        """Run *op* on *actor*'s surface of *world*; returns a read's
        answer, else whether the op had its effect (a pin misses when
        degraded evaluation left its target out)."""
        surface = world.surface(actor)
        kind = op["op"]
        if kind == "write":
            surface.write_file(op["path"], op["text"].encode("utf-8"))
        elif kind == "delete":
            surface.unlink(op["path"])
        elif kind == "rename":
            surface.rename(op["path"], op["new"])
        elif kind == "pin":
            surface.ssync("/q-fp")
            name = self._link_for(surface, op["path"])
            if name is None:
                return False
            surface.make_permanent(f"/q-fp/{name}")
        elif kind == "read":
            return surface.glimpse(op["query"],
                                   consistency=op["consistency"])
        else:
            world.clock.advance(1.0)
            world.hac.maintenance.drain(reason="soak_tick", tenant=actor)
        return True

    def _survived(self, actor: Optional[str], op: Dict[str, str]) -> bool:
        """Did *op*'s effect survive into the faulted world's post-state?"""
        surface = self.faulted.surface(actor)
        kind = op["op"]
        if kind == "write":
            return surface.isfile(op["path"]) and surface.read_file(
                op["path"]) == op["text"].encode("utf-8")
        if kind == "delete":
            return not surface.exists(op["path"], follow=False)
        if kind == "rename":
            return surface.exists(op["new"], follow=False) and \
                not surface.exists(op["path"], follow=False)
        if kind == "pin":
            name = self._link_for(surface, op["path"])
            return name is not None and \
                surface.links("/q-fp")[name][0] == "permanent"
        return False

    def _act(self, actor: Optional[str]) -> None:
        """One op of *actor*'s on the faulted world, mirrored to the
        oracle when it took effect and the oracle hosts the actor."""
        model = self._models[actor]
        op = self._pick(model)
        kind = op["op"]
        clean = actor != self.noisy
        raised = None
        try:
            result = self._apply(self.faulted, actor, op)
            applied = kind in _MUTATIONS and result is True
            self._stats.add("applied" if result is not False else "missed")
        except DeviceCrashed as exc:
            raised = exc
            self._stats.add("crashes_hit")
            self.faulted.recover()
            self._stats.add("recoveries")
        except AdmissionRejected as exc:
            raised = exc
            self._stats.add("shed")
        except ReproError as exc:
            raised = exc
            self._stats.add("failed")
        if raised is not None:
            applied = kind in _MUTATIONS and self._survived(actor, op)
            if clean:
                self.violations.append(
                    f"{actor} {kind} failed with faults lifted: {raised!r}")
        if kind == "read":
            self._stats.add(f"reads_{op['consistency']}")
            if raised is not None:
                # snapshot reads are in-process: they must never fail,
                # whatever is on fire
                self._stats.add(f"reads_{op['consistency']}_failed")
        mirrored = actor is None or actor in self.oracle.tenants
        if kind == "tick" and mirrored:
            # virtual time moves in lockstep even when the faulted tick
            # died mid-drain
            self._apply(self.oracle, actor, op)
        elif kind == "read" and clean and raised is None and \
                op["consistency"] == "strong":
            theirs = self._apply(self.oracle, actor, op)
            if result != theirs:
                self.violations.append(f"{actor} read {op['query']!r}: "
                                       f"{result} != oracle {theirs}")
        elif kind in _MUTATIONS:
            if applied:
                if mirrored:
                    self._apply(self.oracle, actor, op)
                model.note(op)
            else:
                self._stats.add("dropped_mutations")

    def run(self) -> Dict[str, object]:
        """Execute the soak; returns :meth:`report`."""
        events = list(self.events)
        for step in range(self.steps):
            while events and events[0][0] == step:
                _step, kind, args = events.pop(0)
                self._fire(kind, args)
            self._act(self.noisy)
            if self.tenancy:
                # the clean actor acts with every fault lifted; one armed
                # that the noisy op did not reach is dropped
                self.faulted.lift()
                self._act(self.observed)
            self._stats.add("steps")
            if (step + 1) % WINDOW == 0 or step == self.steps - 1:
                self.faulted.heal()
                self.oracle.heal()
                self._stats.add("windows")
                self.violations.extend(
                    f"step {step + 1}: {v}" for v in check_invariants(
                        self.faulted, self.oracle, self.observed))
        return self.report()

    def report(self) -> Dict[str, object]:
        get = self._stats.get
        counts = {name: int(get(name)) for name in (
            "steps", "windows", "applied", "shed", "failed", "crashes_hit",
            "recoveries", "dropped_mutations", "reads_strong",
            "reads_snapshot", "reads_snapshot_failed")}
        return dict(
            seed=self.seed, k=self.k, tenancy=self.tenancy, **counts,
            fired={kind: int(get(f"events.{kind}")) for kind in KIND_ORDER
                   if get(f"events.{kind}")},
            admission=self.faulted.hac.admission.status(),
            violations=list(self.violations), ok=not self.violations)

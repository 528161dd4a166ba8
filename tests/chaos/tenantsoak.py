"""Tenant-isolation soak: chaos aimed at tenant A must not touch tenant B.

The multi-tenant contract is stronger than the chaos soak's convergence
story: it is not enough for the *whole world* to converge after faults — a tenant
that never saw a fault must end **bit-identical** to a twin world in
which the noisy neighbour does not exist at all.  This soak proves that:

* one shared :class:`~repro.core.hacfs.HacFileSystem` hosts two tenants —
  ``alpha`` runs the high-churn code-repo workload
  (:mod:`repro.workloads.coderepo`) with device faults (tears, ENOSPC
  bursts, crashes) armed *only around alpha's operations*;
* ``beta`` runs the digital-library workload
  (:mod:`repro.workloads.digilib`) with every fault injector lifted
  before each of its operations;
* a separate **oracle world** contains only ``beta`` and replays exactly
  beta's operation stream, fault-free;
* after healing, ``tenant_digest`` — a SHA-256 over beta's
  tenant-relative tree, its semantic-directory links, and its strong
  query answers — must match the oracle's digest exactly.

Crashes recover through :meth:`HacFileSystem.restore`, which re-attaches
the tenant table from its persisted record; the soak re-fetches the
facades afterwards, as a real client would.

Tests are the soak's only users, so it lives here rather than in ``src/``:
``tests/chaos/test_tenantsoak.py`` runs it short, and the CI ``tenant-*``
cells run ``run_soak`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Optional

from repro.errors import DeviceCrashed, ReproError
from repro.vfs.blockdev import FaultPlan
from repro.util.stats import Counters
from repro.util.clock import VirtualClock
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec
from repro.vfs.filesystem import FileSystem
from repro.chaos.invariants import tree_of
from repro.workloads.coderepo import CodeRepoGenerator
from repro.workloads.digilib import DigitalLibraryGenerator

#: strong-read panel hashed into the tenant digest (beta's subjects)
PROBE_TERMS = ("fingerprint", "retrieval", "indexing")


def tenant_digest(tenant) -> str:
    """SHA-256 of one tenant's canonical observable state.

    Everything is tenant-relative — paths come out of the facade, so two
    instances of the same namespace hosted in different worlds (or a
    world with different co-tenants) hash identically when and only when
    the tenant's own state matches.
    """
    tenant.barrier()
    tree = tree_of(tenant)
    semdirs = {}
    for path in [p for p in tree if tree[p] == "dir"] + ["/"]:
        if tenant.is_semantic(path):
            semdirs[path] = sorted(tenant.links(path))
    obj = {
        "tree": tree,
        "semdirs": semdirs,
        "queries": {t: tenant.glimpse(t) for t in PROBE_TERMS},
    }
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _World:
    """One HAC deployment hosting the soak's tenant(s)."""

    def __init__(self, k: int, with_alpha: bool, fsid: str):
        from repro.cba.backend import open_backend

        self.k = k
        self.clock = VirtualClock()
        self.counters = Counters()
        self.backend = (open_backend({"kind": "cluster", "shards": k,
                                      "latency": 0.0}) if k > 0 else None)
        fs = FileSystem(name="hac", clock=self.clock,
                        counters=self.counters, fsid=fsid)
        self.hac = HacFileSystem(fs=fs, clock=self.clock,
                                 counters=self.counters,
                                 backend=self.backend)
        self.hac.maintenance.set_mode("batched")
        if with_alpha:
            self.hac.tenants.create("alpha", quota=QuotaSpec(weight=4))
        self.hac.tenants.create("beta", quota=QuotaSpec(weight=1))

    @property
    def device(self):
        return self.hac.fs.device

    def tenant(self, name: str):
        return self.hac.tenants.get(name)

    def recover(self) -> None:
        self.hac = HacFileSystem.restore(self.hac.fs, clock=self.clock,
                                         counters=self.counters,
                                         backend=self.backend)
        self.hac.maintenance.set_mode("batched")

    def heal(self) -> None:
        self.device.clear_faults()
        if self.k > 0:
            for sid in sorted(self.hac.engine.shards):
                self.hac.engine.revive_shard(sid)
        self.hac.maintenance.drain(reason="heal")
        self.hac.ssync("/")
        self.hac.maintenance.publish()


class TenantIsolationSoak:
    """One seeded run of the two-tenant isolation soak."""

    def __init__(self, seed: int = 0, k: int = 0, steps: int = 30):
        self.seed = seed
        self.k = k
        self.steps = steps
        self.world = _World(k=k, with_alpha=True, fsid="hac#tsoak")
        self.oracle = _World(k=0, with_alpha=False, fsid="hac#tsoak")
        self._rng = random.Random(seed * 7919 + 29)
        self._stats = self.world.counters.scoped("tenantsoak")
        self.violations: List[str] = []
        self._alpha_gen = CodeRepoGenerator(seed=seed + 1)
        self._beta_gen = DigitalLibraryGenerator(seed=seed + 2)
        self._alpha_paths: List[str] = []
        self._beta_count = 0
        self._beta_queries = 0

    # -- fault arming (alpha-only windows) ----------------------------------

    def _arm_fault(self) -> None:
        device = self.world.device
        base = device.record_write_index
        kind = self._rng.choice(("tear", "enospc", "crash", "none", "none"))
        self._stats.add(f"faults.{kind}")
        if kind == "tear":
            device.set_fault_plan(FaultPlan(
                tear_at=base + self._rng.randrange(1, 6)))
        elif kind == "enospc":
            start = base + self._rng.randrange(1, 4)
            device.set_fault_plan(FaultPlan(
                enospc_at=set(range(start, start + self._rng.randrange(1, 4)))))
        elif kind == "crash":
            device.set_fault_plan(FaultPlan(
                crash_at=base + self._rng.randrange(1, 8)))
        if self.k > 0 and self._rng.random() < 0.3:
            victim = self._rng.choice(sorted(self.world.hac.engine.shards))
            self.world.hac.engine.kill_shard(victim)

    # -- per-tenant op streams ----------------------------------------------

    def _alpha_burst(self) -> None:
        """A few churn ops against alpha under armed faults."""
        alpha = self.world.tenant("alpha")
        if not self._alpha_paths:
            try:
                self._alpha_paths = self._alpha_gen.populate(alpha, count=12)
            except DeviceCrashed:
                self._recover()
                return
            except ReproError:
                self._stats.add("alpha_failed")
                return
        for _ in range(self._rng.randrange(1, 4)):
            try:
                self._alpha_gen.churn(alpha, self._alpha_paths, steps=1)
                self._stats.add("alpha_applied")
            except DeviceCrashed:
                self._recover()
                return
            except ReproError:
                # sheds / ENOSPC / degraded evaluation: alpha may lose work,
                # the churn path list can drift from the tree — irrelevant,
                # only beta's fate is under test
                self._stats.add("alpha_failed")

    def _beta_op(self, step: int) -> None:
        """One fault-free library op, mirrored into the oracle.

        Every injector is lifted first — device fault plans and killed
        shards alike: the contract under test is isolation from the noisy
        *tenant*, so shared-infrastructure faults must not be in play
        when beta acts."""
        self.world.device.clear_faults()
        if self.k > 0:
            for sid in sorted(self.world.hac.engine.shards):
                self.world.hac.engine.revive_shard(sid)
        beta = self.world.tenant("beta")
        twin = self.oracle.tenant("beta")
        if step == 0:
            for t in (beta, twin):
                t.smkdir("/q", "retrieval")
        if self._rng.random() < 0.5 or self._beta_count == 0:
            index = self._beta_count
            self._beta_count += 1
            path = f"/stacks/vol{index:04d}.txt"
            data = self._beta_gen.render(index).encode("utf-8")
            for t in (beta, twin):
                if not t.isdir("/stacks"):
                    t.makedirs("/stacks")
                t.write_file(path, data)
        else:
            term = self._beta_gen.query_stream(1, offset=self._beta_queries)[0]
            self._beta_queries += 1
            ours = beta.glimpse(term)
            theirs = twin.glimpse(term)
            if ours != theirs:
                self.violations.append(
                    f"step {step}: beta query {term!r} diverged: "
                    f"{ours} != {theirs}")
        self._stats.add("beta_applied")
        self.oracle.clock.advance(1.0)
        self.world.clock.advance(1.0)

    def _recover(self) -> None:
        self._stats.add("crashes_hit")
        self.world.recover()
        self._stats.add("recoveries")
        # the facade list survives on the manager; churn path hints may
        # now name rolled-back files, which churn treats as failures

    # -- the loop ------------------------------------------------------------

    def run(self) -> Dict[str, object]:
        for step in range(self.steps):
            self._arm_fault()
            self._alpha_burst()
            try:
                self._beta_op(step)
            except DeviceCrashed:  # must be impossible: faults were lifted
                self._recover()
                self.violations.append(
                    f"step {step}: beta op hit a device fault")
            except ReproError as exc:
                self.violations.append(
                    f"step {step}: beta op failed: {exc!r}")
            self._stats.add("steps")
        self.world.heal()
        self.oracle.heal()
        ours = tenant_digest(self.world.tenant("beta"))
        theirs = tenant_digest(self.oracle.tenant("beta"))
        if ours != theirs:
            self.violations.append(
                f"beta digest diverged from solo oracle: {ours[:16]} != "
                f"{theirs[:16]}")
        return self.report(ours, theirs)

    def report(self, ours: Optional[str] = None,
               theirs: Optional[str] = None) -> Dict[str, object]:
        get = self._stats.get
        return {
            "seed": self.seed,
            "k": self.k,
            "steps": int(get("steps")),
            "alpha_applied": int(get("alpha_applied")),
            "alpha_failed": int(get("alpha_failed")),
            "beta_applied": int(get("beta_applied")),
            "crashes_hit": int(get("crashes_hit")),
            "recoveries": int(get("recoveries")),
            "beta_digest": ours,
            "oracle_digest": theirs,
            "violations": list(self.violations),
            "ok": not self.violations,
        }


def run_soak(seed: int = 0, k: int = 0, steps: int = 30) -> Dict[str, object]:
    """Convenience entry point (the CI ``tenant-*`` sweep cells call this)."""
    return TenantIsolationSoak(seed=seed, k=k, steps=steps).run()

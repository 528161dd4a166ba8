"""Property: a tenant cannot observe its neighbours, byte for byte.

For any fuzzed interleaving of two tenants' operation streams over one
shared :class:`HacFileSystem`, every observable a tenant has — its tree,
its semantic-directory links, its strong query answers, and the final
``tenant_digest`` — must be identical to a *solo twin*: a world that
hosts only that tenant and replays only that tenant's stream.  The
shared world additionally takes host-namespace noise (files outside
``/tenants``) that must be equally invisible.

This is the fault-free half of the isolation story; the chaos half
(faults aimed at one tenant) lives in :mod:`repro.chaos.tenantsoak`.

``TENANT_SEED`` shifts the fuzz seeds and ``TENANT_K`` (>0) runs the
shared world over a sharded search cluster (the CI ``sweeps`` matrix
runs monolith and K=3; the solo twins always run the monolith, so K>0
also cross-checks cluster answers against monolith answers).
"""

import os
import random

from repro.chaos.tenantsoak import tenant_digest
from repro.core.hacfs import HacFileSystem
from repro.core.quota import QuotaSpec, recompute_usage

SEED = int(os.environ.get("TENANT_SEED", "0"))
K = int(os.environ.get("TENANT_K", "0"))

TERMS = ("fingerprint", "retrieval", "compression", "minutiae", "ridge",
         "indexing", "archive")
FILLER = ("survey report ledger corpus draft agenda recipe benchmark "
          "analysis snapshot hierarchy replica").split()


def make_world(names, k=0):
    backend = None
    if k > 0:
        from repro.cba.backend import open_backend

        backend = open_backend({"kind": "cluster", "shards": k,
                                "latency": 0.0})
    hac = HacFileSystem(backend=backend)
    hac.maintenance.set_mode("batched")
    tenants = {name: hac.tenants.create(name, quota=QuotaSpec(weight=w))
               for name, w in names}
    return hac, tenants


class TenantOpFuzzer:
    """One tenant's deterministic op stream, valid by construction.

    The fuzzer tracks the namespace it has built so every generated op is
    legal; the same op objects are applied to the shared world's facade
    and to the solo twin's, so any divergence is the *world's* fault."""

    def __init__(self, name, rng):
        self.name = name
        self.rng = rng
        self.files = []
        self.dirs = ["/"]
        self.counter = 0

    def _text(self):
        words = self.rng.choices(FILLER, k=self.rng.randint(3, 10))
        words.insert(self.rng.randrange(len(words) + 1),
                     self.rng.choice(TERMS))
        return " ".join(words).encode("utf-8")

    def next_op(self):
        self.counter += 1
        r = self.rng.random()
        if r < 0.30 or not self.files:
            d = self.rng.choice(self.dirs)
            path = (d.rstrip("/") or "") + f"/f{self.counter}.txt"
            self.files.append(path)
            return ("write", path, self._text())
        if r < 0.38:
            return ("write", self.rng.choice(self.files), self._text())
        if r < 0.44:
            # descriptor I/O: truncate-and-rewrite, append, or overwrite
            # in place from offset 0
            return ("fdwrite", self.rng.choice(self.files),
                    self.rng.choice(("w", "a", "rw")), self._text())
        if r < 0.47:
            return ("truncate", self.rng.choice(self.files),
                    self.rng.randrange(0, 40))
        if r < 0.50 and len(self.files) > 1:
            old, new = self.rng.sample(self.files, 2)
            self.files.remove(old)  # *new* keeps its name, gets old's bytes
            return ("rename", old, new)
        if r < 0.54:
            d = self.rng.choice(self.dirs)
            path = (d.rstrip("/") or "") + f"/d{self.counter}"
            self.dirs.append(path)
            return ("mkdir", path)
        if r < 0.58:
            old = self.rng.choice(self.files)
            new = old[:-4] + f"_r{self.counter}.txt"
            self.files[self.files.index(old)] = new
            return ("rename", old, new)
        if r < 0.66:
            victim = self.files.pop(self.rng.randrange(len(self.files)))
            return ("unlink", victim)
        if r < 0.72:
            path = f"/q{self.counter}"
            return ("smkdir", path, self.rng.choice(TERMS))
        if r < 0.80:
            return ("barrier",)
        return ("query", self.rng.choice(TERMS))


def apply_op(tenant, op):
    kind = op[0]
    if kind == "write":
        tenant.write_file(op[1], op[2])
    elif kind == "fdwrite":
        fd = tenant.open(op[1], op[2])
        tenant.write(fd, op[3])
        tenant.close(fd)
    elif kind == "truncate":
        tenant.truncate(op[1], op[2])
    elif kind == "mkdir":
        tenant.mkdir(op[1])
    elif kind == "rename":
        tenant.rename(op[1], op[2])
    elif kind == "unlink":
        tenant.unlink(op[1])
    elif kind == "smkdir":
        if not tenant.exists(op[1]):
            tenant.smkdir(op[1], op[2])
    elif kind == "barrier":
        tenant.barrier()
    elif kind == "query":
        return tenant.glimpse(op[1])
    return None


def test_fuzzed_interleavings_match_solo_twins():
    rng = random.Random(0x7E4A + SEED)
    for round_no in range(3):
        shared, tenants = make_world([("alpha", 3), ("beta", 1)], k=K)
        solos = {name: make_world([(name, 1)])[1][name]
                 for name in ("alpha", "beta")}
        fuzzers = {name: TenantOpFuzzer(
            name, random.Random(rng.randrange(1 << 30)))
            for name in ("alpha", "beta")}
        shared.watch("/")  # host noise flows through the shared pipeline
        shared.makedirs("/noise")
        for step in range(40):
            name = "alpha" if rng.random() < 0.6 else "beta"
            op = fuzzers[name].next_op()
            ours = apply_op(tenants[name], op)
            theirs = apply_op(solos[name], op)
            assert ours == theirs, \
                (round_no, step, name, op[0], ours, theirs)
            # the quota ledger is a measurement of the tree, on either host
            assert tenants[name].usage() == recompute_usage(
                shared.fs, tenants[name].root), (round_no, step, name, op)
            assert solos[name].usage() == recompute_usage(
                solos[name]._hacfs.fs, solos[name].root), (step, name, op)
            if rng.random() < 0.2:  # host-namespace noise, tenant-invisible
                shared.write_file(f"/noise/h{round_no}_{step}.txt",
                                  b"host fingerprint noise")
        for name in ("alpha", "beta"):
            assert tenant_digest(tenants[name]) == \
                tenant_digest(solos[name]), (round_no, name)


def test_neighbour_churn_never_leaks_into_query_answers():
    """Beta issues only queries while alpha churns hard; every answer
    beta sees must equal the answer from a world where alpha's churn
    never happened."""
    rng = random.Random(0xBEEF + SEED)
    shared, tenants = make_world([("alpha", 1), ("beta", 1)], k=K)
    solo_beta = make_world([("beta", 1)])[1]["beta"]
    alpha_fuzz = TenantOpFuzzer("alpha", random.Random(rng.randrange(1 << 30)))
    for t in (tenants["beta"], solo_beta):
        t.smkdir("/hits", "fingerprint")
        for i in range(4):
            t.write_file(f"/doc{i}.txt",
                         b"fingerprint ridge %d minutiae" % i)
        t.barrier()
    for step in range(30):
        apply_op(tenants["alpha"], alpha_fuzz.next_op())
        term = rng.choice(TERMS)
        assert tenants["beta"].glimpse(term) == solo_beta.glimpse(term), \
            (step, term)
    assert sorted(tenants["beta"].links("/hits")) == \
        sorted(solo_beta.links("/hits"))
    assert tenant_digest(tenants["beta"]) == tenant_digest(solo_beta)

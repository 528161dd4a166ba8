"""The tenant-isolation soak: chaos at tenant A, bit-identity for B."""

import pytest

from repro.core.hacfs import HacFileSystem
from tests.chaos.tenantsoak import (TenantIsolationSoak, run_soak,
                                    tenant_digest)


class TestTenantDigest:
    def test_digest_is_deterministic_and_state_sensitive(self):
        worlds = []
        for _ in range(2):
            hac = HacFileSystem()
            t = hac.tenants.create("lib")
            t.makedirs("/stacks")
            t.write_file("/stacks/v0.txt", b"fingerprint volume zero")
            t.smkdir("/q", "fingerprint")
            worlds.append((hac, t))
        (_, a), (_, b) = worlds
        assert tenant_digest(a) == tenant_digest(b)
        b.write_file("/stacks/v1.txt", b"fingerprint volume one")
        assert tenant_digest(a) != tenant_digest(b)

    def test_digest_ignores_co_tenants_and_host_state(self):
        solo_hac = HacFileSystem()
        solo = solo_hac.tenants.create("lib")
        shared_hac = HacFileSystem()
        shared = shared_hac.tenants.create("lib")
        noisy = shared_hac.tenants.create("noisy")
        for t in (solo, shared):
            t.write_file("/v.txt", b"fingerprint volume")
        noisy.write_file("/junk.txt", b"unrelated fingerprint churn")
        shared_hac.makedirs("/host")
        shared_hac.write_file("/host/h.txt", b"host fingerprint file")
        assert tenant_digest(solo) == tenant_digest(shared)


class TestSoakRuns:
    @pytest.mark.parametrize("k", [0, 3])
    def test_short_soak_holds_the_isolation_contract(self, k):
        report = run_soak(seed=0, k=k, steps=12)
        assert report["ok"], report["violations"]
        assert report["beta_digest"] == report["oracle_digest"]
        assert report["beta_applied"] == 12
        assert report["alpha_applied"] > 0

    def test_soak_survives_and_counts_crash_recovery(self):
        # seed 0 at 20 steps is known to arm crashes that actually fire
        soak = TenantIsolationSoak(seed=0, k=0, steps=20)
        report = soak.run()
        assert report["ok"], report["violations"]
        assert report["crashes_hit"] == report["recoveries"]

    def test_report_shape_is_json_ready(self):
        import json

        report = run_soak(seed=3, k=0, steps=6)
        parsed = json.loads(json.dumps(report))
        assert set(parsed) >= {"seed", "k", "steps", "beta_digest",
                               "oracle_digest", "violations", "ok"}

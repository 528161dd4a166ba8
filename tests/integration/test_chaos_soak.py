"""The chaos soak as a tier-1 gate, plus the CI sweep entry point.

The default run executes one short smoke seed (fast enough for every
test invocation).  The CI ``sweeps`` matrix (``chaos-*`` cells) re-runs this module with
``CHAOS_SEED`` / ``CHAOS_K`` / ``CHAOS_STEPS`` set to sweep three seeds
across both topologies at full length — same test, bigger soak.
"""

import os

from repro.chaos import ChaosRun

SEED = int(os.environ.get("CHAOS_SEED", "1"))
K = int(os.environ.get("CHAOS_K", "0"))
STEPS = int(os.environ.get("CHAOS_STEPS", "24"))
WINDOWS = int(os.environ.get("CHAOS_WINDOWS", "2"))


def test_soak_holds_every_invariant():
    run = ChaosRun(seed=SEED, k=K, steps=STEPS, windows=WINDOWS)
    report = run.run()
    assert report["ok"], "\n".join(report["violations"])
    assert report["steps"] == STEPS
    # the soak exercised real work, not a vacuous pass
    assert report["applied"] > 0
    assert report["reads_strong"] + report["reads_snapshot"] > 0
    # every device crash that fired was recovered from
    assert report["recoveries"] == report["crashes_hit"]
    # snapshot reads kept serving throughout
    assert run.chaos.counters.get("chaos.reads_snapshot_failed") == 0

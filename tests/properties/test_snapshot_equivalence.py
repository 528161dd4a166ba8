"""(b) of the twin-world harness (:mod:`tests.properties.test_twins`):
once the run settles, a snapshot read serves the present — the version
it reads published exactly the eager twin's final answers, with zero
drains — and every replica has caught up (DESIGN.md §3g).  Each snapshot
read and each drain-produced version were already held to the eager twin
during the run."""

import pytest

from tests.properties.test_twins import KS, SEEDS, settled


@pytest.mark.parametrize("seed", SEEDS)
def test_snapshot_reads_match_eager_at_publish_point(seed):
    for k in KS:
        run = settled(seed, k)
        version, answers, drains = run.seen[0]["read"]
        assert run.published.get(version) == answers == run.final, k
        assert drains == 0, k
        lag = run.seen[0]["lag"]
        assert all(n == 0 for n in lag.values()), (k, lag)

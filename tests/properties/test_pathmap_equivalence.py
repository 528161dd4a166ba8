"""(d) of the twin-world harness (:mod:`tests.properties.test_twins`):
the path map (DESIGN.md §3i, Yodaiken's tree folded into a map) resolved
every pooled path exactly as the component walk after every step of the
run; once it settles, it still does, it served hits and was invalidated,
and a warmed sweep walks fewer components than walking.  A crash
mid-``smkdir`` leaves a map that agrees with the walk after recovery."""

import pytest

from tests.properties.test_twins import KS, SEEDS, crash_and_recover, settled


@pytest.mark.parametrize("seed", SEEDS)
def test_map_world_is_bit_identical_to_walk_world(seed):
    for k in KS:
        run = settled(seed, k)
        assert run.seen[0]["disagreements"] == [], k
        assert run.counts[0].get("pathmap.hit", 0) > 0, k
        assert run.counts[0].get("pathmap.invalidated", 0) > 0, k
        mapped, walked = run.seen[0]["sweep"]
        assert mapped < walked, k


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_crash_recovery_converges_identically(seed):
    for k in KS:
        crash_and_recover("smkdir", k, seed)

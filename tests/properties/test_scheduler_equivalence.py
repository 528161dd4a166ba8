"""(a) of the twin-world harness (:mod:`tests.properties.test_twins`):
batched maintenance over the segmented store ends bit-identical to eager
per-write upkeep (DESIGN.md §3f) — engine state, raw answers and digest —
and batching really coalesced.  Strong answers were already compared
with the eager twin's after every step of the run."""

import pytest

from tests.properties.test_twins import KS, SEEDS, settled


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_is_bit_identical_to_eager(seed):
    for k in KS:
        run = settled(seed, k)
        subject, twin = run.seen[0], run.seen[1]
        assert twin["state"] == subject["state"], k
        assert subject["answers"] == run.final, k
        # a link is named when it is made, so eager upkeep may have given
        # a name's suffix to a file a batch never linked: the digest
        # compares links by class and target
        assert twin["digest"] == subject["digest"], k
        # fewer drains, and no more tokenisation than one-per-event
        batched, eager = run.counts[0], run.counts[1]
        assert batched.get("sched.coalesced", 0) > 0, k
        assert batched.get("sched.drains", 0) < eager.get("sched.drains", 0)
        assert batched.get("engine.tokenisations", 0) \
            <= eager.get("engine.tokenisations", 0), k

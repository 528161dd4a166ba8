"""(c) of the twin-world harness (:mod:`tests.properties.test_twins`):
the segmented index store ends bit-identical to the op-log one
(``segmented=False``, DESIGN.md §3i) — engine state, raw answers,
``to_obj`` bytes, digest and ``/fp`` links — and each store did its own
work.  The device's segments were held to the engine's live rows after
every step; a crash mid-drain recovers both stores to one digest."""

import pytest

from tests.properties.test_twins import KS, SEEDS, crash_and_recover, settled


@pytest.mark.parametrize("seed", SEEDS)
def test_segmented_is_bit_identical_to_monolithic(seed):
    for k in KS:
        run = settled(seed, k)
        subject, oplog = run.seen[0], run.seen[2]
        # engine state, raw answers, to_obj bytes, /fp links, digest
        for facet in ("state", "answers", "obj", "links", "digest"):
            assert subject[facet] == oplog[facet], (k, facet)
        # rows coalesced into the memtable, and the monolith sealed at
        # reindexes (a cluster's shard stores are never persisted)
        segmented, op_log = run.counts[0], run.counts[2]
        assert segmented.get("segments.noted", 0) > 0, k
        assert (segmented.get("segments.seals", 0) > 0) == (k == 0)
        assert op_log.get("segments.noted", 0) == 0, k


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_recovery_converges_identically(seed):
    for k in KS:
        crash_and_recover("drain", k, seed)

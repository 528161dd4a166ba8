"""Ablation G — recovery cost: rebuild the index vs restore the saved one.

Real Glimpse persists its index files; recovery then costs whatever changed
since the save rather than a full re-read of the corpus.  This ablation
measures both recovery paths for the same HAC file system, plus the two
costs the write-ahead intent journal introduces: replaying an interrupted
intent on restore, and the steady-state write amplification of journaling
every multi-structure mutation.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.core.hacfs import HacFileSystem
from repro.errors import DeviceCrashed
from repro.vfs.blockdev import FaultPlan
from repro.workloads.corpus import CorpusConfig, CorpusGenerator

N_FILES = 600


def build():
    gen = CorpusGenerator(CorpusConfig(n_files=N_FILES, words_per_file=120,
                                       dirs=12, seed=77))
    hac = HacFileSystem()
    gen.populate(hac, "/db")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/q", "data OR file")
    return hac


@pytest.mark.benchmark(group="ablation-recovery")
def test_rebuild_vs_restore(benchmark, record_report):
    def run(repetitions=2):
        rebuild_s = restore_s = None
        for _ in range(repetitions):
            cold = build()
            secs, revived = time_call(
                lambda: HacFileSystem.restore(cold.fs, reuse_index=False))
            rebuild_retokenised = revived.counters.get("engine.indexed")
            rebuild_s = secs if rebuild_s is None else min(rebuild_s, secs)

            warm = build()
            saved_bytes = warm.save_index()
            secs, revived = time_call(
                lambda: HacFileSystem.restore(warm.fs))
            restore_s = secs if restore_s is None else min(restore_s, secs)
            retokenised = revived.counters.get("engine.indexed")
        return (rebuild_s, restore_s, saved_bytes, retokenised,
                rebuild_retokenised)

    (rebuild_s, restore_s, saved_bytes, retokenised,
     rebuild_retokenised) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=1)

    results = [
        BenchResult("corpus files", N_FILES),
        BenchResult("recovery by full rebuild s", rebuild_s),
        BenchResult("recovery from saved index s", restore_s),
        BenchResult("rebuild / restore", rebuild_s / restore_s),
        BenchResult("saved index bytes", saved_bytes),
        BenchResult("docs re-tokenised on restore", retokenised),
        BenchResult("docs re-tokenised on rebuild", rebuild_retokenised),
    ]
    record_report(report("Ablation G: recovery — rebuild vs saved index",
                         results))

    # the saved index wins because it skips re-tokenising the corpus;
    # asserted on doc counts, which cannot flake (the wall times above are
    # reported only)
    assert retokenised == 0, "restore must not re-read unchanged documents"
    assert rebuild_retokenised >= N_FILES, (
        f"a rebuild must re-tokenise the whole corpus, got "
        f"{rebuild_retokenised} of {N_FILES}")


@pytest.mark.benchmark(group="ablation-recovery")
def test_journal_replay_and_write_amplification(benchmark, record_report):
    def run():
        # -- crash replay: restore with one interrupted intent in the wal --
        crashed = build()
        crashed.save_index()
        dev = crashed.fs.device
        dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 4))
        try:
            crashed.smkdir("/crashq", "data")
        except DeviceCrashed:
            pass
        replay_s, revived = time_call(
            lambda: HacFileSystem.restore(crashed.fs))
        rolled_back = len(revived.last_recovery.rolled_back)

        clean = build()
        clean.save_index()
        clean_s, _ = time_call(lambda: HacFileSystem.restore(clean.fs))

        # -- steady-state WAL write amplification over journaled mutations --
        hac = build()
        c, dev = hac.counters, hac.fs.device
        begins0 = c.get("journal.begins")
        pre0 = c.get("journal.preimages")
        ops0 = dev.record_write_index
        for i in range(30):
            hac.mkdir(f"/m{i}")
            hac.set_query("/q", "file" if i % 2 else "data OR file")
        wal_writes = (c.get("journal.begins") - begins0) \
            + (c.get("journal.preimages") - pre0)
        total_ops = dev.record_write_index - ops0
        # every committed wal record costs a write and a GC delete, and both
        # consume a record-op index; the rest is payload
        payload_writes = total_ops - 2 * wal_writes
        preimages = c.get("journal.preimages") - pre0
        return (replay_s, clean_s, rolled_back, wal_writes, payload_writes,
                total_ops, preimages)

    (replay_s, clean_s, rolled_back, wal_writes, payload_writes,
     total_ops, preimages) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=1)

    results = [
        BenchResult("restore with wal replay s", replay_s),
        BenchResult("restore with empty wal s", clean_s),
        BenchResult("intents rolled back", rolled_back),
        BenchResult("wal record writes", wal_writes),
        BenchResult("payload record writes", payload_writes),
        BenchResult("record write amplification", total_ops / payload_writes),
    ]
    record_report(report("Ablation G2: journal — replay cost and "
                         "write amplification", results))

    assert rolled_back == 1, "the interrupted intent must be rolled back"
    # The script is fixed (30 mkdir + 30 set_query), so the guard pins the
    # quantities that must not grow instead of their ratio: the ratio's
    # denominator shrank when set_query stopped writing its record a second
    # time, unchanged (120 -> 90 payload writes), while the WAL cost the
    # old `<= 4.0` bound watched stayed where it was.  150 wal writes and
    # 420 device ops are what the same script cost under that bound.
    assert wal_writes <= 150, (
        f"WAL steady-state write cost regressed: {wal_writes} wal writes "
        f"for 60 journaled operations")
    assert total_ops <= 420, (
        f"device record ops regressed: {total_ops} "
        f"({wal_writes} wal writes, {payload_writes} payload writes)")
    assert preimages <= payload_writes, (preimages, payload_writes)

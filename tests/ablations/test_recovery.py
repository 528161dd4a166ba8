"""Ablation G — recovery cost: rebuild the index vs restore the saved one.

Real Glimpse persists its index files; recovery then costs whatever changed
since the save rather than a full re-read of the corpus.  Here the saved
index is the monolith's segment list, which ``save_index`` merges into one
segment, and a reopen folds it back with zero tokenisation, while a rebuild
re-reads and re-tokenises the whole corpus.  This ablation counts both
recovery paths for the same HAC file system, plus the two costs the
write-ahead intent journal introduces: replaying an interrupted intent on
restore, and the steady-state write amplification of journaling every
multi-structure mutation.
"""

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


def test_rebuild_vs_restore():
    rebuilt = HacFileSystem.restore(build().fs, reuse_index=False).counters

    warm = build()
    saved_bytes = warm.save_index()
    # the sum of document frequencies: one per (doc, term) pair
    pairs = sum(df for _term, df in warm.engine.index.lexicon.terms())
    restored = HacFileSystem.restore(warm.fs).counters

    # the saved index wins because it folds persisted term sets back
    # without running the tokenizer; a rebuild re-tokenises every document
    assert restored.get("engine.tokenisations") == 0, \
        "segment restore ran the tokenizer"
    assert restored.get("engine.indexed") == 0, \
        "restore must not re-read unchanged documents"
    assert restored.get("engine.restored_docs") >= N_FILES
    assert rebuilt.get("engine.tokenisations") >= N_FILES
    assert rebuilt.get("engine.indexed") >= N_FILES, (
        f"a rebuild must re-tokenise the whole corpus, got "
        f"{rebuilt.get('engine.indexed')} of {N_FILES}")
    assert restored.get("engine.tokenisations") \
        < rebuilt.get("engine.tokenisations")
    # a segment holds its term dictionary once and each (doc, term) pair
    # as one 2-byte id: 3.7 B per pair here, where spelling every pair's
    # term out per row took 12.7
    assert saved_bytes / pairs <= 6, (
        f"the saved segment takes {saved_bytes / pairs:.1f} B per indexed "
        f"(doc, term) pair")


def test_journal_replay_and_write_amplification():
    # -- crash replay: restore with one interrupted intent in the wal --
    crashed = build()
    crashed.save_index()
    dev = crashed.fs.device
    # smkdir writes its begin, its semdir record, the semdir's
    # pre-image, then commits: crash after the record, before commit
    dev.set_fault_plan(FaultPlan(crash_at=dev.record_write_index + 2))
    try:
        crashed.smkdir("/crashq", "data")
    except DeviceCrashed:
        pass
    revived = HacFileSystem.restore(crashed.fs)
    assert len(revived.last_recovery.rolled_back) == 1, \
        "the interrupted intent must be rolled back"

    # -- steady-state WAL write amplification over journaled mutations --
    hac = build()
    c, dev = hac.counters, hac.fs.device
    begins0 = c.get("journal.begins")
    pre0 = c.get("journal.preimages")
    ops0 = dev.record_write_index
    for i in range(30):
        hac.mkdir(f"/m{i}")
        hac.set_query("/q", "file" if i % 2 else "data OR file")
    preimages = c.get("journal.preimages") - pre0
    wal_writes = (c.get("journal.begins") - begins0) + preimages
    total_ops = dev.record_write_index - ops0
    # every committed wal record costs a write and a GC delete, and both
    # consume a record-op index; the rest is payload
    payload_writes = total_ops - 2 * wal_writes

    # The script is fixed (30 mkdir + 30 set_query), so the guard pins the
    # quantities that must not grow instead of their ratio: each operation
    # journals one begin and one pre-image and writes one record — its
    # directory's own.  120 wal writes and 300 device ops are what the
    # script costs; a mkdir that wrote a whole-map record again (150 and
    # 420) fails here.
    assert wal_writes <= 120, (
        f"WAL steady-state write cost regressed: {wal_writes} wal writes "
        f"for 60 journaled operations")
    assert total_ops <= 300, (
        f"device record ops regressed: {total_ops} "
        f"({wal_writes} wal writes, {payload_writes} payload writes)")
    assert preimages <= payload_writes, (preimages, payload_writes)

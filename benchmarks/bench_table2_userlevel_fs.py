"""Table 2 — Andrew slowdown of user-level file systems vs the native FS.

Paper: Jade 36 %, Pseudo 33.41 %, HAC 46 %.  Shape to reproduce: all three
interposition styles cost the same order of magnitude, and HAC costs the
most, because on top of forwarding it maintains its content-access state.

Wall-clock slowdowns are *reported* but the shape is *asserted* on exactly
reproducible counters: Jade/Pseudo must forward the native device-op
schedule unchanged while charging interposition work (path translations,
RPC round trips), and HAC must perform strictly more device operations.
Andrew's tree has no semantic directory, so nothing on it names a
directory and no directory gets a record (docs/SEMANTICS.md §1); what HAC
adds is accounted op for op from its own counters: the ``stat`` each
``write_file`` makes to keep the shared attribute cache current (§4),
less the metadata reads that cache saves in Scan, plus the records a
fresh HAC writes at construction.  An op outside that account fails the
guard.
"""

import pytest

from repro.baselines.jadefs import JadeFileSystem
from repro.baselines.pseudofs import PseudoFileSystem
from repro.bench.harness import report
from repro.bench.harness import BenchResult
from repro.bench.tables import PAPER, ratio, slowdown_pct
from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig, RawFsAdapter

# interposition cost shows in the metadata/IO phases, so this tree is
# wider and its "compilation units" smaller than Table 1's
CFG = AndrewConfig(dirs=20, files_per_dir=12, functions_per_file=3)

#: the simulated cost of one Andrew run: every block-device record
#: operation (pure forwarding layers repeat the native schedule exactly)
OP_KEYS = ("blockdev.read_ops", "blockdev.write_ops",
           "blockdev.meta_read_ops", "blockdev.meta_write_ops")


def device_ops(counters) -> float:
    return sum(counters.get(k) for k in OP_KEYS)


def run_all(repetitions: int = 5):
    import gc

    def total(make_target, counters_of):
        """(min wall seconds, device ops, counters) over fresh runs."""
        best = ops = counters = None
        for rep in range(repetitions):
            fs = make_target()
            secs = AndrewBenchmark(fs, CFG).run()["total"]
            best = secs if best is None else min(best, secs)
            if rep == 0:  # deterministic: any repetition charges the same
                counters = counters_of(fs)
                ops = device_ops(counters)
        return best, ops, counters

    gc.collect()
    gc.disable()
    try:
        return {
            "unix": total(lambda: RawFsAdapter(FileSystem()),
                          lambda fs: fs.fs.counters),
            "jade": total(lambda: JadeFileSystem(FileSystem()),
                          lambda fs: fs.counters),
            "pseudo": total(lambda: PseudoFileSystem(FileSystem()),
                            lambda fs: fs.counters),
            "hac": total(lambda: HacFileSystem(),
                         lambda fs: fs.counters),
        }
    finally:
        gc.enable()


@pytest.mark.benchmark(group="table2")
def test_table2_userlevel_slowdowns(benchmark, record_report):
    data = benchmark.pedantic(run_all, rounds=1, iterations=1,
                              warmup_rounds=1)
    totals = {name: secs for name, (secs, _ops, _c) in data.items()}
    ops = {name: o for name, (_secs, o, _c) in data.items()}
    slow = {name: slowdown_pct(totals[name], totals["unix"])
            for name in ("jade", "pseudo", "hac")}
    translations = data["jade"][2].get("jade.translations")
    requests = data["pseudo"][2].get("pseudo.requests")
    results = [
        BenchResult("Jade FS % slowdown", slow["jade"], PAPER["table2"]["jade"]),
        BenchResult("Pseudo FS % slowdown", slow["pseudo"], PAPER["table2"]["pseudo"]),
        BenchResult("HAC FS % slowdown", slow["hac"], PAPER["table2"]["hac"]),
        BenchResult("Jade path translations", translations),
        BenchResult("Pseudo RPC round trips", requests),
        BenchResult("HAC/native device-op ratio", ratio(ops["hac"], ops["unix"])),
    ]
    record_report(report("Table 2: user-level FS slowdown vs native", results))
    benchmark.extra_info.update({k: round(v, 2) for k, v in slow.items()})

    # --- shape assertions ----------------------------------------------------
    # asserted on simulated counters, which are exactly reproducible (wall
    # slowdowns above are reported for comparison with the paper only — on
    # a loaded shared CPU they flake)
    # Jade/Pseudo are pure forwarders: same device schedule, plus real
    # interposition work on every Andrew operation
    assert ops["jade"] == ops["unix"], (ops["jade"], ops["unix"])
    assert ops["pseudo"] == ops["unix"], (ops["pseudo"], ops["unix"])
    assert translations > 1000, \
        "Jade should translate a path per forwarded operation"
    assert requests > 1000, \
        "Pseudo should pay an RPC round trip per forwarded operation"
    # HAC pays the most, and exactly what its counters say it adds: a
    # metadata read per write_file, less the attribute-cache hits, plus
    # its construction records
    hac = data["hac"][2]
    added = (hac.get("hac.write_file") - hac.get("attrcache.hit")
             + device_ops(HacFileSystem().counters))
    assert ops["hac"] == ops["unix"] + added, (ops["hac"], ops["unix"], added)
    assert ops["hac"] > ops["jade"] and ops["hac"] > ops["pseudo"]

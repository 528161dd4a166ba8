"""Table 1 — the Andrew Benchmark: plain FS ("UNIX") vs HAC.

Paper's numbers (seconds): UNIX 2/5/5/8/19 = 38; HAC 4/9/8/14/22 = 57.
Shape to reproduce: HAC is slower overall (paper: ~1.5×), the *relative*
overhead is largest in Makedir (2.0×) and smallest in the compute-bound
Make phase (~1.16×).

Absolute seconds are meaningless on a Python simulation; the ratios are
the result.
"""

import statistics

import pytest

from repro.bench.harness import assert_shape, report_phases
from repro.bench.tables import PAPER, ratio
from repro.core.hacfs import HacFileSystem
from repro.vfs.filesystem import FileSystem
from repro.workloads.andrew import AndrewBenchmark, AndrewConfig, PHASES, RawFsAdapter

# sized so the metadata phases are well above timer noise while Make still
# dominates, as in the paper's profile
CFG = AndrewConfig(dirs=15, files_per_dir=10, functions_per_file=8)


def _median_of(runs):
    """Per-phase median across repetitions, and their sum as the total,
    as the paper's total row sums its phases.  Not the minimum: on a
    shared CPU the fastest of fifteen runs of a phase is an outlier of its
    own, and the ratio of two such outliers swung Make from 0.80x to 1.33x
    between processes."""
    out = {phase: statistics.median(r[phase] for r in runs)
           for phase in PHASES}
    out["total"] = sum(out.values())
    return out


def run_pair(repetitions: int = 15):
    """UNIX and HAC interleaved phase by phase in every repetition, with
    the side that goes first alternating, so a stretch of machine noise
    lands on both sides of a phase alike; each side keeps its per-phase
    median (a makedir phase is a few hundred microseconds)."""
    import gc

    runs = {"unix": [], "hac": []}
    gc.collect()
    gc.disable()
    try:
        for rep in range(repetitions):
            gc.collect()
            benches = {"unix": AndrewBenchmark(RawFsAdapter(FileSystem()), CFG),
                       "hac": AndrewBenchmark(HacFileSystem(), CFG)}
            for bench in benches.values():
                bench.install_sources()
            times = {side: {} for side in benches}
            for i, phase in enumerate(PHASES):
                for side in sorted(benches, reverse=bool((rep + i) % 2)):
                    times[side][phase] = benches[side].run_phase(phase)
            for side, phases in times.items():
                runs[side].append(phases)
        return _median_of(runs["unix"]), _median_of(runs["hac"])
    finally:
        gc.enable()


@pytest.mark.benchmark(group="table1")
def test_table1_andrew(benchmark, record_report):
    unix, hac = benchmark.pedantic(run_pair, rounds=1, iterations=1,
                                   warmup_rounds=1)

    rows = {"UNIX (plain VFS)": unix, "HAC": hac,
            "paper UNIX": PAPER["table1"]["unix"],
            "paper HAC": PAPER["table1"]["hac"]}
    text = report_phases("Table 1: Andrew Benchmark (seconds per phase)",
                         rows, list(PHASES) + ["total"])
    ratios = {p: ratio(hac[p], unix[p]) for p in list(PHASES) + ["total"]}
    text += "HAC/UNIX ratios: " + "  ".join(
        f"{p}={r:.2f}x" for p, r in ratios.items()) + "\n"
    paper_ratios = {p: PAPER["table1"]["hac"][p] / PAPER["table1"]["unix"][p]
                    for p in list(PHASES) + ["total"]}
    text += "paper ratios:    " + "  ".join(
        f"{p}={r:.2f}x" for p, r in paper_ratios.items()) + "\n"
    record_report(text)

    benchmark.extra_info["hac_total_slowdown"] = ratios["total"] - 1

    # --- shape assertions ----------------------------------------------------
    assert_shape("HAC total slowdown", ratios["total"], 1.02, 5.0)
    # metadata-heavy phases carry more relative overhead than Make
    assert ratios["makedir"] > ratios["make"], (
        "Makedir should carry the largest relative overhead (paper: 2.0x "
        f"vs 1.16x); got makedir={ratios['makedir']:.2f} make={ratios['make']:.2f}")
    assert ratios["make"] < ratios["total"] * 1.05, \
        "the compute-bound Make phase should dilute HAC overhead"

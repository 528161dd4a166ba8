"""The paper's published numbers, for shape comparisons.

Benchmarks print measured values side by side with these.  We do not expect
absolute agreement — the substrate is a Python simulation, not SunOS on
1999 hardware — but the *shape* (who is slower, roughly by how much, where
the crossovers sit) should reproduce, and EXPERIMENTS.md records how well
it does.
"""

from __future__ import annotations

#: every table of the evaluation section
PAPER = {
    "table1": {
        # Andrew benchmark seconds, per phase
        "unix": {"makedir": 2, "copy": 5, "scan": 5, "read": 8,
                 "make": 19, "total": 38},
        "hac": {"makedir": 4, "copy": 9, "scan": 8, "read": 14,
                "make": 22, "total": 57},
        # derived: HAC is ~46% slower overall; worst in makedir (2.0x),
        # least in make (~1.16x)
        "slowdown_total": 0.50,  # 57/38 - 1
    },
    "table2": {
        # % slowdown vs the native FS for user-level file systems
        "jade": 36.0,
        "pseudo": 33.41,
        "hac": 46.0,
    },
    "table3": {
        # indexing a 17,000-file / 150MB database
        "files": 17000,
        "megabytes": 150,
        "time_overhead_pct": 27.0,   # HAC vs direct Glimpse
        "space_overhead_pct": 15.0,
    },
    "table4": {
        # semantic-directory creation vs direct Glimpse search, by the
        # number of files the query matches
        "few": {"ratio": 4.0, "note": ">4x slower, tiny absolute cost"},
        "intermediate": {"ratio": 1.15},
        "many": {"ratio": 1.02},
    },
}


def ratio(measured: float, baseline: float) -> float:
    """measured/baseline, guarding the zero-baseline case."""
    return measured / baseline if baseline else float("inf")


def slowdown_pct(measured: float, baseline: float) -> float:
    """Percent slowdown of *measured* relative to *baseline*."""
    return 100.0 * (ratio(measured, baseline) - 1.0)

"""Benchmark support: timing harness, table rendering, paper expectations.

The actual benchmark entry points live in ``benchmarks/`` at the repository
root (one per paper table plus ablations); this package holds the shared
machinery so each bench file stays a readable experiment description.
"""

from repro.bench.harness import BenchResult, time_call
from repro.bench.tables import PAPER

__all__ = ["BenchResult", "PAPER", "time_call"]

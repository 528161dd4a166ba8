"""Timing and reporting helpers shared by all benchmark files.

pytest-benchmark measures the hot loops; this module covers what it does
not: one-shot phase timing (Andrew phases are not meaningfully repeatable —
Makedir can only run once per tree), ratio/shape assertions with generous
tolerances, and table rendering for the human-readable output the benches
``print`` (captured into ``bench_output.txt`` by the final run).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.shell.formatting import render_table

T = TypeVar("T")


class BenchResult:
    """One measured quantity with an optional paper expectation."""

    def __init__(self, name: str, measured: float,
                 paper: Optional[float] = None, unit: str = ""):
        self.name = name
        self.measured = measured
        self.paper = paper
        self.unit = unit

    def row(self) -> List[str]:
        paper = f"{self.paper:g}" if self.paper is not None else "-"
        return [self.name, f"{self.measured:.4g}{self.unit}",
                f"{paper}{self.unit if self.paper is not None else ''}"]


def time_call(fn: Callable[[], T]) -> "tuple[float, T]":
    """Wall-clock one call; returns (seconds, result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def report(title: str, results: Sequence[BenchResult]) -> str:
    table = render_table(["metric", "measured", "paper"],
                         [r.row() for r in results])
    text = f"\n=== {title} ===\n{table}\n"
    print(text)
    return text


def report_phases(title: str, rows: Dict[str, Dict[str, float]],
                  phases: Sequence[str]) -> str:
    """Phase-per-column comparison (the Table 1 layout)."""
    out_rows = []
    for system, timings in rows.items():
        out_rows.append([system] + [f"{timings.get(p, 0.0):.4f}" for p in phases])
    table = render_table(["system"] + list(phases), out_rows)
    text = f"\n=== {title} ===\n{table}\n"
    print(text)
    return text


def assert_shape(name: str, measured_ratio: float, low: float, high: float) -> None:
    """Assert a ratio lies in a generous band; failures carry context."""
    assert low <= measured_ratio <= high, (
        f"{name}: ratio {measured_ratio:.3f} outside expected band "
        f"[{low}, {high}] — the paper's shape did not reproduce")

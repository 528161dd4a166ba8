"""Shared fixtures for the benchmark suite.

Every benchmark prints a paper-vs-measured table and appends it to
``benchmarks/_reports/summary.txt`` so a plain
``pytest benchmarks/ --benchmark-only`` leaves a readable artefact even
though pytest captures stdout.

``HAC_BENCH_SCALE`` (int, default 1) multiplies corpus sizes for the
indexing/query benches — set it to 10 to approach the paper's 17 000-file
database on a machine with time to spare.
"""

import os
import pathlib

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "_reports"


def pytest_configure(config):
    REPORT_DIR.mkdir(exist_ok=True)
    summary = REPORT_DIR / "summary.txt"
    if summary.exists():
        summary.unlink()


@pytest.fixture(scope="session")
def scale():
    return max(1, int(os.environ.get("HAC_BENCH_SCALE", "1")))


@pytest.fixture
def record_report():
    """Append a report block to the summary artefact (and stdout)."""

    def _record(text: str) -> None:
        with open(REPORT_DIR / "summary.txt", "a", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")

    return _record


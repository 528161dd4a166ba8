"""Ablation A — the paper's bitmap result representation vs Python sets.

The paper stores each directory's result as an N/8-byte bitmap, arguing it
is compact and fast to combine.  This ablation quantifies both claims in
our substrate: serialized size and intersection throughput against a plain
``set`` of ints at several result densities.
"""

import random

import pytest

from repro.bench.harness import BenchResult, report
from repro.util.bitmap import Bitmap

N = 20000
DENSITY = 0.3


def make_pair(seed):
    rng = random.Random(seed)
    members = {i for i in range(N) if rng.random() < DENSITY}
    return members, Bitmap(members)


@pytest.mark.benchmark(group="ablation-bitmap")
def test_bitmap_intersection_speed(benchmark):
    _m1, b1 = make_pair(1)
    _m2, b2 = make_pair(2)
    result = benchmark(lambda: b1 & b2)
    assert len(result) > 0


@pytest.mark.benchmark(group="ablation-bitmap")
def test_set_intersection_speed(benchmark):
    m1, _b1 = make_pair(1)
    m2, _b2 = make_pair(2)
    result = benchmark(lambda: m1 & m2)
    assert len(result) > 0


@pytest.mark.benchmark(group="ablation-bitmap-size")
def test_bitmap_size_claim(benchmark, record_report):
    def sizes():
        members, bitmap = make_pair(3)
        # a naive on-disk set: 4 bytes per member id
        set_bytes = 4 * len(members)
        return len(members), bitmap.nbytes, set_bytes

    count, bitmap_bytes, set_bytes = benchmark.pedantic(sizes, rounds=1,
                                                        iterations=1)
    results = [
        BenchResult("result members", count),
        BenchResult("bitmap bytes (N/8)", bitmap_bytes, N / 8),
        BenchResult("4-byte-id set bytes", set_bytes),
        BenchResult("compression vs id list", set_bytes / bitmap_bytes),
    ]
    record_report(report("Ablation A: bitmap vs set representation", results))
    # at 30% density the bitmap wins by ~10x; it loses only below ~3% density
    assert bitmap_bytes < set_bytes
    assert bitmap_bytes <= N // 8 + 1

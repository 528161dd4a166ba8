"""Ablation A — the paper's bitmap result representation vs an id list.

The paper stores each directory's result as an N/8-byte bitmap, arguing it
is compact.  At 30 % density over 20 000 documents the bitmap must beat a
naive on-disk set of 4-byte member ids, and take no more than N/8 bytes.
"""

import random

from repro.util.bitmap import Bitmap

N = 20000
DENSITY = 0.3


def test_bitmap_size_claim():
    rng = random.Random(3)
    members = {i for i in range(N) if rng.random() < DENSITY}
    bitmap_bytes = Bitmap(members).nbytes
    # at 30% density the bitmap wins by ~10x; it loses only below ~3% density
    assert bitmap_bytes < 4 * len(members)
    assert bitmap_bytes <= N // 8 + 1

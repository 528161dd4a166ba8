"""Unit tests for the N/8-byte bitmap representation."""

import random
from itertools import compress

import pytest

from repro.util.bitmap import Bitmap


class TestBasics:
    def test_empty(self):
        bm = Bitmap()
        assert len(bm) == 0
        assert not bm
        assert list(bm) == []
        assert bm.nbytes == 0
        assert bm.max_id() == -1

    def test_add_and_contains(self):
        bm = Bitmap()
        bm.add(0)
        bm.add(7)
        bm.add(8)
        bm.add(1000)
        assert 0 in bm and 7 in bm and 8 in bm and 1000 in bm
        assert 1 not in bm and 999 not in bm
        assert len(bm) == 4

    def test_construct_from_iterable(self):
        assert sorted(Bitmap([5, 3, 3, 9])) == [3, 5, 9]

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Bitmap().add(-1)

    def test_negative_contains_false(self):
        assert -3 not in Bitmap([1])

    def test_discard(self):
        bm = Bitmap([1, 2, 3])
        bm.discard(2)
        bm.discard(99)   # absent: no-op
        bm.discard(-1)   # negative: no-op
        assert sorted(bm) == [1, 3]

    def test_discard_trims_trailing_bytes(self):
        bm = Bitmap([1, 900])
        bm.discard(900)
        assert bm.nbytes == 1

    def test_iteration_order_ascending(self):
        ids = [977, 2, 64, 63, 8, 0]
        assert list(Bitmap(ids)) == sorted(ids)

    def test_max_id(self):
        assert Bitmap([3, 77, 12]).max_id() == 77

    def test_nbytes_is_ceil_div_8(self):
        assert Bitmap([15]).nbytes == 2
        assert Bitmap([16]).nbytes == 3
        # the paper's example: ~17,000 files -> ~2 KB
        assert Bitmap([16999]).nbytes == 2125


class TestKernels:
    """Iteration and ``select`` pick a sparse or a linear kernel from the
    set's own shape; either way they read like ``sorted(set(ids))``."""

    SHAPES = {
        "empty": [],
        "one": [0],
        "one-far": [20_000],
        "sparse": [3, 977, 977, 15_000, 19_999],
        "dense": [i for i in range(2_000) if i % 10],
        "random": random.Random(19).sample(range(20_000), 10_000),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_iter_and_select_match_the_reference(self, shape):
        ids = self.SHAPES[shape]
        want = sorted(set(ids))
        bm = Bitmap(ids)
        column = [f"row{i}" for i in range(20_050)]
        assert list(bm) == want
        # a column longer than bit_length(), and one exactly that long
        assert bm.select(column) == [column[i] for i in want]
        assert bm.select(column[:bm.max_id() + 1]) == \
            [column[i] for i in want]

    @pytest.mark.parametrize("shape", ["one-far", "sparse", "dense", "random"])
    def test_select_rejects_a_short_column(self, shape):
        bm = Bitmap(self.SHAPES[shape])
        with pytest.raises(IndexError):
            bm.select(["row"] * bm.max_id())   # one short: no truncation

    def test_the_kernel_follows_the_sets_own_shape(self):
        few = Bitmap(random.Random(7).sample(range(20_000), 10))
        half = Bitmap(self.SHAPES["random"])
        assert few._is_sparse() and not half._is_sparse()
        # the linear kernel is one C-level pass over the span, not a
        # big-integer copy per member
        assert isinstance(iter(half), compress)
        assert not isinstance(iter(few), compress)

    def test_iteration_is_a_snapshot(self):
        for ids in (self.SHAPES["sparse"], self.SHAPES["dense"]):
            bm = Bitmap(ids)
            seen = []
            for i in bm:
                bm.discard(i)
                seen.append(i)
            assert seen == sorted(set(ids)) and not bm


class TestAlgebra:
    def test_or(self):
        assert sorted(Bitmap([1, 2]) | Bitmap([2, 300])) == [1, 2, 300]

    def test_and(self):
        assert sorted(Bitmap([1, 2, 300]) & Bitmap([2, 300, 5])) == [2, 300]

    def test_sub(self):
        assert sorted(Bitmap([1, 2, 3]) - Bitmap([2, 999])) == [1, 3]

    def test_inplace_or(self):
        bm = Bitmap([1])
        bm |= Bitmap([900])
        assert sorted(bm) == [1, 900]

    def test_inplace_and(self):
        bm = Bitmap([1, 2, 900])
        bm &= Bitmap([2, 900])
        assert sorted(bm) == [2, 900]

    def test_inplace_sub(self):
        bm = Bitmap([1, 2, 900])
        bm -= Bitmap([900])
        assert sorted(bm) == [1, 2]
        assert bm.nbytes == 1  # trimmed

    def test_operands_not_mutated(self):
        a, b = Bitmap([1]), Bitmap([2])
        _ = a | b
        _ = a & b
        _ = a - b
        assert sorted(a) == [1] and sorted(b) == [2]

    def test_intersects(self):
        assert Bitmap([5, 100]).intersects(Bitmap([100]))
        assert not Bitmap([5]).intersects(Bitmap([6]))
        assert not Bitmap().intersects(Bitmap([1]))

    def test_issubset(self):
        assert Bitmap([2, 900]).issubset(Bitmap([1, 2, 900]))
        assert not Bitmap([2, 901]).issubset(Bitmap([1, 2, 900]))
        assert Bitmap().issubset(Bitmap())
        assert Bitmap().issubset(Bitmap([1]))

    def test_equality_ignores_allocation_history(self):
        a = Bitmap([1, 900])
        a.discard(900)
        assert a == Bitmap([1])
        assert hash(a) == hash(Bitmap([1]))

    def test_copy_is_independent(self):
        a = Bitmap([1])
        b = a.copy()
        b.add(2)
        assert 2 not in a


class TestSerialization:
    def test_roundtrip(self):
        bm = Bitmap([0, 9, 100, 8191])
        assert Bitmap.from_bytes(bm.to_bytes()) == bm

    def test_layout_is_little_endian_bit_per_id(self):
        # the on-disk format, pinned: id i is bit i % 8 of byte i // 8,
        # trailing zero bytes trimmed (the paper's N/8-byte result record)
        assert Bitmap([0, 3, 8, 17]).to_bytes() == b"\x09\x01\x02"
        assert Bitmap().to_bytes() == b""

    def test_from_bytes_trims(self):
        bm = Bitmap.from_bytes(b"\x01\x00\x00")
        assert bm.nbytes == 1
        assert list(bm) == [0]

    def test_repr_small_and_large(self):
        assert "1" in repr(Bitmap([1]))
        assert "ids" in repr(Bitmap(range(50)))

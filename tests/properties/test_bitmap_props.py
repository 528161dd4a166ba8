"""Property tests: Bitmap behaves exactly like a set of small ints."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitmap import Bitmap

ids = st.sets(st.integers(min_value=0, max_value=2000))
#: sparse-in-a-wide-span, dense, and anything between: both scan kernels
shapes = ids | st.sets(st.integers(min_value=0, max_value=20000)) \
    | st.builds(lambda lo, n, drop: set(range(lo, lo + n)) - drop,
                st.integers(0, 500), st.integers(0, 600), ids)


@given(ids)
def test_roundtrip_matches_set(xs):
    assert set(Bitmap(xs)) == xs
    assert len(Bitmap(xs)) == len(xs)


@given(shapes, st.integers(min_value=0, max_value=40))
def test_iter_and_select_read_like_the_sorted_set(xs, slack):
    want = sorted(xs)
    bm = Bitmap(xs)
    column = list(range(100, 101 + bm.max_id() + slack))
    assert list(bm) == want
    assert bm.select(column) == [column[i] for i in want]


@given(ids, ids)
def test_or_is_union(a, b):
    assert set(Bitmap(a) | Bitmap(b)) == a | b


@given(ids, ids)
def test_and_is_intersection(a, b):
    assert set(Bitmap(a) & Bitmap(b)) == a & b


@given(ids, ids)
def test_sub_is_difference(a, b):
    assert set(Bitmap(a) - Bitmap(b)) == a - b


@given(ids, ids)
def test_inplace_ops_match(a, b):
    bm = Bitmap(a)
    bm |= Bitmap(b)
    assert set(bm) == a | b
    bm = Bitmap(a)
    bm &= Bitmap(b)
    assert set(bm) == a & b
    bm = Bitmap(a)
    bm -= Bitmap(b)
    assert set(bm) == a - b


@given(ids, ids)
def test_issubset_and_intersects(a, b):
    assert Bitmap(a).issubset(Bitmap(b)) == (a <= b)
    assert Bitmap(a).intersects(Bitmap(b)) == bool(a & b)


@given(ids)
def test_bytes_roundtrip(a):
    bm = Bitmap(a)
    assert Bitmap.from_bytes(bm.to_bytes()) == bm


@given(ids, st.integers(min_value=0, max_value=2000))
def test_add_discard(a, x):
    bm = Bitmap(a)
    bm.add(x)
    assert set(bm) == a | {x}
    bm.discard(x)
    assert set(bm) == a - {x}


@given(ids)
def test_nbytes_is_n_over_8(a):
    bm = Bitmap(a)
    expected = 0 if not a else max(a) // 8 + 1
    assert bm.nbytes == expected


@given(ids, ids)
def test_equality_is_extensional(a, b):
    assert (Bitmap(a) == Bitmap(b)) == (a == b)

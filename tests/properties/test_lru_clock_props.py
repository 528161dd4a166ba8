"""Model-based property tests for the LRU cache and the virtual clock."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.clock import VirtualClock
from repro.util.lru import LRUCache

# -- LRU against a reference model ----------------------------------------------

ops = st.lists(st.tuples(st.sampled_from(["put", "get"]),
                         st.integers(min_value=0, max_value=12)),
               max_size=60)


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=6), ops)
def test_lru_matches_reference_model(capacity, operations):
    cache = LRUCache(capacity)
    model = []  # list of (key, value), most-recent last

    def model_get(key):
        for i, (k, v) in enumerate(model):
            if k == key:
                model.append(model.pop(i))
                return v
        return None

    def model_put(key, value):
        for i, (k, _v) in enumerate(model):
            if k == key:
                model.pop(i)
                break
        model.append((key, value))
        if len(model) > capacity:
            model.pop(0)

    for op, key in operations:
        if op == "put":
            model_put(key, key * 10)
            cache.put(key, key * 10)
        else:
            assert cache.get(key) == model_get(key)
        assert len(cache) == len(model)
        assert set(cache) == {k for k, _v in model}


# -- the clock fires every timer exactly at (or after) its deadline --------------

timer_specs = st.lists(st.tuples(st.floats(min_value=0.1, max_value=50),
                                 st.booleans()),
                       min_size=1, max_size=8)


@settings(max_examples=60)
@given(timer_specs, st.floats(min_value=1, max_value=200))
def test_clock_fires_in_deadline_order(specs, horizon):
    clock = VirtualClock()
    fired = []
    for idx, (delay, periodic) in enumerate(specs):
        if periodic:
            clock.schedule_periodic(delay, lambda i=idx: fired.append(
                (clock.now, i)))
        else:
            clock.schedule(delay, lambda i=idx: fired.append((clock.now, i)))
    clock.advance(horizon)
    times = [t for t, _i in fired]
    assert times == sorted(times), "timers must fire in time order"
    assert all(t <= horizon + 1e-9 for t in times)
    for idx, (delay, periodic) in enumerate(specs):
        count = sum(1 for _t, i in fired if i == idx)
        if periodic:
            # deadlines accumulate by repeated addition, so allow one step
            # of float drift against the closed-form count
            assert abs(count - int(horizon / delay)) <= 1
        else:
            assert count == (1 if delay <= horizon else 0)

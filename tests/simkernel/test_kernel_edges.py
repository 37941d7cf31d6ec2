"""Edge-case and property tests for the simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkernel import Resource, Simulator


# ---------------------------------------------------------------------------
# event ordering properties
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=30))
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []

    def proc(sim, d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.spawn(proc(sim, d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 10, allow_nan=False),
                          st.floats(0, 10, allow_nan=False)),
                min_size=1, max_size=15))
def test_sequential_process_time_is_sum(legs):
    sim = Simulator()

    def proc(sim):
        for a, b in legs:
            yield sim.timeout(a)
            yield sim.timeout(b)

    sim.spawn(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(sum(a + b for a, b in legs))


# ---------------------------------------------------------------------------
# resources under churn
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20))
def test_resource_never_exceeds_capacity(capacity, n_workers):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    high_water = [0]

    def worker(sim):
        req = res.request()
        yield req
        high_water[0] = max(high_water[0], res.count)
        yield sim.timeout(1.0)
        req.release()

    for _ in range(n_workers):
        sim.spawn(worker(sim))
    sim.run()
    assert high_water[0] <= capacity
    assert res.count == 0
    assert res.queued == 0

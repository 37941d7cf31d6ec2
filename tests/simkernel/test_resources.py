"""Unit tests for Store and Resource primitives."""

import pytest

from repro.simkernel import Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get_immediate():
    sim = Simulator()
    store = Store(sim)
    got = []

    def proc(sim):
        yield store.put("x")
        item = yield store.get()
        got.append(item)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def putter(sim):
        yield sim.timeout(4.0)
        yield store.put("late")

    sim.spawn(getter(sim))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [(4.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(5):
            yield store.put(i)

    def consumer(sim):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_bounded_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer(sim):
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer(sim):
        yield sim.timeout(10.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 10.0) in log  # blocked until the consumer freed a slot


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    def putter(sim):
        yield sim.timeout(1.0)
        yield store.put("first")
        yield store.put("second")

    sim.spawn(getter(sim, "g1"))
    sim.spawn(getter(sim, "g2"))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_filtered_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get(filter=lambda x: x % 2 == 0)
        got.append(item)

    def putter(sim):
        yield store.put(1)
        yield store.put(3)
        yield store.put(4)

    sim.spawn(getter(sim))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None

    def putter(sim):
        yield store.put("z")

    sim.spawn(putter(sim))
    sim.run()
    ok, item = store.try_get()
    assert ok and item == "z"


def test_store_put_nowait_hands_over_without_an_event():
    sim = Simulator()
    store = Store(sim, capacity=2)
    got = []

    def getter(sim, filter=None):
        got.append((yield store.get(filter)))

    sim.spawn(getter(sim))
    sim.spawn(getter(sim, filter=lambda item: item == "c"))
    sim.run()
    store.put_nowait("a")
    store.put_nowait("b")
    store.put_nowait("c")
    sim.run()
    assert got == ["a", "c"] and list(store.items) == ["b"]
    store.put_nowait("d")
    with pytest.raises(SimulationError, match="full"):
        store.put_nowait("e")
    assert sim.peek() == float("inf")  # no put event was ever scheduled


def test_store_len_and_counts():
    sim = Simulator()
    store = Store(sim)

    def putter(sim):
        yield store.put(1)
        yield store.put(2)

    sim.spawn(putter(sim))
    sim.run()
    assert len(store) == 2
    assert store.waiting_getters == 0
    assert store.waiting_putters == 0


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serializes_access():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    spans = []

    def worker(sim, tag, work):
        req = cpu.request()
        yield req
        start = sim.now
        yield sim.timeout(work)
        req.release()
        spans.append((tag, start, sim.now))

    sim.spawn(worker(sim, "a", 2.0))
    sim.spawn(worker(sim, "b", 3.0))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 5.0)]


def test_resource_capacity_two_runs_in_parallel():
    sim = Simulator()
    cpu = Resource(sim, capacity=2)
    spans = []

    def worker(sim, tag, work):
        req = cpu.request()
        yield req
        start = sim.now
        yield sim.timeout(work)
        req.release()
        spans.append((tag, start, sim.now))

    for tag in ("a", "b", "c"):
        sim.spawn(worker(sim, tag, 2.0))
    sim.run()
    assert ("a", 0.0, 2.0) in spans
    assert ("b", 0.0, 2.0) in spans
    assert ("c", 2.0, 4.0) in spans


def test_resource_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(sim):
        req = res.request()
        yield req
        req.release()
        req.release()  # no error

    sim.spawn(worker(sim))
    sim.run()
    assert res.count == 0


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder(sim):
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        req.release()

    def impatient(sim):
        req = res.request()
        yield sim.timeout(1.0)
        req.release()  # withdraw while still queued
        log.append("withdrew")

    sim.spawn(holder(sim))
    sim.spawn(impatient(sim))
    sim.run()
    assert log == ["withdrew"]
    assert res.count == 0
    assert res.queued == 0


def test_resource_utilization():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(sim):
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        req.release()
        yield sim.timeout(5.0)

    sim.spawn(worker(sim))
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)

"""Unit tests for the Resource primitive."""

import pytest

from repro.simkernel import Resource, SimulationError, Simulator


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

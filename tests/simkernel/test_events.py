"""Unit tests for the discrete-event kernel: events, timeouts, processes."""

import pytest

from repro.simkernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return "done"

    p = sim.spawn(proc(sim))
    sim.run()
    assert sim.now == 2.5
    assert p.value == "done"
    assert p.ok


def test_timeout_value_passthrough():
    sim = Simulator()
    results = []

    def proc(sim):
        v = yield sim.timeout(1.0, value=42)
        results.append(v)

    sim.spawn(proc(sim))
    sim.run()
    assert results == [42]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    times = []

    def proc(sim):
        for _ in range(3):
            yield sim.timeout(1.0)
            times.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert times == [1.0, 2.0, 3.0]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    seen = []

    def waiter(sim):
        v = yield ev
        seen.append((sim.now, v))

    def trigger(sim):
        yield sim.timeout(3.0)
        ev.succeed("payload")

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.run()
    assert seen == [(3.0, "payload")]


def test_event_double_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    sim.spawn(waiter(sim))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_unhandled_process_exception_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.spawn(bad(sim))
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_joined_process_exception_delivered_to_joiner():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    def joiner(sim, p):
        try:
            yield p
        except RuntimeError as e:
            caught.append(str(e))

    p = sim.spawn(bad(sim))
    sim.spawn(joiner(sim, p))
    sim.run()
    assert caught == ["crash"]


def test_process_join_returns_value():
    sim = Simulator()
    got = []

    def child(sim):
        yield sim.timeout(2.0)
        return 99

    def parent(sim):
        v = yield sim.spawn(child(sim))
        got.append((sim.now, v))

    sim.spawn(parent(sim))
    sim.run()
    assert got == [(2.0, 99)]


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError, match="must yield Event"):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()
    log = []

    def ticker(sim):
        while True:
            yield sim.timeout(1.0)
            log.append(sim.now)

    sim.spawn(ticker(sim))
    sim.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert sim.now == 3.5


def test_run_until_behind_the_clock_leaves_it_where_it_is():
    """Regression: ``run(until=u)`` with ``u < now`` and events still
    queued returned *u* and set the clock back to it."""
    sim = Simulator()
    log = []
    sim.timeout(12.0).add_callback(lambda _: log.append(("queued", sim.now)))
    sim.run(until=10.5)
    assert sim.run(until=5.0) == 10.5
    assert sim.now == 10.5
    sim.timeout(1.0).add_callback(lambda _: log.append(("armed", sim.now)))
    sim.run()
    assert log == [("armed", 11.5), ("queued", 12.0)]


def test_call_runs_in_the_slot_of_a_spawned_process():
    """``sim.call`` takes the ``(now, URGENT, seq)`` key a spawn's
    bootstrap takes, ahead of a NORMAL event triggered in the same
    instant, under ``run()`` and under a loop of ``step()``."""
    for drive in ("run", "step"):
        sim = Simulator()
        order = []

        def proc(name):
            order.append(name)
            yield sim.timeout(0)

        sim.spawn(proc("A"))
        sim.call(order.append, "B")
        sim.spawn(proc("C"))
        sim.event().succeed().add_callback(lambda _: order.append("D"))
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert order == ["A", "B", "C", "D"], drive


def test_run_until_advances_clock_when_heap_drains_early():
    """Regression: a workload that finishes before *until* must still
    leave the clock at *until*, not at the last event time."""
    sim = Simulator()

    def short(sim):
        yield sim.timeout(1.0)

    sim.spawn(short(sim))
    final = sim.run(until=5.0)
    assert final == 5.0
    assert sim.now == 5.0


def test_run_until_advances_clock_with_empty_heap():
    sim = Simulator()
    final = sim.run(until=2.0)
    assert final == 2.0
    assert sim.now == 2.0


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_step_and_peek():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)

    sim.spawn(proc(sim))
    assert sim.peek() == 0.0  # bootstrap event
    stepped = 0
    while sim.step():
        stepped += 1
    assert sim.now == 3.0
    assert stepped >= 3

"""Discrete-event simulation kernel: events, processes and the scheduler.

This module implements a compact, deterministic discrete-event simulation
core in the style of SimPy.  Simulated activities are Python generators
("processes") that ``yield`` :class:`Event` objects; the :class:`Simulator`
advances a virtual clock and resumes processes when the events they wait on
are triggered.

Determinism: every scheduled callback is keyed by ``(time, priority, seq)``
where ``seq`` is a monotonically increasing counter, so simultaneous events
always fire in the order they were scheduled.  Runs are fully reproducible.

The event loop is on an allocation diet — per-message bookkeeping is the
scheduling overhead pipeline frameworks live or die on:

- single-waiter events (the overwhelming case: every ``transfer`` yield)
  store their sole callback inline instead of allocating a list;
- :meth:`Simulator.spawn` starts generators through a slotted
  :class:`_Resume` heap entry rather than a bootstrap :class:`Event`;
- :meth:`Simulator.call` runs a plain function in the heap slot where a
  spawned process would have started, so a short-lived activity (a
  message in flight) is a chain of callbacks, not a generator process.

Why a callback chain fires in the same order as the process it replaces:

- ``Process(sim, gen)`` pushes its bootstrap at ``(now, URGENT, seq)``;
  ``sim.call(fn)`` pushes its :class:`_Call` at the same key, so the
  first step runs in the identical slot;
- ``yield ev`` registers the process's resume as ``ev``'s callback, or
  resumes at once if ``ev`` was already processed; ``ev.add_callback(fn)``
  does exactly the same;
- what disappears is only entries at the current time that nobody
  observes — a finished process's completion event — and ``seq`` is
  monotone, so dropping them leaves the relative order of every other
  entry, and the final clock, intact;
- an exception raised inside a callback leaves :meth:`Simulator.run`
  directly, where an unjoined process's failure was re-raised there.

The DPS runtime (:mod:`repro.runtime.sim_engine`) builds node controllers,
network links and operation executions on top of these primitives.
"""

from __future__ import annotations

import heapq
from types import GeneratorType
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
]

_PENDING = object()

#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for urgent (kernel-internal) events.
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


class Event:
    """A one-shot occurrence that processes can wait for.

    An event starts *pending*; it is *triggered* by :meth:`succeed` or
    :meth:`fail` and then delivered to its callbacks at the current
    simulation time (in scheduling order).  Processes wait on an event by
    yielding it.

    ``_callbacks`` holds ``None`` (no waiters), a single callable (the
    dominant case — one waiting process) or a list; ``_processed`` flips
    once delivery has happened.  This avoids a list allocation per event.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Any = None
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False

    # -- state -----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (succeed/fail was called)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or exception when failed)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim._now, priority, sim._seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters receive *exception*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim._now, priority, sim._seq, self))
        return self

    # -- subscription ----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register *fn* to run when the event is processed.

        If the event has already been processed the callback runs
        immediately (still at the current simulation time).
        """
        if self._processed:
            fn(self)
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self._callbacks = [cbs, fn]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6g}>"


class Timeout(Event):
    """An event that succeeds *delay* time units after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__: a timeout is born triggered, so it goes
        # straight onto the heap.
        self.sim = sim
        self._callbacks = None
        self._value = value
        self._ok = True
        self._processed = False
        sim._seq += 1
        heapq.heappush(sim._heap, (sim._now + delay, NORMAL, sim._seq, self))


class _Resume:
    """A slotted heap entry that starts a spawned process, pushed at
    ``(now, URGENT)`` when created.

    It duck-types the ``_ok`` / ``_value`` slice of the :class:`Event`
    interface that :meth:`Process._resume` reads, without the callback
    machinery of a full event.
    """

    __slots__ = ("_proc",)
    _ok = True
    _value = None

    def __init__(self, proc: "Process"):
        self._proc = proc
        sim = proc.sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim._now, URGENT, sim._seq, self))


class _Call:
    """A slotted heap entry that runs ``fn(*args)`` (:meth:`Simulator.call`)."""

    __slots__ = ("_fn", "_args")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self._fn = fn
        self._args = args


class Process(Event):
    """A running simulated activity wrapped around a generator.

    The process itself is an event that triggers when the generator
    terminates; yielding a process therefore *joins* it.  The generator
    return value becomes the event value, an uncaught exception fails it.
    """

    __slots__ = ("name", "_gen", "_bound_resume")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if type(gen) is not GeneratorType and not hasattr(gen, "send"):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        self.sim = sim
        self._callbacks = None
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        # One bound method for the process's whole life instead of one
        # allocation per yield.
        self._bound_resume = self._resume
        # Bootstrap fast path: start the generator at the current time
        # without allocating a full Event.
        _Resume(self)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        tcls = type(target)
        if tcls is Timeout or tcls is Event or isinstance(target, Event):
            if target.sim is not self.sim:
                self._gen.close()
                self.fail(SimulationError("yielded event belongs to another simulator"))
                return
            # Inlined single-waiter subscription (the hot path: every
            # transfer/timeout yield has exactly this one waiter).
            if target._processed:
                self._resume(target)
            elif target._callbacks is None:
                target._callbacks = self._bound_resume
            else:
                target.add_callback(self._bound_resume)
            return
        self._gen.close()
        self.fail(
            SimulationError(
                f"process {self.name!r} yielded {target!r}; processes "
                f"must yield Event instances"
            )
        )


class Simulator:
    """The event loop: a virtual clock plus a priority queue of events.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(2.0)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 2.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that succeeds after *delay* time units."""
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from generator *gen*."""
        return Process(self, gen, name)

    def call(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` in the heap slot a spawned process starts in."""
        self._seq += 1
        heapq.heappush(self._heap,
                       (self._now, URGENT, self._seq, _Call(fn, args)))

    # -- scheduling ------------------------------------------------------
    def step(self) -> bool:
        """Process the next event. Returns False when the queue is empty.

        Like :meth:`run`, a process that died with no waiter to deliver
        the exception to re-raises here instead of vanishing silently.
        """
        if not self._heap:
            return False
        time, _prio, _seq, event = heapq.heappop(self._heap)
        if time < self._now:  # pragma: no cover - defensive
            raise SimulationError("time went backwards")
        self._now = time
        cls = type(event)
        if cls is _Resume:
            event._proc._resume(event)
            return True
        if cls is _Call:
            event._fn(*event._args)
            return True
        # Deliver to the callbacks.  A falsy cbs (no waiters) on a failed
        # process means nobody will see the exception — surface it here.
        cbs = event._callbacks
        event._callbacks = None
        event._processed = True
        if cbs:
            if type(cbs) is list:
                for fn in cbs:
                    fn(event)
            else:
                cbs(event)
        elif isinstance(event, Process) and not event._ok:
            raise event._value
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the final simulation time — with *until* set, always
        ``max(until, now)``: the clock advances to *until* even when the
        event queue drains early.  If a process fails with an uncaught
        exception the exception propagates out of :meth:`run` unless
        some other process was joined on it.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                break
            time, _prio, _seq, event = pop(heap)
            self._now = time
            cls = type(event)
            if cls is _Resume:
                # Fast path: a spawn bootstrap starts its process
                # directly — no callback machinery to run.
                event._proc._resume(event)
                continue
            if cls is _Call:
                event._fn(*event._args)
                continue
            # Deliver to the callbacks (every other kind of entry).
            cbs = event._callbacks
            event._callbacks = None
            event._processed = True
            if cbs:
                if type(cbs) is list:
                    for fn in cbs:
                        fn(event)
                else:
                    cbs(event)
            elif isinstance(event, Process) and not event._ok:
                # A process died with no waiter to deliver the exception to;
                # surface it instead of silently swallowing the crash.
                raise event._value
        if until is not None and until > self._now:
            # Idle time up to the horizon still passes; the clock never
            # moves backwards to an *until* already behind it.
            self._now = until
        return self._now

"""Resources for the simulation kernel.

:class:`Resource` is a counting resource with a FIFO wait queue, used to
model CPUs and NIC serialization.  It hands out
:class:`~repro.simkernel.events.Event` objects: a process waits for a
grant with ``yield``, a callback chain with ``add_callback``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .events import _PENDING, Event, SimulationError, Simulator

__all__ = ["Resource"]


class Request(Event):
    """Event returned by :meth:`Resource.request`."""

    __slots__ = ("resource", "released")

    def __init__(self, sim: Simulator, resource: "Resource"):
        self.sim = sim
        self._callbacks = None
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.resource = resource
        self.released = False

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        self.resource.release(self)


class Resource:
    """Counting resource with *capacity* slots and a FIFO wait queue.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(work)
        finally:
            req.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: granted requests, each with the time it was granted (for the
        #: busy integral); insertion order keeps utilization() exact
        self._users: dict[Request, float] = {}
        self._queue: deque[Request] = deque()
        self.busy_time = 0.0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for a slot; the returned event succeeds when granted."""
        req = Request(self.sim, self)
        # Fast path: free slot and an empty queue — grant immediately
        # (exactly what _grant would do after the append).
        if not self._queue and len(self._users) < self.capacity:
            self._users[req] = self.sim.now
            req.succeed(req)
            return req
        self._queue.append(req)
        self._grant()
        return req

    def release(self, req: Request) -> None:
        """Return a previously granted slot."""
        if req.released:
            return
        if req in self._users:
            req.released = True
            self.busy_time += self.sim.now - self._users.pop(req)
            self._grant()
        elif req in self._queue:
            req.released = True
            self._queue.remove(req)
        else:
            raise SimulationError("release() of a request that was never granted")

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            self._users[req] = self.sim.now
            req.succeed(req)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of (capacity × elapsed) spent busy so far."""
        t = self.sim.now if elapsed is None else elapsed
        if t <= 0:
            return 0.0
        inflight = sum(self.sim.now - s for s in self._users.values())
        return (self.busy_time + inflight) / (t * self.capacity)

"""Queues and resources for the simulation kernel.

- :class:`Store` — an (optionally bounded) FIFO of items; the mailbox
  primitive used for DPS thread token queues and network links.
- :class:`Resource` — a counting resource with a FIFO wait queue; used to
  model CPUs and NIC serialization.

Both hand out :class:`~repro.simkernel.events.Event` objects so processes
interact with them via ``yield``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import _PENDING, Event, SimulationError, Simulator

__all__ = ["Store", "Resource"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`; succeeds when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any):
        # Inlined Event.__init__ (hot path: one per queued token).
        self.sim = sim
        self._callbacks = None
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; succeeds with the item."""

    __slots__ = ("filter",)

    def __init__(self, sim: Simulator, filter: Optional[Callable[[Any], bool]] = None):
        self.sim = sim
        self._callbacks = None
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.filter = filter


class Store:
    """FIFO item queue with optional capacity.

    ``put`` succeeds immediately while below capacity, otherwise the putter
    waits until a slot frees up.  ``get`` succeeds immediately when an item
    is available, otherwise the getter waits.  Both sides are served in
    strict FIFO order, which keeps simulations deterministic.

    ``get(filter=...)`` takes the first item (in queue order) matching the
    predicate; non-matching getters keep waiting.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    @property
    def waiting_putters(self) -> int:
        return len(self._putters)

    def put(self, item: Any) -> StorePut:
        """Queue *item*; returns an event that succeeds once stored."""
        ev = StorePut(self.sim, item)
        # Fast path: nobody queued on either side — store and (maybe)
        # hand straight to a waiting getter, same order _dispatch gives.
        if not self._putters and len(self.items) < self.capacity:
            self.items.append(item)
            ev.succeed()
            if self._getters:
                self._dispatch()
            return ev
        self._putters.append(ev)
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Queue *item* now, without the event :meth:`put` returns (for a
        putter that never waits); a full store raises SimulationError."""
        if self._putters or len(self.items) >= self.capacity:
            raise SimulationError(f"store {self.name!r} is full")
        getters = self._getters
        if getters and not self.items and getters[0].filter is None:
            # what _dispatch would do: the first getter takes the item
            getters.popleft().succeed(item)
            return
        self.items.append(item)
        if getters:
            self._dispatch()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Request an item; returns an event succeeding with the item."""
        ev = StoreGet(self.sim, filter)
        # Fast path: unfiltered get with stock on hand and no queue to
        # respect — pop directly (identical to what _dispatch would do).
        if (filter is None and not self._getters and not self._putters
                and self.items):
            ev.succeed(self.items.popleft())
            return ev
        self._getters.append(ev)
        if self.items:  # with none, a putter cannot be waiting either
            self._dispatch()
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop: ``(True, item)`` or ``(False, None)``."""
        if self.items and not self._getters:
            item = self.items.popleft()
            self._dispatch()
            return True, item
        return False, None

    def cancel_get(self, ev: StoreGet) -> None:
        """Withdraw a pending get request (no-op if already satisfied)."""
        try:
            self._getters.remove(ev)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        # Admit putters while capacity allows.
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            # Serve getters in FIFO order; with filters, each getter scans
            # the current items and takes the first match.
            i = 0
            while i < len(self._getters) and self.items:
                get = self._getters[i]
                if get.filter is None:
                    item = self.items.popleft()
                    del self._getters[i]
                    get.succeed(item)
                    progress = True
                    continue
                matched = None
                for j, item in enumerate(self.items):
                    if get.filter(item):
                        matched = j
                        break
                if matched is None:
                    i += 1
                    continue
                del self._getters[i]
                item = self.items[matched]
                del self.items[matched]
                get.succeed(item)
                progress = True


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

"""Routing functions: which thread instance receives a token (paper §3).

A routing function maps a token to an index within the target thread
collection.  Routes are classes so they can be stateful (round-robin
counters, load-balance bookkeeping); the :func:`route_fn` helper is the
analog of the paper's ``ROUTE`` macro for one-expression routes.

The runtime instantiates one route object per (controller node, flow-graph
node), and injects a :class:`RoutingContext` before the first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

from ..serial.token import Token
from .threads import ThreadCollection

__all__ = [
    "Route",
    "RoutingContext",
    "RoutingPolicy",
    "ROUTING_KINDS",
    "RoundRobinRoute",
    "ConstantRoute",
    "LoadBalancedRoute",
    "QueueDepthRoute",
    "route_fn",
]


class RoutingContext:
    """What a route may consult: collection size and feedback counters."""

    def __init__(
        self,
        collection: ThreadCollection,
        outstanding: Optional[Callable[[int], int]] = None,
        depth: Optional[Callable[[int], int]] = None,
    ):
        self.collection = collection
        self._outstanding = outstanding
        self._depth = depth

    @property
    def thread_count(self) -> int:
        return self.collection.thread_count

    def outstanding(self, index: int) -> int:
        """Tokens posted to thread *index* and not yet acknowledged.

        Fed by the flow-control ack stream (paper: "By incorporating
        additional information into posted data objects ... DPS achieves
        a simple form of load balancing").  Zero when no feedback is
        available.
        """
        if self._outstanding is None:
            return 0
        return self._outstanding(index)

    def depth(self, index: int) -> int:
        """Observed inbox depth of thread *index*.

        Engines that can see per-instance queues (the simulated engine
        exactly, the real engines for locally hosted instances) bind a
        depth feed here; otherwise the un-acked counter stands in — it
        is the wire-visible shadow of the same queue.
        """
        if self._depth is not None:
            return self._depth(index)
        return self.outstanding(index)


class Route:
    """Base class for routing functions.

    Subclasses implement :meth:`route` returning a thread index in
    ``[0, thread_count)``.
    """

    def __init__(self) -> None:
        self._ctx: Optional[RoutingContext] = None

    def bind(self, ctx: RoutingContext) -> "Route":
        self._ctx = ctx
        return self

    @property
    def ctx(self) -> RoutingContext:
        if self._ctx is None:
            raise RuntimeError(f"{type(self).__name__} used before bind()")
        return self._ctx

    @property
    def thread_count(self) -> int:
        return self.ctx.thread_count

    def route(self, token: Token) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, token: Token) -> int:
        index = self.route(token)
        n = self.thread_count
        if not isinstance(index, int) or not 0 <= index < n:
            raise ValueError(
                f"{type(self).__name__} returned {index!r}; must be an int "
                f"in [0, {n})"
            )
        return index


class ConstantRoute(Route):
    """Always the same instance — the paper's ``MainRoute`` idiom."""

    def __init__(self, index: int = 0):
        super().__init__()
        self.index = index

    def route(self, token: Token) -> int:
        return self.index


class RoundRobinRoute(Route):
    """Cycle through the collection (stateful per routing site)."""

    def __init__(self) -> None:
        super().__init__()
        self._next = 0

    def route(self, token: Token) -> int:
        index = self._next % self.thread_count
        self._next = index + 1
        return index


class LoadBalancedRoute(Route):
    """Prefer the instance with the fewest unacknowledged tokens.

    Ties break towards the lowest index, keeping runs deterministic.
    This is the paper's feedback-based load balancing: route "data
    objects to those processing nodes which have previously posted data
    objects to the merge operation".
    """

    def route(self, token: Token) -> int:
        ctx = self.ctx
        best, best_load = 0, None
        for i in range(ctx.thread_count):
            load = ctx.outstanding(i)
            if best_load is None or load < best_load:
                best, best_load = i, load
        return best


class QueueDepthRoute(Route):
    """Prefer the instance with the shallowest observed inbox.

    The adaptive flavour of the paper's ack-based load balancing: where
    :class:`LoadBalancedRoute` counts un-acked emissions *from this
    routing site*, this route consults the engine's queue-depth feed —
    total demand on each instance from every producer — so one saturated
    instance is avoided even when this site never posted to it.  Ties
    break towards the lowest index, keeping runs deterministic.
    """

    def route(self, token: Token) -> int:
        ctx = self.ctx
        best, best_load = 0, None
        for i in range(ctx.thread_count):
            load = ctx.depth(i)
            if best_load is None or load < best_load:
                best, best_load = i, load
        return best


#: Routing policy kinds :class:`RoutingPolicy` understands.
ROUTING_KINDS = ("round_robin", "queue_depth")


@dataclass(frozen=True)
class RoutingPolicy:
    """How split emissions pick a target instance (engine-wide).

    Frozen, like :class:`~repro.net.connections.TransportPolicy` and
    :class:`~repro.net.recovery.FaultPolicy`, so one policy object can be
    shared across forked kernel processes.  ``round_robin`` keeps each
    graph node's declared route untouched; ``queue_depth`` substitutes
    :class:`QueueDepthRoute` for declared :class:`RoundRobinRoute` /
    :class:`LoadBalancedRoute` sites.  Content-addressed routes
    (:class:`ConstantRoute`, :func:`route_fn` customs) are never
    overridden — they encode merge affinity or data placement, not load
    spreading, and rerouting them would break group/merge invariants.
    """

    kind: str = "round_robin"

    def __post_init__(self):
        if self.kind not in ROUTING_KINDS:
            raise ValueError(
                f"routing kind must be one of {ROUTING_KINDS}, "
                f"got {self.kind!r}")

    @property
    def adaptive(self) -> bool:
        return self.kind == "queue_depth"

    def route_class_for(self, declared: Type[Route]) -> Type[Route]:
        """The route class to instantiate for a site declared *declared*."""
        if self.kind == "queue_depth" and declared in (RoundRobinRoute,
                                                       LoadBalancedRoute):
            return QueueDepthRoute
        return declared


def route_fn(
    name: str, fn: Callable[[Token, int], int]
) -> Type[Route]:
    """Create a Route subclass from an expression — the ``ROUTE`` macro.

    *fn* receives ``(token, thread_count)`` and returns the index::

        RoundRobin = route_fn("RoundRobin", lambda tok, n: tok.pos % n)
    """

    def route(self: Route, token: Token) -> int:
        return fn(token, self.thread_count)

    return type(name, (Route,), {"route": route, "__doc__": f"ROUTE({name})"})

"""The shared engine contract, runtime envelopes and applications.

:class:`Engine` is the base every execution engine derives from — the
simulated cluster, the threaded engine and the multiprocess kernel
cluster all share one public surface: graph/application registration
(``register_graph``/``register_app``/``graph``), the
``run``/``shutdown``/context-manager lifecycle, and uniform
``policy=``/``tracer=``/``metrics=`` construction so observability
attaches the same way everywhere.

Tokens travelling between threads are wrapped in :class:`DataEnvelope`
carrying the "control structures giving information about their state and
position within the flow graph" that the paper describes: the target graph
node and instance, the activation id, and the stack of group frames pushed
by enclosing split/stream operations.

Small control messages implement the feedback machinery:

- :class:`AckMessage` — the matching merge acknowledges a consumed token
  to the split instance's controller (drives flow control and
  load-balanced routing);
- :class:`GroupTotalMessage` — a split/stream instance announces, when its
  body completes, how many tokens the group contains, so the merge knows
  when ``next_token()`` must return ``None``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, NamedTuple, Optional, Tuple

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..serial.token import Token

__all__ = [
    "Engine",
    "GroupFrame",
    "DataEnvelope",
    "AckMessage",
    "GroupTotalMessage",
    "Application",
    "RunResult",
    "ScheduleError",
    "KernelFailure",
    "DATA_HEADER_BYTES",
    "ACK_BYTES",
    "GROUP_TOTAL_BYTES",
    "coerce_run_result",
]

#: Wire overhead of the DPS control structures on each data token.
DATA_HEADER_BYTES = 128
#: Wire size of a token acknowledgement.
ACK_BYTES = 32
#: Wire size of a group-total announcement.
GROUP_TOTAL_BYTES = 48


class ScheduleError(RuntimeError):
    """Raised for runtime schedule violations (routing, group misuse)."""


class KernelFailure(ScheduleError, ConnectionError):
    """A kernel process (or simulated node) died and the run cannot finish.

    The one failure type every engine raises when an execution node is
    lost: the multiprocess runtime raises it for dead kernel processes
    and lost peer connections, the simulated engine for node failures
    past the recovery contract.  It multiply-inherits
    :class:`ScheduleError` and :class:`ConnectionError` so callers that
    caught either of the historical ad-hoc types keep working.
    """


class GroupFrame(NamedTuple):
    """One level of split-merge nesting attached to a token.

    A named tuple: every decoded data message and every split post builds
    one, so its constructor is on the per-token path.
    """

    group_id: int
    #: Emission index within the group (0-based).
    index: int
    #: Graph node id of the split/stream that opened the group.
    opener: int
    #: Thread index of the opening split/stream instance.
    opener_instance: int
    #: Node (machine) hosting the opening instance — ack destination.
    origin_node: str
    #: Thread index the token was routed to when it left the opener;
    #: echoed back in acks to drive load-balanced routing.
    routed_instance: int


@dataclass(slots=True)
class DataEnvelope:
    """A token in flight towards (graph, node_id, instance)."""

    token: Token
    graph: Flowgraph
    node_id: int
    instance: int
    ctx_id: int
    frames: Tuple[GroupFrame, ...] = ()
    #: Memoized wire size of ``token`` (payload only, without the data
    #: header), filled in by the engine the first time the envelope is
    #: priced at the NIC so later hops don't re-measure it.  Must be
    #: reset to ``None`` whenever ``token`` is replaced.
    wire_nbytes: Optional[int] = None
    #: Kernel that owns the activation's result queue.  ``None`` means the
    #: activation is local to the engine handling the envelope (the only
    #: case on the single-process engines); the multiprocess runtime sets
    #: it so depth-0 result tokens find their way back across the wire.
    ctx_origin: Optional[str] = None

    def top_frame(self) -> GroupFrame:
        if not self.frames:
            raise RuntimeError(
                f"token at {self.graph.node(self.node_id).name} has no "
                f"group frame; merge outside a split-merge construct"
            )
        return self.frames[-1]


@dataclass(frozen=True)
class AckMessage:
    """Merge → split feedback: one token of *group_id* was consumed."""

    graph_name: str
    opener: int
    opener_instance: int
    group_id: int
    routed_instance: int


@dataclass(frozen=True)
class GroupTotalMessage:
    """Split → merge instances: the group contains *total* tokens."""

    graph_name: str
    merge_node: int
    instance: int
    group_id: int
    total: int


class Application:
    """A named DPS application: a bundle of flow graphs.

    Applications expose graphs by name; another application can call an
    exposed graph as if it were a leaf operation (paper §4–5).  The
    runtime launches application instances lazily on the nodes that
    receive tokens, charging the node's launch delay once.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("application name must be non-empty")
        self.name = name
        self.graphs: dict[str, Flowgraph] = {}

    def expose(self, graph: Flowgraph, name: Optional[str] = None) -> Flowgraph:
        """Register *graph* under *name* (default ``graph.name``)."""
        key = name or graph.name
        if key in self.graphs and self.graphs[key] is not graph:
            raise ValueError(f"application {self.name!r} already exposes {key!r}")
        self.graphs[key] = graph
        return graph

    def __repr__(self) -> str:
        return f"<Application {self.name!r} graphs={sorted(self.graphs)}>"


@dataclass
class RunResult:
    """Outcome of one graph activation."""

    token: Token
    #: Virtual time when the activation started / its result reached the
    #: driver node.
    started_at: float
    finished_at: float
    #: ``True`` when the engine lost an execution node at some point and
    #: replayed journaled tokens to finish (sticky across runs on the
    #: multiprocess engine — once a kernel died, every later result was
    #: produced by the degraded cluster).
    recovered: bool = False
    #: Journaled tokens re-delivered so far to mask failures (cumulative
    #: per engine; ``0`` on a fault-free run).
    replayed_tokens: int = 0
    #: Voluntary membership changes (``add_kernel``/``retire_kernel``
    #: rebalances) the engine has performed so far — cumulative per
    #: engine, like :attr:`replayed_tokens`.
    rebalances: int = 0
    #: Thread instances migrated between nodes by those rebalances
    #: (cumulative per engine).
    tokens_moved: int = 0

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at


class Engine:
    """Base class of the three execution engines.

    Defines the engine-agnostic surface once:

    - **registration**: :meth:`register_graph`, :meth:`register_app` and
      :meth:`graph` lookup (subclasses validate placements via the
      :meth:`_validate_graph` hook);
    - **lifecycle**: :meth:`shutdown` (idempotent no-op by default) and
      ``with engine: ...`` context management;
    - **observability**: every engine accepts ``tracer=`` (a
      :class:`~repro.trace.Tracer` recording the unified event
      vocabulary of :mod:`repro.trace.events`) and ``metrics=`` (a
      :class:`~repro.trace.MetricsRegistry`) and a ``policy=`` flow
      control policy.  Both observers default to ``None`` and every
      emit site is guarded, so instrumentation is near-free when
      disabled.
    """

    def __init__(
        self,
        policy: Optional[FlowControlPolicy] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        stream: Optional[StreamPolicy] = None,
    ):
        self.policy = policy if policy is not None else FlowControlPolicy()
        #: Streaming credit configuration (per-edge credit windows and
        #: the shedding mode); the default instance inherits ``policy``
        #: everywhere and blocks, i.e. batch behaviour is unchanged.
        self.stream = stream if stream is not None else StreamPolicy()
        self.tracer = tracer
        self.metrics = metrics
        self._graphs: Dict[str, Flowgraph] = {}
        self._graph_app: Dict[str, str] = {}
        #: Process label stamped on trace events (kernel name on the
        #: multiprocess runtime); ``None`` on single-process engines.
        self._trace_pid: Optional[str] = None
        #: :class:`RunResult` of the most recent ``run()`` on this engine,
        #: with wall-clock (or virtual) timestamps and the recovery
        #: fields filled in.  Engines that return a bare token from
        #: ``run()`` still publish the full result here.
        self.last_result: Optional["RunResult"] = None

    # ------------------------------------------------------------------
    # registration (defined once; historical per-engine spellings such as
    # ThreadedEngine's "accepted for SimEngine parity" app_name shim are
    # deprecated in favour of this shared implementation)
    # ------------------------------------------------------------------
    def register_app(self, app: "Application") -> None:
        """Register every graph of *app*; they can then be run or called."""
        for name, graph in app.graphs.items():
            self._register(graph, app.name, name)

    def register_graph(self, graph: Flowgraph, app_name: str = "app") -> None:
        """Register a standalone graph under a default application."""
        self._register(graph, app_name, graph.name)

    def _register(self, graph: Flowgraph, app_name: str, name: str) -> None:
        existing = self._graphs.get(name)
        if existing is not None and existing is not graph:
            raise ValueError(f"graph name {name!r} already registered")
        self._validate_graph(graph)
        self._graphs[name] = graph
        self._graph_app[graph.name] = app_name

    def _validate_graph(self, graph: Flowgraph) -> None:
        """Hook: engines check thread placements against their cluster."""

    def graph(self, name: str) -> Flowgraph:
        try:
            return self._graphs[name]
        except KeyError:
            raise KeyError(
                f"unknown graph {name!r}; registered: {sorted(self._graphs)}"
            ) from None

    def _resolve_entry(self, graph, token: Token,
                       scatter: bool = False) -> Flowgraph:
        """Look up / register *graph* and check *token* may start it."""
        if isinstance(graph, str):
            graph = self.graph(graph)
        elif graph.name not in self._graphs:
            self.register_graph(graph)
        if graph.scatter and not scatter:
            raise ScheduleError(
                f"scatter graph {graph.name!r} must be invoked through "
                f"call_scatter() from a split/stream operation"
            )
        if not isinstance(token, Token):
            raise TypeError(
                f"graph input must be a Token, got {type(token).__name__}")
        entry = graph.node(graph.entry).op_class
        if not entry.accepts(type(token)):
            raise ScheduleError(
                f"graph {graph.name!r} entry accepts "
                f"{[t.__name__ for t in entry.in_types]}, "
                f"got {type(token).__name__}"
            )
        return graph

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def run(self, graph, token: Token, **kwargs):
        raise NotImplementedError

    def fail_node(self, node_name: str) -> int:
        """Fail the execution node *node_name* mid-run.

        Returns the number of thread instances (SimEngine) or kernel
        processes (MultiprocessEngine) lost.  Engines that have no
        notion of an independently failing node raise
        :class:`NotImplementedError`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support fail_node(); it is "
            "supported on SimEngine (discards the node's thread state) "
            "and MultiprocessEngine (kills the node's kernel process)"
        )

    # ------------------------------------------------------------------
    # elastic membership (implemented by SimEngine instantly and by
    # MultiprocessEngine behind the member/replay cluster barriers)
    # ------------------------------------------------------------------
    def add_kernel(self, node_name: Optional[str] = None) -> str:
        """Grow the cluster by one execution node mid-run.

        The engine registers the new node, rebalances thread instances
        onto it (migrating live thread state), and resumes with results
        bit-identical to a static run.  Returns the new node's name.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support add_kernel(); it is "
            "supported on SimEngine (extends the simulated cluster) and "
            "MultiprocessEngine (forks a kernel process that joins via "
            "the name server)"
        )

    def retire_kernel(self, node_name: str) -> int:
        """Drain *node_name* and remap its thread instances off it.

        Graceful: the node hands its thread state to the survivors
        before leaving, so no journal replay storm.  Returns the number
        of thread instances moved.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support retire_kernel(); it "
            "is supported on SimEngine (migrates instances off the node) "
            "and MultiprocessEngine (drains and stops the node's kernel "
            "process)"
        )

    def members(self) -> Tuple[str, ...]:
        """Names of the live execution nodes, sorted."""
        raise NotImplementedError(
            f"{type(self).__name__} does not track cluster membership; "
            "members() is supported on SimEngine and MultiprocessEngine"
        )

    def shutdown(self) -> None:
        """Release engine resources (idempotent; no-op by default)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _now(self) -> float:
        """Engine clock for trace timestamps (virtual on SimEngine)."""
        return time.monotonic()

    def trace(self, kind: str, **fields: Any) -> None:
        """Emit one trace event if a tracer is attached.

        Hot paths guard with ``if self.tracer is not None`` before
        calling so the disabled case costs one attribute load.
        """
        tracer = self.tracer
        if tracer is not None:
            if self._trace_pid is not None:
                fields.setdefault("pid", self._trace_pid)
            tracer.emit(self._now(), kind, **fields)


def coerce_run_result(outcome, started_at: float, finished_at: float) -> RunResult:
    """Normalize an engine ``run()`` outcome into a :class:`RunResult`.

    :class:`~repro.runtime.sim_engine.SimEngine` returns a
    :class:`RunResult` with virtual timestamps; the real-execution engines
    return the bare result token.  Application wrappers that must work on
    any engine wrap the outcome with their own wall-clock timestamps.
    """
    if isinstance(outcome, RunResult):
        return outcome
    return RunResult(outcome, started_at, finished_at)

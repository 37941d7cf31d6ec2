"""Reproduction of "DPS - Dynamic Parallel Schedules" (Gerlach & Hersch,
HIPS/IPDPS 2003).

A dataflow framework for parallel applications on distributed-memory
clusters: compositional split-compute-merge flow graphs with stream
operations, dynamic thread-collection mapping, implicit pipelining and
overlap of computation and communication, flow control, and parallel
services — executed on a deterministic simulated cluster
(:class:`~repro.runtime.SimEngine`, virtual time), in real time on one
I/O loop (:class:`~repro.runtime.ThreadedEngine`), or on one OS process per
logical node over TCP (:class:`~repro.runtime.MultiprocessEngine`).
All three share the :class:`~repro.runtime.Engine` API — build them
uniformly with :func:`~repro.runtime.create_engine` and attach a
:class:`~repro.trace.Tracer`/:class:`~repro.trace.MetricsRegistry` for
observability on any of them.

Quick tour::

    from repro import (
        SimEngine, paper_cluster, ThreadCollection, DpsThread,
        Flowgraph, FlowgraphNode, SplitOperation, LeafOperation,
        MergeOperation, ConstantRoute, RoundRobinRoute,
    )

See ``examples/quickstart.py`` and the README for the full story; the
``repro.experiments`` package regenerates every table and figure of the
paper's evaluation (``python -m repro.cli all --fast``).
"""

from .cluster import (
    Cluster,
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    paper_cluster,
)
from .core import (
    ArrivalProcess,
    ConstantRoute,
    DpsThread,
    FlowControlPolicy,
    Flowgraph,
    FlowgraphBuilder,
    FlowgraphNode,
    GraphError,
    LeafOperation,
    LoadBalancedRoute,
    MergeOperation,
    Operation,
    QueueDepthRoute,
    Route,
    RoundRobinRoute,
    RoutingPolicy,
    SplitOperation,
    StreamOperation,
    StreamPolicy,
    StreamSource,
    ThreadCollection,
    Watermark,
    WindowSpec,
    WindowedStream,
    route_fn,
)
from .runtime import (
    Application,
    Engine,
    FaultPolicy,
    KernelFailure,
    MultiprocessEngine,
    RunResult,
    ScalingPolicy,
    ScheduleError,
    SimEngine,
    ThreadedEngine,
    create_engine,
)
from .net import TransportPolicy
from .serial import Buffer, ComplexToken, SimpleToken, Token, Vector
from .service import AdmissionPolicy, ServiceClient, ServiceEngine
from .trace import MetricsRegistry, Tracer, export_chrome_trace

__version__ = "1.0.0"

__all__ = [
    "AdmissionPolicy",
    "Application",
    "ArrivalProcess",
    "Buffer",
    "Cluster",
    "ClusterSpec",
    "ComplexToken",
    "ConstantRoute",
    "DpsThread",
    "Engine",
    "FaultPolicy",
    "FlowControlPolicy",
    "Flowgraph",
    "FlowgraphBuilder",
    "FlowgraphNode",
    "GraphError",
    "KernelFailure",
    "LeafOperation",
    "LoadBalancedRoute",
    "MergeOperation",
    "MetricsRegistry",
    "MultiprocessEngine",
    "NetworkSpec",
    "NodeSpec",
    "Operation",
    "QueueDepthRoute",
    "RoundRobinRoute",
    "Route",
    "RoutingPolicy",
    "RunResult",
    "ScalingPolicy",
    "ScheduleError",
    "ServiceClient",
    "ServiceEngine",
    "SimEngine",
    "SimpleToken",
    "SplitOperation",
    "StreamOperation",
    "StreamPolicy",
    "StreamSource",
    "ThreadCollection",
    "ThreadedEngine",
    "Token",
    "Tracer",
    "TransportPolicy",
    "Vector",
    "Watermark",
    "WindowSpec",
    "WindowedStream",
    "create_engine",
    "export_chrome_trace",
    "paper_cluster",
    "route_fn",
]

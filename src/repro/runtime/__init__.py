"""Execution engines for DPS schedules."""

from typing import Union

from ..core.routing import RoutingPolicy
from ..net.recovery import FaultPolicy
from .base import (
    ACK_BYTES,
    DATA_HEADER_BYTES,
    GROUP_TOTAL_BYTES,
    AckMessage,
    Application,
    DataEnvelope,
    Engine,
    GroupFrame,
    GroupTotalMessage,
    RunResult,
    coerce_run_result,
)
from .checkpoint import Checkpoint, CheckpointManager
from .controller import KernelFailure, ScheduleError, SimController
from .multiprocess_engine import MultiprocessEngine
from .scaling import ScalingPolicy
from .sim_engine import SimEngine
from .threaded_engine import ThreadedEngine

__all__ = [
    "ACK_BYTES",
    "AckMessage",
    "Application",
    "Checkpoint",
    "CheckpointManager",
    "Engine",
    "FaultPolicy",
    "KernelFailure",
    "DATA_HEADER_BYTES",
    "DataEnvelope",
    "ENGINE_KINDS",
    "GROUP_TOTAL_BYTES",
    "GroupFrame",
    "GroupTotalMessage",
    "MultiprocessEngine",
    "RoutingPolicy",
    "RunResult",
    "ScalingPolicy",
    "ScheduleError",
    "SimController",
    "SimEngine",
    "ThreadedEngine",
    "coerce_run_result",
    "create_engine",
]

#: Engine kinds :func:`create_engine` understands.
ENGINE_KINDS = ("sim", "threaded", "multiprocess")

#: Options every engine kind accepts.  ``transport`` and ``faults`` are
#: accepted uniformly so harnesses can pass one option dict to any kind;
#: engines that cannot honour a *non-None* value reject it with an
#: explanation rather than silently ignoring it.  ``nodes`` sizes the
#: simulated cluster and is accepted (and ignored) elsewhere because
#: real-execution placements need no declaration.
_COMMON_OPTS = frozenset({
    "policy", "tracer", "metrics", "transport", "faults", "nodes",
    "routing", "stream",
})

#: Engine-specific options on top of :data:`_COMMON_OPTS`.
_ENGINE_OPTS = {
    "sim": frozenset({"cluster", "serialize_payloads",
                      "charge_serialization"}),
    "multiprocess": frozenset({"dial_deadline", "startup_timeout",
                               "recover", "heartbeat_interval",
                               "heartbeat_miss_limit", "ns_port",
                               "scaling"}),
}

#: Only the multiprocess engine has a wire (transport tuning) and real
#: processes to kill (fault injection).
_MP_ONLY = frozenset({"transport", "faults"})


def _check_opts(kind: str, opts: dict) -> None:
    if kind != "multiprocess":
        for name in sorted(_MP_ONLY):
            if opts.get(name) is not None:
                raise ValueError(
                    f"{name}= is only honoured by the multiprocess engine "
                    f"(the {kind!r} engine has no "
                    f"{'wire' if name == 'transport' else 'kernel processes'}"
                    f"); pass {name}=None or use "
                    f"create_engine('multiprocess')")
    allowed = _COMMON_OPTS | _ENGINE_OPTS.get(kind, frozenset())
    unknown = sorted(set(opts) - allowed)
    if unknown:
        hints = []
        for name in unknown:
            owners = sorted(k for k, extra in _ENGINE_OPTS.items()
                            if name in extra)
            if owners:
                hints.append(f"{name!r} is a {'/'.join(owners)} option")
            else:
                hints.append(f"{name!r} is not an engine option")
        raise ValueError(
            f"unknown option(s) for create_engine({kind!r}): "
            f"{', '.join(hints)}; {kind!r} accepts {sorted(allowed)}")


def create_engine(kind: str, **opts) -> Union[SimEngine, ThreadedEngine,
                                              MultiprocessEngine]:
    """Build an execution engine by name with uniform options.

    *kind* is ``"sim"``, ``"threaded"`` or ``"multiprocess"``.  Every
    kind accepts ``policy=``, ``tracer=``, ``metrics=``, ``routing=``
    (a :class:`~repro.core.routing.RoutingPolicy` selecting round-robin
    or queue-depth adaptive split routing), ``stream=`` (a
    :class:`~repro.core.flowcontrol.StreamPolicy` setting per-edge
    credit windows and the shedding mode for streaming stages),
    ``transport=`` and
    ``faults=`` (the last two must be ``None`` outside the multiprocess
    engine, which is the only one with a wire to tune and kernel
    processes to kill); ``scaling=`` attaches an autoscaling
    :class:`~repro.runtime.scaling.ScalingPolicy` to the multiprocess
    engine.  Remaining options are engine-specific — see the engine
    matrix in ``DESIGN.md``.  Unknown options raise ``ValueError``
    naming the engine kinds that do accept them.

    The simulated engine needs a cluster; pass ``cluster=`` explicitly,
    or ``nodes=N`` to build the paper's homogeneous cluster, defaulting
    to 4 nodes (``node01`` .. ``node04``)::

        engine = create_engine("sim", nodes=8, tracer=Tracer())
        with create_engine("threaded") as engine:
            ...
    """
    if kind not in ENGINE_KINDS:
        raise ValueError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
    _check_opts(kind, opts)
    if kind == "sim":
        from ..cluster import paper_cluster
        opts.pop("transport", None)
        opts.pop("faults", None)
        cluster = opts.pop("cluster", None)
        nodes = opts.pop("nodes", 4)
        if cluster is None:
            cluster = paper_cluster(nodes)
        return SimEngine(cluster, **opts)
    if kind == "threaded":
        opts.pop("transport", None)
        opts.pop("faults", None)
        opts.pop("nodes", None)  # placement labels need no declaration
        return ThreadedEngine(**opts)
    opts.pop("nodes", None)  # kernels come from the graph mappings
    return MultiprocessEngine(**opts)

"""Node model: a cluster machine with CPUs and NIC endpoints.

A :class:`NodeSpec` describes a machine (how many CPUs, effective FLOP
rate); binding a spec to a simulator yields a :class:`Node` holding the
simulation resources: a counting CPU resource (capacity = number of CPUs,
the paper's machines are bi-processor) and full-duplex NIC send/receive
resources used by :class:`~repro.cluster.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..simkernel import Resource, Simulator

__all__ = ["NodeSpec", "Node"]


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a machine.

    Parameters mirror the paper's testbed: bi-processor 733 MHz Pentium
    III PCs.  ``flops`` is the *effective* double-precision rate of the
    unoptimized C++ kernels the paper used (no tuned BLAS), not the chip's
    peak.
    """

    name: str
    cpus: int = 2
    flops: float = 80e6
    #: Delay charged when the DPS kernel lazily launches an application
    #: instance on this node (paper §4: ~1 s for full 8-node startup).
    launch_delay: float = 0.125
    #: Physical machine hosting this node.  Defaults to the node name;
    #: several nodes may share a host (the paper's multiple-kernels-per-
    #: host debugging setup), in which case transfers between them use
    #: the loopback parameters of the network model.
    host: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if not self.host:
            object.__setattr__(self, "host", self.name)
        if self.cpus < 1:
            raise ValueError("node needs at least one CPU")
        if self.flops <= 0:
            raise ValueError("flops must be positive")
        if self.launch_delay < 0:
            raise ValueError("launch_delay must be >= 0")


class Node:
    """A machine bound to a running simulation."""

    def __init__(self, sim: Simulator, spec: NodeSpec):
        self.sim = sim
        self.spec = spec
        self.cpu = Resource(sim, capacity=spec.cpus, name=f"{spec.name}.cpu")
        self.nic_tx = Resource(sim, capacity=1, name=f"{spec.name}.tx")
        self.nic_rx = Resource(sim, capacity=1, name=f"{spec.name}.rx")
        #: Cumulative virtual seconds of computation charged on this node.
        self.compute_time = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    def compute(self, seconds: float, then: Callable[[], None]) -> None:
        """Occupy one CPU for *seconds* of virtual time, then call
        ``then()`` once the CPU is released.

        The chain a process would wait through — request, timeout,
        release — as one callback per event and no event of its own, so
        nothing lands between the release and ``then()``.
        """
        if seconds < 0:
            raise ValueError("compute time must be >= 0")

        def done(ev) -> None:
            self.compute_time += seconds
            ev.value.release()
            then()

        # A CPU grant's value is its request; the timeout carries it on
        # to the callback that releases it.
        self.cpu.request().add_callback(
            lambda req: self.sim.timeout(seconds, req).add_callback(done))

    def seconds_for_flops(self, flops: float) -> float:
        """Virtual duration of a computation of *flops* on this node."""
        return flops / self.spec.flops

    def cpu_utilization(self) -> float:
        """Fraction of available CPU-time spent computing so far."""
        return self.cpu.utilization()

    def __repr__(self) -> str:
        return f"<Node {self.spec.name} cpus={self.spec.cpus}>"

"""Autoscaling policy: queue-depth gauges drive spawn/retire decisions.

The elastic-membership machinery (`add_kernel`/`retire_kernel`) gives the
cluster a control surface; :class:`ScalingPolicy` is the controller that
drives it.  Modeled on the decentralized "demand scaling" idea (saturated
nodes spawn replicas): per-kernel queue depths — shipped with heartbeat
leases to the name server and mirrored in the ``queue_depth_total``
metrics gauge — are compared against high/low watermarks, with a
cooldown so one burst cannot trigger a spawn/retire oscillation.

The policy itself is a pure, frozen decision function (engine-agnostic
and unit-testable under virtual time); the
:class:`~repro.runtime.multiprocess_engine.MultiprocessEngine` autoscaler
thread and sim-engine harnesses both consume it through
:meth:`ScalingPolicy.decide`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

__all__ = ["ScalingPolicy"]


@dataclass(frozen=True)
class ScalingPolicy:
    """When to grow or shrink the kernel cluster.

    Frozen (shareable across forked kernels) with validation in
    ``__post_init__``, following the
    :class:`~repro.net.connections.TransportPolicy` /
    :class:`~repro.net.recovery.FaultPolicy` pattern.
    """

    #: Never shrink below this many kernels.
    min_kernels: int = 1
    #: Never grow beyond this many kernels.
    max_kernels: int = 8
    #: Grow when any kernel's observed queue depth reaches this.
    queue_high: int = 8
    #: Shrink when every kernel's observed queue depth is at or below
    #: this (the cluster is over-provisioned).
    queue_low: int = 1
    #: Seconds between scaling actions (per direction-agnostic change).
    cooldown: float = 2.0

    def __post_init__(self):
        if self.min_kernels < 1:
            raise ValueError(
                f"min_kernels must be >= 1: {self.min_kernels}")
        if self.max_kernels < self.min_kernels:
            raise ValueError(
                f"max_kernels ({self.max_kernels}) must be >= min_kernels "
                f"({self.min_kernels})")
        if self.queue_low < 0:
            raise ValueError(f"queue_low must be >= 0: {self.queue_low}")
        if self.queue_high <= self.queue_low:
            raise ValueError(
                f"queue_high ({self.queue_high}) must be > queue_low "
                f"({self.queue_low})")
        if self.cooldown < 0.0:
            raise ValueError(f"cooldown must be >= 0: {self.cooldown}")

    def decide(self, n_kernels: int, depths: Mapping[str, int],
               last_change: float, now: float) -> Optional[str]:
        """``"grow"``, ``"shrink"`` or ``None`` (hold).

        *depths* maps kernel name → observed queue depth; *last_change*
        and *now* are timestamps on any shared monotonic clock (wall
        clock on the real engines, virtual time in the simulator).
        Decisions are pure: same inputs, same answer.
        """
        if now - last_change < self.cooldown:
            return None
        if not depths:
            return None
        peak = max(depths.values())
        if peak >= self.queue_high and n_kernels < self.max_kernels:
            return "grow"
        if peak <= self.queue_low and n_kernels > self.min_kernels:
            return "shrink"
        return None

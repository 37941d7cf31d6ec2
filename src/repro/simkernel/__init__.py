"""Deterministic discrete-event simulation kernel.

The substrate under the DPS simulated-cluster runtime: a virtual clock,
events, generator-based processes, plain callbacks on the event heap and
counting resources.
"""

from .events import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource

__all__ = [
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Timeout",
]

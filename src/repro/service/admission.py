"""Admission control for the resident service tier.

One frozen policy object answers the three questions a multi-tenant
service console has to settle before it touches a request:

- how many graph calls may *execute* concurrently (``max_concurrent`` —
  activations in flight on the console's loop, so this also bounds
  scheduler pressure on the kernel cluster),
- how many admitted calls may *wait* behind them (``max_queue`` —
  bounded queueing converts overload into fast ``MSG_SVC_BUSY`` sheds
  instead of unbounded latency), and
- how many calls one client session may have in flight
  (``session_window`` — the per-client flow-control window, the
  :class:`~repro.core.flowcontrol.SplitWindow` semantics applied at the
  session boundary so a single aggressive client cannot monopolise the
  shared cluster).

A request is shed when the cluster is draining, when its session window
is full, or when ``outstanding >= capacity`` (executing + queued).  A
shed burns the request id — the client retries under a *new* id, which
is what keeps admission decisions distinguishable from lost frames
(those are resent under the *same* id and deduplicated server-side).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AdmissionPolicy"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Knobs for the service console's admission decisions."""

    #: Graph calls executing at once (activations in flight).
    max_concurrent: int = 4
    #: Admitted calls allowed to queue behind the executing ones.
    max_queue: int = 16
    #: Per-client in-flight cap; also the largest window a session open
    #: may request.
    session_window: int = 8

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if self.session_window < 1:
            raise ValueError("session_window must be >= 1")

    @property
    def capacity(self) -> int:
        """Total admitted calls the console will hold (executing+queued)."""
        return self.max_concurrent + self.max_queue

    def grant_window(self, requested: int) -> int:
        """Clamp a session-open window request; 0 means "server default"."""
        if requested <= 0:
            return self.session_window
        return max(1, min(int(requested), self.session_window))

"""Lightweight metrics registry shared by all execution engines.

Counters, gauges and histograms keyed by name, created lazily on first
use so instrumentation sites stay one-liners::

    metrics = MetricsRegistry()
    engine = create_engine("threaded", metrics=metrics)
    ...
    metrics.counter("tokens_posted").value
    print(metrics.report())

The registry is deliberately tiny: plain attributes mutated under the
GIL (best-effort accuracy under free-threaded contention, which is the
right trade for hot-path instrumentation), a :meth:`MetricsRegistry.snapshot`
for shipping across process boundaries, and :meth:`MetricsRegistry.merge`
for cross-kernel aggregation — the multiprocess runtime ships each
kernel's snapshot to the console in the shutdown trace message and merges
them here (counters add, gauges keep the max, histograms combine their
moments).

Engines populate a common set of series when a registry is attached:
``tokens_posted``, ``wire_bytes``, ``wire_messages``, ``acks``,
``stalls`` (counters), ``queue_depth`` (gauge, peak inbox depth),
``stall_seconds`` and ``serialize_seconds`` (histograms).  Token rate is
derived: ``tokens_posted / elapsed``.  The multiprocess transport adds
``frames_per_syscall`` (histogram — a frame written when it is made
counts 1, a loop flush its batch: ≈ 1 while frames flow, above 1 when
they wait behind a backlog), ``shm_bytes_bypassed`` (message bytes
that took the shared-memory lane instead of TCP) and ``token_drops``
(messages discarded after a peer kernel failed).  The
I/O loop adds ``io_loop_wakeups`` (counter — selector passes),
``partial_writes`` (counter — short ``sendmsg`` calls,
i.e. EAGAIN or fewer bytes accepted than offered) and ``outbox_depth``
(gauge — frames queued behind a write-blocked peer socket; its peak is
the high-water backpressure mark).  The resident service tier
(``repro.service``) adds ``svc_calls`` (admitted graph calls),
``svc_shed`` (requests answered ``MSG_SVC_BUSY``) and
``svc_duplicates`` (same-id resends dropped by exactly-once dedup)
counters; ``svc_sessions``, ``svc_inflight`` and ``svc_queue_depth``
gauges; and per-service ``svc_latency_seconds:<name>`` histograms
(admission-to-reply wall seconds).  The elastic-membership layer adds
``queue_depth_total`` (gauge — the per-kernel pending-token total each
kernel ships with its heartbeat lease; the feed behind queue-depth
adaptive routing and :class:`~repro.runtime.scaling.ScalingPolicy`),
``rebalances`` and ``tokens_moved`` (counters — voluntary membership
changes and the thread instances they migrated), ``heartbeats_missed``
(counter — liveness-lease expiries observed by the console) and
``rebalance_seconds`` (histogram — quiesce-to-resume wall seconds per
membership change).
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A sampled value; remembers the peak seen."""

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class Histogram:
    """Count / sum / min / max of observed values (no buckets)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters/gauges/histograms with snapshot/merge support."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- accessors (create on first use) --------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram()
        return h

    # -- aggregation ----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict view the token codec carries (for the wire / reports).

        Series at their zero state (never touched, or untouched since
        :meth:`clear`) are left out: ``clear`` keeps the instruments, and
        merging an idle ``(0, 0)`` gauge would reset the receiver's last
        value.  ``list(...)`` because other threads may add series.
        """
        return {
            "counters": {k: c.value for k, c in list(self._counters.items())
                         if c.value},
            "gauges": {k: (g.value, g.peak)
                       for k, g in list(self._gauges.items())
                       if g.value or g.peak},
            "histograms": {
                k: (h.count, h.total, h.min, h.max)
                for k, h in list(self._histograms.items()) if h.count
            },
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, (value, peak) in snapshot.get("gauges", {}).items():
            g = self.gauge(name)
            g.set(value)
            if peak > g.peak:
                g.peak = peak
        for name, (count, total, mn, mx) in snapshot.get(
                "histograms", {}).items():
            h = self.histogram(name)
            if count:
                h.count += count
                h.total += total
                if mn < h.min:
                    h.min = mn
                if mx > h.max:
                    h.max = mx

    def clear(self) -> None:
        """Zero every series in place.

        Instrument objects survive, so a handle looked up once (the I/O
        loop keeps its ``io_loop_wakeups`` counter) keeps feeding the
        registry after a trace flush cleared it.
        """
        for c in list(self._counters.values()):
            c.value = 0
        for g in list(self._gauges.values()):
            g.value = g.peak = 0.0
        for h in list(self._histograms.values()):
            h.count, h.total, h.min, h.max = 0, 0.0, float("inf"), 0.0

    # -- reporting ------------------------------------------------------
    def report(self) -> str:
        """Human-readable dump of every series :meth:`snapshot` holds."""
        snap = self.snapshot()
        lines = []
        for name, value in sorted(snap["counters"].items()):
            lines.append(f"counter   {name:<24} {value}")
        for name, (value, peak) in sorted(snap["gauges"].items()):
            lines.append(f"gauge     {name:<24} {value:g} (peak {peak:g})")
        for name, (count, total, mn, mx) in sorted(
                snap["histograms"].items()):
            lines.append(
                f"histogram {name:<24} n={count} mean={total / count:.6g} "
                f"min={mn:.6g} max={mx:.6g}"
            )
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def __repr__(self) -> str:
        return (f"<MetricsRegistry counters={len(self._counters)} "
                f"gauges={len(self._gauges)} "
                f"histograms={len(self._histograms)}>")

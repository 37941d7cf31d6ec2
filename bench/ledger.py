"""The per-layer ledger: counts, busy time and waiting time per layer.

Derived from what the program already publishes when a ``Tracer`` and a
``MetricsRegistry`` are attached (counters, ``op_end.duration``,
``stall_seconds``, ``serialize_seconds``, ``svc_reply.seconds``), from
``/proc`` per process role, and from the layer probes.  Nothing is read
from private state.  A counter the program no longer publishes reads 0;
a probe whose import fails reads ``probes.UNAVAILABLE``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from . import probes
from .measure import percentile
from .workloads import Rep, Workload


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_registry(snapshot: dict, tokens: int) -> Dict[str, float]:
    """Layer metrics that are plain counter arithmetic on a
    ``MetricsRegistry.snapshot()``."""
    c = snapshot.get("counters", {}).get
    histograms = snapshot.get("histograms", {})
    gauges = snapshot.get("gauges", {})

    def hist(name: str) -> tuple:
        """(count, total) of a histogram."""
        return histograms.get(name, (0, 0.0))[:2]

    def gauge(name: str, default: float) -> float:
        """Peak of a gauge."""
        return gauges[name][1] if name in gauges else default

    codec_calls = (c("codec_plan_hits", 0) + c("codec_compiled_hits", 0)
                   + c("codec_fallbacks", 0))
    frames = hist("frames_per_syscall")
    return {
        "serial.bytes_per_tok": _ratio(c("wire_bytes", 0), tokens),
        "serial.serialize_us_per_tok":
            _ratio(hist("serialize_seconds")[1] * 1e6, tokens),
        "serial.plan_hit_frac": _ratio(c("codec_plan_hits", 0), codec_calls),
        "serial.fallbacks_per_tok": _ratio(c("codec_fallbacks", 0), tokens),
        "net.eventloop.wakeups_per_tok": _ratio(c("io_loop_wakeups", 0), tokens),
        "net.eventloop.frames_per_syscall": _ratio(frames[1], frames[0]),
        "net.eventloop.partial_writes": float(c("partial_writes", 0)),
        "net.connections.outbox_depth_max": float(gauge("outbox_depth", 0.0)),
        "net.shm.bypass_frac":
            _ratio(c("shm_bytes_bypassed", 0), c("wire_bytes", 0)),
        "net.kernel.wire_msgs_per_tok": _ratio(c("wire_messages", 0), tokens),
        "net.kernel.acks_per_tok": _ratio(c("acks", 0), tokens),
        "net.kernel.acks_coalesced_frac":
            _ratio(c("acks_coalesced", 0), c("acks", 0)),
        "core.flowcontrol.stalls_per_tok": _ratio(c("stalls", 0), tokens),
        "core.flowcontrol.stall_wait_us_per_tok":
            _ratio(hist("stall_seconds")[1] * 1e6, tokens),
        "runtime.threaded_engine.queue_depth_max":
            float(gauge("queue_depth", 0.0)),
        "service.queue_depth_max": float(gauge("svc_queue_depth", 0.0)),
        "service.inflight_max": float(gauge("svc_inflight", 0.0)),
        "service.shed": float(c("svc_shed", 0)),
        "service.duplicates": float(c("svc_duplicates", 0)),
    }


def from_cpu(cpu: Dict[str, List[float]], tokens: int) -> Dict[str, float]:
    """CPU per process role over the traced reps."""
    kernels = cpu.get("kernel", [])
    own = sum(cpu.get("self", []))
    total = own + sum(kernels) + sum(cpu.get("nameserver", [])) \
        + sum(cpu.get("other", []))
    return {
        "net.kernel.cpu_us_per_tok": _ratio(sum(kernels) * 1e6, tokens),
        # slowest kernel over the mean: 1 is a balanced cluster
        "net.kernel.cpu_imbalance":
            _ratio(max(kernels), statistics.fmean(kernels)) if kernels else 0.0,
        "runtime.multiprocess_engine.console_cpu_us_per_tok":
            _ratio(own * 1e6, tokens),
        "bench.generator_cpu_frac": _ratio(own, total),
    }


def from_events(workload: Workload, events: Sequence, reps: List[Rep],
                tokens: int) -> Dict[str, float]:
    """Layer metrics read from the program's own trace events."""
    wall = sum(rep.seconds for rep in reps)
    leaf_busy = 0.0
    leaf_bodies = 0
    sends = send_bytes = receives = stalls = 0
    server_seconds = []
    for event in events:
        kind, fields = event.kind, event.fields
        if kind == "op_end":
            if fields.get("op") in workload.leaf_ops:
                leaf_busy += fields.get("duration", 0.0)
                leaf_bodies += 1
        elif kind == "token_send":
            sends += 1
            send_bytes += fields.get("nbytes", 0)
        elif kind == "token_recv":
            receives += 1
        elif kind == "stall":
            stalls += 1
        elif kind == "svc_reply":
            server_seconds.append(fields.get("seconds", 0.0))
    out = {
        # share of wall time a leaf body was running, summed over
        # threads and processes, so it can pass 1
        "runtime.threaded_engine.op_busy_frac": _ratio(leaf_busy, wall),
        "runtime.threaded_engine.overhead_us_per_tok":
            _ratio(max(0.0, wall - leaf_busy) * 1e6, tokens),
        "trace.events_per_tok": _ratio(len(events), tokens),
        "hop.op_body_us": _ratio(leaf_busy * 1e6, leaf_bodies),
    }
    sim = workload.simulated
    out["cluster.network.transfers_per_tok"] = _ratio(sends, tokens) if sim else 0.0
    out["cluster.network.bytes_per_tok"] = _ratio(send_bytes, tokens) if sim else 0.0
    out["runtime.sim_engine.wall_us_per_hop"] = \
        _ratio(wall * 1e6, receives) if sim else 0.0
    out["runtime.sim_engine.window_stalls"] = \
        _ratio(stalls, len(reps)) if sim else 0.0
    out["runtime.sim_engine.virtual_s"] = \
        reps[-1].extra.get("virtual_s", 0.0) if reps else 0.0
    client_ms = sorted((end - start) * 1e3 for rep in reps
                       for start, end in rep.ops)
    if server_seconds and client_ms:
        server_p50 = statistics.median(server_seconds) * 1e3
        out["service.server_ms_p50"] = server_p50
        out["service.client_overhead_ms_p50"] = \
            percentile(client_ms, 0.5) - server_p50
    else:
        out["service.server_ms_p50"] = 0.0
        out["service.client_overhead_ms_p50"] = 0.0
    return out


def from_reps(reps: List[Rep]) -> Dict[str, float]:
    """Per-rep extras the workloads report themselves."""
    def last(key: str) -> float:
        return float(reps[-1].extra.get(key, 0.0)) if reps else 0.0

    lags = [rep.extra["source_lag_s"] for rep in reps
            if "source_lag_s" in rep.extra]
    window_p99 = [rep.extra["window_p99_s"] * 1e3 for rep in reps
                  if "window_p99_s" in rep.extra]
    return {
        "core.windows.windows_closed": last("windows"),
        "core.windows.latency_ms_p99":
            statistics.median(window_p99) if window_p99 else 0.0,
        "core.streams.source_lag_s": statistics.median(lags) if lags else 0.0,
        "service.busy_retries": last("busy_retries"),
    }


def run_probes(workload: Workload) -> Dict[str, float]:
    """Time the layers' public functions with this workload's tokens."""
    token = workload.sample_token()
    graph = workload.build_graph()
    out: Dict[str, float] = {}
    out.update(probes.codec(token))
    out.update(probes.framing(token))
    if graph is not None:
        out.update(probes.protocol(token, graph))
    else:
        out.update({"net.protocol.encode_data_us": 0.0,
                    "net.protocol.decode_message_us": 0.0})
    out.update(probes.window_cycle())
    out.update(probes.sim_events())
    out.update(probes.window_accumulate())
    out.update(probes.nameserver_lookup(
        getattr(workload.engine, "ns_address", None), "node01"))
    out.update(probes.graph_build(
        workload.build_graph if graph is not None else None))
    return out


def hop_budget(workload: Workload, metrics: Dict[str, float],
               tok_per_s: float) -> Dict[str, float]:
    """Where one token hop's time goes, for the windowed ring workloads.

    A token's life runs from the moment the split tries to post it to
    the ack that frees its window slot: the wait for a slot
    (``stall_wait``) plus the in-flight round, which by Little's law is
    ``window / throughput`` while the window stays full.  Divided by the
    process boundaries crossed, that is one hop.  The probes price the
    codec and the frame through a socket; the trace prices the
    operation body; what is left — loop wakeup to dispatch, worker queue
    wait, ack return — is not yet attributable from outside and is
    reported as such.  Parts and remainder sum to the total.
    """
    names = ("hop.total_us", "hop.codec_us", "hop.frame_syscall_us",
             "hop.window_wait_us", "hop.unattributed_us")
    if not (workload.window and workload.wire_hops and tok_per_s):
        return {**{name: 0.0 for name in names}, "hop.op_body_us": 0.0}
    hops = workload.wire_hops
    wait = metrics["core.flowcontrol.stall_wait_us_per_tok"] / hops
    total = workload.window * 1e6 / tok_per_s / hops + wait
    codec = max(0.0, metrics["serial.encode_us"]) \
        + max(0.0, metrics["serial.decode_us"])
    frame = max(0.0, metrics["net.framing.send_recv_us"])
    body = metrics["hop.op_body_us"]
    return {
        "hop.total_us": total,
        "hop.codec_us": codec,
        "hop.frame_syscall_us": frame,
        "hop.op_body_us": body,
        "hop.window_wait_us": wait,
        "hop.unattributed_us": total - codec - frame - body - wait,
    }

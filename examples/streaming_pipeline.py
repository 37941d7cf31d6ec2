#!/usr/bin/env python
"""Streaming pipelines: bursty source, windows, backpressure, shedding.

Builds a small telemetry pipeline with the first-class stream API
(DESIGN §5i):

    SensorSource >> Smooth (stream stage) >> PerWindowStats >> Report

- ``SensorSource`` is an *unbounded* entry split pacing itself through
  a seeded bursty arrival process — the same schedule in virtual and
  wall time;
- ``Smooth`` shows the callback contract: ``on_token`` emits a running
  average, ``on_close`` flushes a summary reading;
- ``PerWindowStats`` aggregates tumbling 32-reading windows with the
  contiguity watermark, so window results are bit-identical on every
  engine regardless of arrival order.

The example runs the pipeline three times: on the simulated engine, on
the threaded engine (identical window checksums), and once more overloaded
behind a tiny lossy credit window to show load shedding.

Run:  python examples/streaming_pipeline.py
"""

from repro import (
    ArrivalProcess,
    ConstantRoute,
    DpsThread,
    Flowgraph,
    FlowgraphNode,
    MergeOperation,
    SimpleToken,
    StreamOperation,
    StreamPolicy,
    StreamSource,
    ThreadCollection,
    WindowSpec,
    WindowedStream,
    create_engine,
)
from repro.trace import MetricsRegistry

WINDOW = 32


class SensorJob(SimpleToken):
    def __init__(self, items=0):
        self.items = items


class Reading(SimpleToken):
    def __init__(self, seq=0, value=0):
        self.seq = seq
        self.value = value


class WindowStats(SimpleToken):
    def __init__(self, window_id=0, count=0, checksum=0, complete=False):
        self.window_id = window_id
        self.count = count
        self.checksum = checksum
        self.complete = complete


class ReportToken(SimpleToken):
    def __init__(self, text=""):
        self.text = text


class MainThread(DpsThread):
    pass


class StageThread(DpsThread):
    pass


class SensorSource(StreamSource):
    """Bursty sensor: ~4000 readings/s in bursts of ~16."""

    in_types = (SensorJob,)
    out_types = (Reading,)

    def arrival_process(self, job):
        return ArrivalProcess(rate=4000.0, burst=16, gap=0.004,
                              items=job.items, seed=7)

    def make_token(self, seq, job):
        return Reading(seq=seq, value=(seq * 37 + 11) % 1000)


class Smooth(StreamOperation):
    """Running average over the last 4 readings (integer arithmetic)."""

    in_types = (Reading,)
    out_types = (Reading,)

    def __init__(self):
        super().__init__()
        self._recent = []

    def on_token(self, tok):
        self._recent = (self._recent + [tok.value])[-4:]
        self.emit(Reading(seq=tok.seq,
                          value=sum(self._recent) // len(self._recent)))

    def on_close(self):
        # trailing flush: one synthetic reading carrying the final mean
        if self._recent:
            self.emit(Reading(seq=10**6,
                              value=sum(self._recent) // len(self._recent)))


class PerWindowStats(WindowedStream):
    in_types = (Reading,)
    out_types = (WindowStats,)
    window = WindowSpec(WINDOW)

    def seq_of(self, tok):
        return tok.seq

    def value_of(self, tok):
        return tok.value

    def make_result(self, w):
        return WindowStats(window_id=w.window_id, count=w.count,
                           checksum=w.checksum, complete=w.complete)


class Report(MergeOperation):
    in_types = (WindowStats,)
    out_types = (ReportToken,)

    def execute(self, tok):
        lines = []
        while tok is not None:
            lines.append(f"  window {tok.window_id:>3}: {tok.count:>3} "
                         f"readings, checksum {tok.checksum % 10**8:08d}"
                         f"{'' if tok.complete else ' (partial)'}")
            tok = yield self.next_token()
        yield self.post(ReportToken("\n".join(sorted(lines))))


def build_graph(name="telemetry"):
    main = ThreadCollection(MainThread, f"{name}-main").map("node01")
    smooth = ThreadCollection(StageThread, f"{name}-smooth").map("node02")
    agg = ThreadCollection(StageThread, f"{name}-agg").map("node03")
    builder = (
        FlowgraphNode(SensorSource, main, name="sensor")
        >> FlowgraphNode(Smooth, smooth, ConstantRoute, name="smooth")
        >> FlowgraphNode(PerWindowStats, agg, ConstantRoute, name="windows")
        >> FlowgraphNode(Report, main, name="report")
    )
    return Flowgraph(builder, name)


def main() -> None:
    items = 160

    # --- simulated engine: virtual time, deterministic -----------------
    with create_engine("sim", nodes=4) as engine:
        sim = engine.run(build_graph(), SensorJob(items))
    print(f"simulated engine ({items} readings, windows of {WINDOW}):")
    print(sim.token.text)
    print(f"  virtual time: {sim.makespan * 1e3:.1f} ms")
    print()

    # --- real threads: same windows, bit-identical checksums -----------
    with create_engine("threaded") as engine:
        threaded = engine.run(build_graph("telemetry-t"), SensorJob(items))
    print("threaded engine: windows "
          + ("bit-identical" if threaded.text == sim.token.text
             else "DIFFER (bug!)"))
    print()

    # --- overload a tiny lossy window: backpressure sheds ---------------
    metrics = MetricsRegistry()
    policy = StreamPolicy(credit_window=4, shedding="shed",
                          edge_credits={"smooth": None, "windows": None})
    with create_engine("sim", nodes=4, stream=policy,
                       metrics=metrics) as engine:
        shed_run = engine.run(build_graph("telemetry-s"), SensorJob(items))
    shed = metrics.counter("tokens_shed").value
    kept = items - shed
    print(f"overloaded source behind credit_window=4, shedding='shed': "
          f"{shed} of {items} readings shed, {kept} aggregated")
    print(shed_run.token.text)


if __name__ == "__main__":
    main()

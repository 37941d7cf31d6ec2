"""Unit tests for the tracer and timeline reports."""

from repro.apps.strings import StringToken, build_uppercase_graph
from repro.cluster import paper_cluster
from repro.runtime import SimEngine
from repro.trace import (
    MetricsRegistry,
    Tracer,
    activity_timeline,
    message_summary,
    op_summary,
)


def traced_run():
    tracer = Tracer()
    engine = SimEngine(paper_cluster(3), tracer=tracer)
    graph, *_ = build_uppercase_graph("node01", "node02 node03")
    engine.run(graph, StringToken("trace me please"))
    return tracer


def test_tracer_records_events():
    tracer = traced_run()
    assert len(tracer) > 0
    assert tracer.count("activation_start") == 1
    assert tracer.count("activation_done") == 1
    assert tracer.count("token_recv") >= 15  # one per char plus split/merge
    assert tracer.count("token_send") > 0


def test_tracer_filter_and_span():
    tracer = traced_run()
    ops = tracer.filter("token_recv")
    assert all(ev.kind == "token_recv" for ev in ops)
    merges = tracer.filter("token_recv", predicate=lambda e: e.op == "MergeString")
    assert len(merges) >= 1
    start, end = tracer.span()
    assert 0 <= start <= end


def test_tracer_attribute_access():
    tracer = traced_run()
    ev = tracer.filter("token_send")[0]
    assert ev.nbytes > 0
    assert isinstance(ev.src, str)


def test_tracer_capacity_bound():
    tracer = Tracer(capacity=5)
    for i in range(12):
        tracer.emit(float(i), "x", i=i)
    assert len(tracer) == 5
    assert tracer.dropped == 7
    assert tracer.events[0].fields["i"] == 7


def test_activity_timeline_renders():
    tracer = traced_run()
    text = activity_timeline(tracer, width=40)
    assert "node01" in text
    assert "|" in text
    assert "timeline" in text


def test_op_summary_renders():
    tracer = traced_run()
    text = op_summary(tracer)
    assert "ToUpperCase" in text
    assert "MergeString" in text


def test_message_summary_renders():
    tracer = traced_run()
    text = message_summary(tracer)
    assert "node01" in text
    assert "bytes" in text


def test_empty_trace_reports():
    empty = Tracer()
    assert "no op events" in activity_timeline(empty)
    assert "no op events" in op_summary(empty)
    assert "no messages" in message_summary(empty)


def test_clear():
    tracer = traced_run()
    tracer.clear()
    assert len(tracer) == 0


def test_metrics_clear_keeps_handles_valid():
    """A kernel's trace flush clears its registry; instruments looked up
    once (the I/O loop's ``io_loop_wakeups`` counter) must keep feeding
    it afterwards instead of counting into an orphan."""
    metrics = MetricsRegistry()
    wakeups = metrics.counter("io_loop_wakeups")
    depth = metrics.gauge("outbox_depth")
    fps = metrics.histogram("frames_per_syscall")
    wakeups.inc(7)
    depth.set(5)
    fps.observe(3.0)
    metrics.clear()
    # zeroed series are not shipped: merging an idle (0, 0) gauge would
    # reset the console's last value
    assert metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}}
    assert metrics.report() == "(no metrics recorded)"
    wakeups.inc()
    depth.set(2)
    fps.observe(4.0)
    snap = metrics.snapshot()
    assert snap["counters"]["io_loop_wakeups"] == 1
    assert snap["gauges"]["outbox_depth"] == (2, 2)
    assert snap["histograms"]["frames_per_syscall"] == (1, 4.0, 4.0, 4.0)


def test_op_durations_report():
    from repro.trace import op_durations

    tracer = traced_run()
    text = op_durations(tracer)
    assert "MergeString" in text
    assert "bodies" in text and "mean [ms]" in text


def test_op_end_events_have_durations():
    tracer = traced_run()
    dones = tracer.filter("op_end")
    assert dones, "op_end events should be traced"
    assert all(ev.duration >= 0 for ev in dones)
    merge = [ev for ev in dones if ev.op == "MergeString"]
    split = [ev for ev in dones if ev.op == "SplitString"]
    assert merge and split
    # the merge spans the whole gather phase: longer than the split body
    assert merge[0].duration > split[0].duration


def test_utilization_report():
    from repro.cluster import paper_cluster
    from repro.runtime import SimEngine
    from repro.trace import utilization_report
    from repro.apps.strings import StringToken, build_uppercase_graph

    engine = SimEngine(paper_cluster(2))
    assert "no virtual time" in utilization_report(engine)
    graph, *_ = build_uppercase_graph("node01", "node02")
    engine.run(graph, StringToken("measure me"))
    text = utilization_report(engine)
    assert "node01" in text and "node02" in text
    assert "nic tx" in text and "%" in text

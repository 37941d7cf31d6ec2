"""End-to-end tests of the sim engine with the tutorial application."""

import pytest

from repro.apps.strings import (
    StringToken,
    build_uppercase_graph,
)
from repro.cluster import NetworkSpec, paper_cluster
from repro.core import FlowControlPolicy
from repro.runtime import ScheduleError, SimEngine


def make_engine(n_nodes=4, window=8, **kwargs):
    return SimEngine(
        paper_cluster(n_nodes),
        policy=FlowControlPolicy(window=window),
        **kwargs,
    )


def test_uppercase_roundtrip_single_node():
    engine = make_engine(1)
    graph, *_ = build_uppercase_graph("node01", "node01*2")
    result = engine.run(graph, StringToken("hello world"))
    assert result.token.text == "HELLO WORLD"
    assert result.makespan > 0


def test_uppercase_across_nodes():
    engine = make_engine(4)
    graph, *_ = build_uppercase_graph("node01", "node02 node03 node04")
    result = engine.run(graph, StringToken("dynamic parallel schedules"))
    assert result.token.text == "DYNAMIC PARALLEL SCHEDULES"


def test_remote_run_takes_longer_than_local():
    local = make_engine(1)
    g1, *_ = build_uppercase_graph("node01", "node01*2")
    t_local = local.run(g1, StringToken("abcdefgh")).makespan

    remote = make_engine(4)
    g2, *_ = build_uppercase_graph("node01", "node02 node03 node04")
    t_remote = remote.run(g2, StringToken("abcdefgh")).makespan
    assert t_remote > t_local  # network costs are visible in virtual time


def test_empty_string_rejected_as_empty_group():
    engine = make_engine(1)
    graph, *_ = build_uppercase_graph("node01", "node01")
    with pytest.raises(ScheduleError, match="posted no tokens"):
        engine.run(graph, StringToken(""))


def test_run_returns_metrics():
    engine = make_engine(2)
    graph, *_ = build_uppercase_graph("node01", "node02")
    engine.run(graph, StringToken("xyz"))
    m = engine.stats()
    assert m["network_messages"] > 0
    assert m["network_bytes"] > 0
    assert m["tokens_posted"] == 3
    assert m["time"] > 0


def test_window_one_still_completes():
    engine = make_engine(2, window=1)
    graph, *_ = build_uppercase_graph("node01", "node02")
    result = engine.run(graph, StringToken("flow control"))
    assert result.token.text == "FLOW CONTROL"


def test_window_one_slower_than_wide_window():
    def run_with(window):
        engine = make_engine(3, window=window)
        graph, *_ = build_uppercase_graph("node01", "node02 node03")
        return engine.run(graph, StringToken("a" * 64)).makespan

    assert run_with(1) > run_with(32)


def test_unbounded_window():
    engine = make_engine(2, window=None)
    graph, *_ = build_uppercase_graph("node01", "node02")
    result = engine.run(graph, StringToken("unbounded"))
    assert result.token.text == "UNBOUNDED"


def test_determinism_same_seedless_run():
    def once():
        engine = make_engine(4)
        graph, *_ = build_uppercase_graph("node01", "node02 node03 node04")
        r = engine.run(graph, StringToken("determinism"))
        return r.makespan, engine.stats()["network_bytes"]

    assert once() == once()


def test_serialization_disabled_uses_estimates():
    engine = make_engine(2, serialize_payloads=False)
    graph, *_ = build_uppercase_graph("node01", "node02")
    result = engine.run(graph, StringToken("fast path"))
    assert result.token.text == "FAST PATH"


def test_unknown_graph():
    engine = make_engine(1)
    with pytest.raises(KeyError, match="unknown graph"):
        engine.graph("nope")


def test_mapping_to_unknown_node_rejected():
    engine = make_engine(2)
    graph, *_ = build_uppercase_graph("node01", "node09")
    with pytest.raises(ScheduleError, match="not in the cluster"):
        engine.register_graph(graph)


def test_wrong_input_type_rejected():
    from repro.apps.strings import CharToken

    engine = make_engine(1)
    graph, *_ = build_uppercase_graph("node01", "node01")
    with pytest.raises(ScheduleError, match="entry accepts"):
        engine.run(graph, CharToken("a", 0))


def test_sequential_runs_share_engine():
    engine = make_engine(2)
    graph, *_ = build_uppercase_graph("node01", "node02")
    r1 = engine.run(graph, StringToken("first"))
    r2 = engine.run(graph, StringToken("second"))
    assert r1.token.text == "FIRST"
    assert r2.token.text == "SECOND"
    assert r2.started_at >= r1.finished_at


def test_launch_delay_charged_once():
    engine = make_engine(2)
    graph, *_ = build_uppercase_graph("node01", "node02")
    r1 = engine.run(graph, StringToken("warm"))
    r2 = engine.run(graph, StringToken("warm"))
    # First run pays the lazy application-launch delay on both nodes.
    assert r1.makespan > r2.makespan


def test_prelaunch_skips_launch_delay():
    cold = make_engine(2)
    g1, *_ = build_uppercase_graph("node01", "node02")
    t_cold = cold.run(g1, StringToken("x")).makespan

    warm = make_engine(2)
    g2, *_ = build_uppercase_graph("node01", "node02")
    warm.register_graph(g2)
    warm.prelaunch()
    t_warm = warm.run(g2, StringToken("x")).makespan
    assert t_warm < t_cold


def test_a_message_and_a_dps_thread_create_no_process(monkeypatch):
    """Messages, DPS threads and lazy launches are callbacks on the
    event heap: a ring run spawns no simulation process at all."""
    from repro.apps.ring import run_dps_ring
    from repro.simkernel import Process

    created = [0]
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    counts = []
    for n_blocks in (50, 100):
        created[0] = 0
        run_dps_ring(paper_cluster(4), 1000, n_blocks * 1000)
        counts.append(created[0])
    assert counts == [0, 0]

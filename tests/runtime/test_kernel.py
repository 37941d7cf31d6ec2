"""Tests for kernels co-hosted on one machine (paper §4's debug setup)."""

from repro.apps.strings import StringToken, build_uppercase_graph
from repro.cluster import ClusterSpec, NetworkSpec, NodeSpec
from repro.runtime.sim_engine import SimEngine


def _makespan(nodes, main, workers):
    engine = SimEngine(ClusterSpec(nodes=tuple(nodes), network=NetworkSpec()))
    graph, *_ = build_uppercase_graph(main, workers)
    return engine.run(graph, StringToken("x" * 64)).makespan


def test_loopback_faster_than_wire_but_not_free():
    """Co-hosted kernels communicate via loopback: faster than the wire,
    slower than a same-kernel pointer pass (the debugging trade-off)."""
    two_hosts = _makespan([NodeSpec("a", host="pc1"),
                           NodeSpec("b", host="pc2")], "a", "b")
    one_host = _makespan([NodeSpec("a", host="pc"),
                          NodeSpec("b", host="pc")], "a", "b")
    assert one_host < two_hosts

    # a single kernel (pointer passes only) is faster still
    solo = _makespan([NodeSpec("solo", host="pc")], "solo", "solo")
    assert solo < one_host

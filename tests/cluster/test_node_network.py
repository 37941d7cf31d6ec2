"""Unit tests for the cluster hardware model."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    paper_cluster,
)
from repro.simkernel import Simulator  # noqa: F401 (used in appended tests)


def make_cluster(n=2, **net_kwargs):
    sim = Simulator()
    spec = paper_cluster(n, network=NetworkSpec(**net_kwargs))
    return sim, Cluster(sim, spec)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_node_spec_validation():
    with pytest.raises(ValueError):
        NodeSpec(name="")
    with pytest.raises(ValueError):
        NodeSpec(name="a", cpus=0)
    with pytest.raises(ValueError):
        NodeSpec(name="a", flops=-1)


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(bandwidth=0)
    with pytest.raises(ValueError):
        NetworkSpec(latency=-1)


def test_cluster_spec_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        ClusterSpec((NodeSpec("a"), NodeSpec("a")))


def test_paper_cluster_defaults():
    spec = paper_cluster()
    assert len(spec.nodes) == 8
    assert all(n.cpus == 2 for n in spec.nodes)
    assert spec.node_names[0] == "node01"


def test_with_nodes_subsets():
    spec = paper_cluster(8)
    small = spec.with_nodes(3)
    assert small.node_names == ["node01", "node02", "node03"]
    with pytest.raises(ValueError):
        spec.with_nodes(9)
    with pytest.raises(ValueError):
        spec.with_nodes(0)


def test_cluster_unknown_node():
    sim, cluster = make_cluster(2)
    with pytest.raises(KeyError, match="unknown node"):
        cluster.node("nope")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_seconds_advances_clock():
    sim, cluster = make_cluster(1)
    node = cluster.node("node01")
    done = []

    node.compute(3.0, lambda: done.append((sim.now, node.cpu.count)))
    sim.run()
    assert sim.now == 3.0
    assert node.compute_time == 3.0
    # the CPU is released before the continuation runs
    assert done == [(3.0, 0)]


def test_compute_flops_uses_node_rate():
    sim = Simulator()
    spec = ClusterSpec((NodeSpec("n", cpus=1, flops=100.0),))
    cluster = Cluster(sim, spec)
    node = cluster.node("n")

    node.compute(node.seconds_for_flops(250.0), lambda: None)
    sim.run()
    assert sim.now == pytest.approx(2.5)


def test_biprocessor_runs_two_jobs_in_parallel():
    sim, cluster = make_cluster(1)
    node = cluster.node("node01")  # 2 cpus
    ends = []

    for _ in range(3):
        node.compute(5.0, lambda: ends.append(sim.now))
    sim.run()
    assert ends == [5.0, 5.0, 10.0]


def test_compute_rejects_negative_time():
    sim, cluster = make_cluster(1)
    with pytest.raises(ValueError, match=">= 0"):
        cluster.node("node01").compute(-1.0, lambda: None)


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

def test_isolated_message_time():
    sim, cluster = make_cluster(2, bandwidth=1e6, latency=1e-3,
                                send_overhead=1e-4, recv_overhead=1e-4)
    a, b = cluster.node("node01"), cluster.node("node02")
    done = cluster.network.transfer(a, b, 10_000)
    sim.run()
    # 1e-4 + 0.01 + 1e-3 + 1e-4 + 0.01
    assert sim.now == pytest.approx(0.0212)
    assert done.value.delivered_at == pytest.approx(0.0212)


def test_message_time_formula_matches_model():
    sim, cluster = make_cluster(2)
    spec = cluster.network.spec
    a, b = cluster.node("node01"), cluster.node("node02")
    cluster.network.transfer(a, b, 65536)
    sim.run()
    assert sim.now == pytest.approx(spec.message_time(65536))


def test_local_transfer_bypasses_nic():
    sim, cluster = make_cluster(1)
    a = cluster.node("node01")
    cluster.network.transfer(a, a, 10**9)  # a gigabyte, locally: pointer pass
    sim.run()
    assert sim.now == pytest.approx(cluster.network.spec.local_delay)
    assert cluster.network.local_messages == 1
    assert cluster.network.messages_sent == 0


def test_sender_nic_serializes_messages():
    sim, cluster = make_cluster(3, bandwidth=1e6, latency=0.0,
                                send_overhead=0.0, recv_overhead=0.0)
    a = cluster.node("node01")
    deliveries = []
    for dst in ("node02", "node03"):
        ev = cluster.network.transfer(a, cluster.node(dst), 1_000_000)
        ev.add_callback(lambda e: deliveries.append((e.value.dst, sim.now)))
    sim.run()
    # Each message: 1 s tx + 1 s rx; the two tx phases serialize on node01.
    assert deliveries[0] == ("node02", 2.0)
    assert deliveries[1] == ("node03", 3.0)


def test_full_duplex_send_and_receive_overlap():
    sim, cluster = make_cluster(2, bandwidth=1e6, latency=0.0,
                                send_overhead=0.0, recv_overhead=0.0)
    a, b = cluster.node("node01"), cluster.node("node02")
    cluster.network.transfer(a, b, 1_000_000)
    cluster.network.transfer(b, a, 1_000_000)
    sim.run()
    # Opposite directions share nothing: both finish at tx+rx = 2 s.
    assert sim.now == pytest.approx(2.0)


def test_receiver_nic_is_a_bottleneck_for_convergecast():
    sim, cluster = make_cluster(3, bandwidth=1e6, latency=0.0,
                                send_overhead=0.0, recv_overhead=0.0)
    c = cluster.node("node03")
    ends = []
    for src in ("node01", "node02"):
        ev = cluster.network.transfer(cluster.node(src), c, 1_000_000)
        ev.add_callback(lambda e: ends.append(sim.now))
    sim.run()
    # rx at node03 serializes: second delivery one wire-time later.
    assert ends == [2.0, 3.0]


def test_traffic_accounting():
    sim, cluster = make_cluster(2)
    a, b = cluster.node("node01"), cluster.node("node02")
    cluster.network.transfer(a, b, 100)
    cluster.network.transfer(a, b, 200)
    sim.run()
    assert cluster.network.messages_sent == 2
    assert cluster.network.bytes_sent == 300


def test_negative_size_rejected():
    sim, cluster = make_cluster(2)
    with pytest.raises(ValueError):
        cluster.network.transfer(cluster.node("node01"), cluster.node("node02"), -1)


def test_steady_state_stream_saturates_bandwidth():
    """A pipelined stream of messages approaches the NIC bandwidth."""
    sim, cluster = make_cluster(2, bandwidth=1e6, latency=50e-6,
                                send_overhead=10e-6, recv_overhead=10e-6)
    a, b = cluster.node("node01"), cluster.node("node02")
    n_msgs, size = 50, 100_000

    def sender(sim):
        for _ in range(n_msgs):
            yield cluster.network.transfer(a, b, size)

    # Fire-and-forget pipelining: don't wait for delivery between sends.
    def pipelined(sim):
        last = None
        for _ in range(n_msgs):
            last = cluster.network.transfer(a, b, size)
            # pace at tx rate so the tx queue models back-to-back sends
            yield sim.timeout(size / 1e6)
        yield last

    sim.spawn(pipelined(sim))
    sim.run()
    throughput = n_msgs * size / sim.now
    assert throughput > 0.85e6  # within 15% of the 1 MB/s wire rate


def test_loopback_between_co_hosted_nodes():
    """Nodes sharing a host (debug kernels) use loopback parameters."""
    sim = Simulator()
    spec = ClusterSpec(
        nodes=(NodeSpec("k1", host="pc"), NodeSpec("k2", host="pc"),
               NodeSpec("k3", host="other")),
        network=NetworkSpec(),
    )
    cluster = Cluster(sim, spec)
    net = cluster.network
    net.transfer(cluster.node("k1"), cluster.node("k2"), 100_000)
    t_loopback = sim.run()
    assert net.loopback_messages == 1

    sim2 = Simulator()
    cluster2 = Cluster(sim2, spec)
    cluster2.network.transfer(cluster2.node("k1"), cluster2.node("k3"),
                              100_000)
    t_wire = sim2.run()
    assert cluster2.network.loopback_messages == 0
    assert t_loopback < t_wire  # loopback is faster than the physical wire

    sim3 = Simulator()
    cluster3 = Cluster(sim3, spec)
    cluster3.network.transfer(cluster3.node("k1"), cluster3.node("k1"),
                              100_000)
    t_same_node = sim3.run()
    # same node (a pointer pass) < loopback < physical wire
    assert t_same_node < t_loopback < t_wire


def test_tx_extra_occupies_sender_nic():
    sim, cluster = make_cluster(2, bandwidth=1e6, latency=0.0,
                                send_overhead=0.0, recv_overhead=0.0)
    a, b = cluster.node("node01"), cluster.node("node02")
    cluster.network.transfer(a, b, 1_000_000, tx_extra=0.5, rx_extra=0.25)
    sim.run()
    # 1s tx wire + 0.5 extra + 1s rx wire + 0.25 extra
    assert sim.now == pytest.approx(2.75)

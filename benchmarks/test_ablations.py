"""Ablation benchmarks for the design decisions called out in DESIGN.md §5.

- flow-control window sweep (decision 2): window=1 degenerates to
  lock-step; widening it buys overlap up to a saturation point;
- load-balanced vs round-robin routing on a heterogeneous cluster
  (decision 5): the feedback-driven route shifts work to faster nodes;
- stream vs merge+split barrier in the video pipeline (decision 3,
  qualitative Figure 4 companion to the LU comparison of Figure 15);
- zero-copy local delivery vs loopback vs physical wire (decision 4).
"""

import numpy as np

from repro.apps.matmul import block_multiply
from repro.apps.video import VideoJob, run_video_pipeline
from repro.cluster import ClusterSpec, NetworkSpec, NodeSpec, paper_cluster
from repro.core import (
    ConstantRoute,
    DpsThread,
    FlowControlPolicy,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    LoadBalancedRoute,
    MergeOperation,
    RoundRobinRoute,
    SplitOperation,
    ThreadCollection,
)
from repro.runtime import SimEngine
from repro.serial import SimpleToken


# ---------------------------------------------------------------------------
# ablation 1: flow-control window
# ---------------------------------------------------------------------------

def _matmul_time(window):
    rng = np.random.default_rng(5)
    n = 256
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    run = block_multiply(paper_cluster(3, flops=220e6), a, b, s=8,
                         n_workers=2, window=window)
    return run.makespan


def test_ablation_flow_control_window(benchmark):
    def sweep():
        return {w: _matmul_time(w) for w in (2, 4, 8, 16, 32)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # window = workers (2) is the lock-step baseline: slowest
    assert times[2] == max(times.values())
    # widening the window monotonically helps (to saturation)
    assert times[4] <= times[2]
    assert times[8] <= times[4]
    # saturation: beyond ~4 tasks/worker there is little left to win
    assert times[32] > 0.9 * times[16]
    print()
    print("window -> makespan [s]:",
          {w: round(t, 3) for w, t in times.items()})


# ---------------------------------------------------------------------------
# ablation 2: load-balanced vs round-robin routing (heterogeneous nodes)
# ---------------------------------------------------------------------------

class AJob(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class AItem(SimpleToken):
    def __init__(self, v=0):
        self.v = v


class AMain(DpsThread):
    pass


class AWork(DpsThread):
    pass


class AFan(SplitOperation):
    thread_type = AMain
    in_types = (AJob,)
    out_types = (AItem,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(AItem(i))


class AWorkOp(LeafOperation):
    thread_type = AWork
    in_types = (AItem,)
    out_types = (AItem,)

    def execute(self, tok):
        yield self.charge_flops(2e6)  # fixed work per item
        yield self.post(AItem(tok.v))


class ASink(MergeOperation):
    thread_type = AMain
    in_types = (AItem,)
    out_types = (AJob,)

    def execute(self, tok):
        count = 0
        while tok is not None:
            count += 1
            tok = yield self.next_token()
        yield self.post(AJob(count))


def _heterogeneous_run(route_class):
    # node02 is 4x faster than node03: round-robin leaves it idle half
    # the time, the ack-feedback route keeps it busy.
    spec = ClusterSpec(
        nodes=(
            NodeSpec("node01", cpus=2, flops=100e6),
            NodeSpec("node02", cpus=1, flops=400e6),
            NodeSpec("node03", cpus=1, flops=100e6),
        ),
        network=NetworkSpec(),
    )
    engine = SimEngine(spec, policy=FlowControlPolicy(window=4))
    main = ThreadCollection(AMain, "a-main").map("node01")
    workers = ThreadCollection(AWork, "a-work").map("node02 node03")
    g = Flowgraph(
        FlowgraphNode(AFan, main)
        >> FlowgraphNode(AWorkOp, workers, route_class)
        >> FlowgraphNode(ASink, main),
        f"ablation-{route_class.__name__}",
    )
    result = engine.run(g, AJob(60))
    assert result.token.n == 60
    return result.makespan


def test_ablation_load_balanced_routing(benchmark):
    def compare():
        return (_heterogeneous_run(RoundRobinRoute),
                _heterogeneous_run(LoadBalancedRoute))

    t_rr, t_lb = benchmark.pedantic(compare, rounds=1, iterations=1)
    # the feedback route must beat blind round-robin on skewed nodes
    assert t_lb < t_rr
    assert t_rr / t_lb > 1.25
    print()
    print(f"round-robin {t_rr:.3f} s vs load-balanced {t_lb:.3f} s "
          f"({t_rr / t_lb:.2f}x)")


# ---------------------------------------------------------------------------
# ablation 3: stream vs merge+split barrier (Figure 4 pipeline)
# ---------------------------------------------------------------------------

def test_ablation_stream_vs_barrier_video(benchmark):
    spec = paper_cluster(6)
    disks = ["node01", "node02", "node03", "node04"]
    procs = ["node05", "node06"]
    job = VideoJob(n_frames=12, frame_bytes=1 << 18, n_parts=4)

    def compare():
        a = run_video_pipeline(spec, job, disks, procs, use_stream=True)
        b = run_video_pipeline(spec, job, disks, procs, use_stream=False)
        return a, b

    stream, barrier = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert stream.checksum == barrier.checksum
    assert stream.makespan < barrier.makespan
    assert stream.first_frame_latency < barrier.first_frame_latency
    print()
    print(f"stream: makespan {stream.makespan:.3f} s, first frame "
          f"{stream.first_frame_latency * 1e3:.1f} ms; barrier: "
          f"{barrier.makespan:.3f} s / "
          f"{barrier.first_frame_latency * 1e3:.1f} ms")


# ---------------------------------------------------------------------------
# ablation 4: zero-copy local delivery vs loopback vs physical wire
# ---------------------------------------------------------------------------

def test_ablation_local_delivery(benchmark):
    """DESIGN.md decision 4: same-kernel tokens are pointer passes; the
    paper's multi-kernel-per-host debugging pays loopback + full
    serialization; separate machines pay the physical wire."""
    from repro.apps.strings import StringToken, build_uppercase_graph

    def run_layout(nodes, worker_mapping):
        engine = SimEngine(ClusterSpec(nodes))
        graph, *_ = build_uppercase_graph(nodes[0].name, worker_mapping)
        engine.register_graph(graph)
        engine.prelaunch()
        return engine.run(graph, StringToken("y" * 120)).makespan

    def sweep():
        same_kernel = run_layout((NodeSpec("k1", host="pc"),), "k1*2")
        debug = run_layout(
            (NodeSpec("k1", host="pc"), NodeSpec("k2", host="pc")),
            "k2*2",
        )
        wire = run_layout(
            (NodeSpec("k1", host="pc1"), NodeSpec("k2", host="pc2")),
            "k2*2",
        )
        return same_kernel, debug, wire

    same_kernel, debug, wire = benchmark.pedantic(sweep, rounds=1,
                                                  iterations=1)
    assert same_kernel < debug < wire
    assert wire / same_kernel > 5  # pointer passes are dramatically cheaper
    print()
    print(f"same kernel {same_kernel * 1e3:7.2f} ms | debug kernels "
          f"{debug * 1e3:7.2f} ms | physical wire {wire * 1e3:7.2f} ms")

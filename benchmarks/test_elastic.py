"""Elasticity benchmarks: adaptive routing A/B and live rescale cost.

Two measurements:

- :func:`run_routing_ab` — a **deterministic** A/B of round-robin vs
  queue-depth adaptive split routing on the simulated engine.  The
  workload is deliberately skewed: two leaf instances, one on a fast
  node and one 8x slower.  Round-robin feeds them 50/50 so the slow
  node's queue sets the makespan; queue-depth routing observes the
  backlog and shifts work to the fast node.  Virtual time makes the
  comparison exact and reproducible.
- :func:`run_elastic_load` — the multiprocess engine under a real
  workload (the Game of Life band world) while the cluster scales
  2 -> 3 -> 2 kernels mid-run: steps/sec before, during and after the
  scale events, rebalance latency, and thread instances moved —
  with the result still bit-identical to a static run.
"""

import time

import numpy as np

from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.cluster import ClusterSpec, NetworkSpec, NodeSpec
from repro.core import (
    DpsThread,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    RoundRobinRoute,
    RoutingPolicy,
    SplitOperation,
    ThreadCollection,
)
from repro.runtime import MultiprocessEngine, SimEngine
from repro.serial import SimpleToken

# ---------------------------------------------------------------------------
# skewed-load sim workload
# ---------------------------------------------------------------------------

#: One fast and one 8x slower node: the round-robin worst case.
SKEW_FLOPS = (80e6, 10e6)
SKEW_TOKENS = 64
SKEW_WORK_FLOPS = 200_000.0


class SkewJob(SimpleToken):
    def __init__(self, count: int = 0):
        self.count = count


class SkewItem(SimpleToken):
    def __init__(self, seq: int = 0):
        self.seq = seq


class SkewMaster(DpsThread):
    pass


class SkewWorker(DpsThread):
    pass


class SkewSplit(SplitOperation):
    thread_type = SkewMaster
    in_types = (SkewJob,)
    out_types = (SkewItem,)

    def execute(self, tok):
        for i in range(tok.count):
            self.post(SkewItem(i))


class SkewLeaf(LeafOperation):
    thread_type = SkewWorker
    in_types = (SkewItem,)
    out_types = (SkewItem,)

    def execute(self, tok):
        self.post(SkewItem(tok.seq))

    def cost(self, tok):
        return self.charge_flops(SKEW_WORK_FLOPS)


class SkewMerge(MergeOperation):
    thread_type = SkewMaster
    in_types = (SkewItem,)
    out_types = (SkewJob,)

    def execute(self, tok):
        n = 0
        while tok is not None:
            n += 1
            tok = yield self.next_token()
        yield self.post(SkewJob(n))


def _skew_cluster() -> ClusterSpec:
    return ClusterSpec(
        nodes=tuple(
            NodeSpec(name=f"node{i + 1:02d}", cpus=1, flops=flops)
            for i, flops in enumerate(SKEW_FLOPS)
        ),
        network=NetworkSpec(),
    )


def _skew_graph() -> Flowgraph:
    master = ThreadCollection(SkewMaster, "skew-master").map("node01")
    workers = ThreadCollection(SkewWorker, "skew-work").map("node01 node02")
    builder = (
        FlowgraphNode(SkewSplit, master)
        >> FlowgraphNode(SkewLeaf, workers, RoundRobinRoute)
        >> FlowgraphNode(SkewMerge, master)
    )
    return Flowgraph(builder, "skew")


def _run_skew(kind: str, tokens: int = SKEW_TOKENS) -> dict:
    engine = SimEngine(_skew_cluster(), routing=RoutingPolicy(kind=kind))
    graph = _skew_graph()
    engine.register_graph(graph)
    result = engine.run(graph, SkewJob(tokens))
    assert result.token.count == tokens
    return {
        "virtual_seconds": round(result.makespan, 6),
        "tokens_per_sec": round(tokens / result.makespan, 1),
    }


def run_routing_ab(tokens: int = SKEW_TOKENS) -> dict:
    """Deterministic round-robin vs queue-depth A/B; same graph, same
    cluster, same token count — only the routing policy differs."""
    rr = _run_skew("round_robin", tokens)
    qd = _run_skew("queue_depth", tokens)
    return {
        "workload": f"skewed 2-node sim, {tokens} tokens, "
                    f"{SKEW_FLOPS[0] / SKEW_FLOPS[1]:.0f}x speed skew",
        "round_robin": rr,
        "queue_depth": qd,
        "speedup_queue_depth_vs_round_robin": round(
            qd["tokens_per_sec"] / rr["tokens_per_sec"], 3),
    }


# ---------------------------------------------------------------------------
# multiprocess elastic load harness
# ---------------------------------------------------------------------------

def _gol_world():
    return (np.random.RandomState(7).rand(32, 24) < 0.35).astype(np.uint8)


def run_elastic_load(steps_per_phase: int = 3) -> dict:
    """Scale a live Game of Life cluster 2 -> 3 -> 2 kernels mid-run.

    Returns steps/sec per phase, rebalance latency/moves, and whether
    the final world matched the single-process reference bit for bit.
    """
    total_steps = 3 * steps_per_phase
    ref = _gol_world()
    for _ in range(total_steps):
        ref = life_step(ref)

    with MultiprocessEngine(startup_timeout=60) as engine:
        game = DistributedGameOfLife(engine, _gol_world(),
                                     ["node01", "node02"],
                                     compute_nodes=["node05"])
        game.load()

        def phase(n):
            t0 = time.perf_counter()
            for _ in range(n):
                game.step(improved=True)
            return n / (time.perf_counter() - t0)

        before = phase(steps_per_phase)
        t_scale = time.perf_counter()
        joiner = engine.add_kernel()
        during = phase(steps_per_phase)
        engine.retire_kernel(joiner)
        scale_window = time.perf_counter() - t_scale
        after = phase(steps_per_phase)
        out = game.gather()
        snap = engine._console.rebalance_snapshot()
        rebalances, tokens_moved, rebalance_seconds = snap
    return {
        "workload": f"GoL 32x24, 2 workers + compute kernel, "
                    f"{steps_per_phase} steps/phase",
        "steps_per_sec": {
            "before": round(before, 2),
            "during": round(during, 2),
            "after": round(after, 2),
        },
        "rebalances": rebalances,
        "tokens_moved": tokens_moved,
        "rebalance_latency_s": round(rebalance_seconds / max(1, rebalances),
                                     4),
        "scale_window_s": round(scale_window, 3),
        "bit_identical": bool((out == ref).all()),
    }


# ---------------------------------------------------------------------------
# assertions (benchmarks double as regression tests)
# ---------------------------------------------------------------------------

def test_queue_depth_beats_round_robin_on_skewed_load():
    """The tentpole routing claim, asserted deterministically: adaptive
    routing must beat round-robin tok/s on the skewed workload."""
    ab = run_routing_ab()
    assert ab["queue_depth"]["tokens_per_sec"] > \
        ab["round_robin"]["tokens_per_sec"]
    # The skew is 8x; adaptive routing should recover a solid chunk of
    # it, not a rounding error.
    assert ab["speedup_queue_depth_vs_round_robin"] >= 1.2


def test_routing_ab_is_deterministic():
    first = run_routing_ab()
    second = run_routing_ab()
    assert first == second


def test_elastic_load_keeps_results_bit_identical():
    report = run_elastic_load(steps_per_phase=2)
    assert report["bit_identical"]
    assert report["rebalances"] == 2
    assert report["tokens_moved"] >= 2

"""Cross-engine equivalence: the same application code must produce the
same *results* on the simulated cluster and in real time.

This is the central guarantee of the two-engine design (DESIGN.md §2):
operations, graphs, routing and flow control are engine-agnostic; only
timing semantics differ.
"""

import numpy as np
import pytest

from repro.apps.strings import StringToken, build_uppercase_graph
from repro.core import (
    ConstantRoute,
    DpsThread,
    FlowControlPolicy,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    RoundRobinRoute,
    SplitOperation,
    StreamOperation,
    ThreadCollection,
    route_fn,
)
from repro.runtime import create_engine
from repro.serial import Buffer, ComplexToken, SimpleToken


class XJob(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class XChunk(ComplexToken):
    def __init__(self, idx=0, data=None):
        self.idx = idx
        self.data = Buffer(data if data is not None else [])


class XResult(ComplexToken):
    def __init__(self, total=None):
        self.total = Buffer(total if total is not None else [])


class XMain(DpsThread):
    pass


class XWork(DpsThread):
    pass


class XSplit(SplitOperation):
    """Fan a job out into numpy chunks."""

    thread_type = XMain
    in_types = (XJob,)
    out_types = (XChunk,)

    def execute(self, tok):
        rng = np.random.default_rng(tok.n)
        for i in range(tok.n):
            self.post(XChunk(i, rng.standard_normal(32)))


class XSquare(LeafOperation):
    thread_type = XWork
    in_types = (XChunk,)
    out_types = (XChunk,)

    def execute(self, tok):
        self.post(XChunk(tok.idx, tok.data.array ** 2))


class XStream(StreamOperation):
    """Running prefix sums — order-sensitive per token, not per group."""

    thread_type = XWork
    in_types = (XChunk,)
    out_types = (XChunk,)

    def execute(self, tok):
        while tok is not None:
            yield self.post(XChunk(tok.idx, np.cumsum(tok.data.array)))
            tok = yield self.next_token()


class XMerge(MergeOperation):
    thread_type = XMain
    in_types = (XChunk,)
    out_types = (XResult,)

    def execute(self, tok):
        total = np.zeros(32)
        while tok is not None:
            total += tok.data.array
            tok = yield self.next_token()
        yield self.post(XResult(total))


def numeric_graph(suffix):
    main = ThreadCollection(XMain, f"xmain{suffix}").map("node01")
    workers = ThreadCollection(XWork, f"xwork{suffix}").map("node02 node03")
    mids = ThreadCollection(XWork, f"xmid{suffix}").map("node02")
    return Flowgraph(
        FlowgraphNode(XSplit, main)
        >> FlowgraphNode(XSquare, workers, RoundRobinRoute)
        >> FlowgraphNode(XStream, mids, ConstantRoute)
        >> FlowgraphNode(XMerge, main),
        f"xpipeline{suffix}",
    )


def expected_result(n):
    rng = np.random.default_rng(n)
    total = np.zeros(32)
    for _ in range(n):
        total += np.cumsum(rng.standard_normal(32) ** 2)
    return total


@pytest.mark.parametrize("n", [1, 5, 17])
def test_numeric_pipeline_identical_across_engines(n):
    sim_engine = create_engine("sim", nodes=3)
    sim_out = sim_engine.run(numeric_graph("s"), XJob(n)).token.total.array

    with create_engine("threaded") as teng:
        thr_out = teng.run(numeric_graph("t"), XJob(n)).total.array

    reference = expected_result(n)
    assert np.allclose(sim_out, reference)
    assert np.allclose(thr_out, reference)
    assert np.allclose(sim_out, thr_out)


def test_uppercase_identical_across_engines():
    text = "engines must agree on results"
    g1, *_ = build_uppercase_graph("node01", "node02 node03", name="up-sim")
    sim_out = create_engine("sim", nodes=3).run(g1, StringToken(text)).token.text

    g2, *_ = build_uppercase_graph("hostA", "hostB hostC", name="up-thr")
    with create_engine("threaded") as teng:
        thr_out = teng.run(g2, StringToken(text)).text
    assert sim_out == thr_out == text.upper()


def test_flow_control_semantics_match():
    """Window=1 must complete on both engines (lock-step, no deadlock)."""
    g1 = numeric_graph("fc-s")
    sim_engine = create_engine("sim", nodes=3,
                               policy=FlowControlPolicy(window=1))
    sim_out = sim_engine.run(g1, XJob(6)).token.total.array

    g2 = numeric_graph("fc-t")
    with create_engine("threaded", policy=FlowControlPolicy(window=1)) as teng:
        thr_out = teng.run(g2, XJob(6)).total.array
    assert np.allclose(sim_out, thr_out)


def test_error_semantics_match():
    class XBoom(LeafOperation):
        thread_type = XWork
        in_types = (XChunk,)
        out_types = (XChunk,)

        def execute(self, tok):
            raise ValueError("engine-agnostic crash")

    def graph(suffix):
        main = ThreadCollection(XMain, f"bmain{suffix}").map("node01")
        work = ThreadCollection(XWork, f"bwork{suffix}").map("node02")
        return Flowgraph(
            FlowgraphNode(XSplit, main)
            >> FlowgraphNode(XBoom, work, ConstantRoute)
            >> FlowgraphNode(XMerge, main),
            f"boom{suffix}",
        )

    with pytest.raises(ValueError, match="engine-agnostic crash"):
        create_engine("sim", nodes=2).run(graph("s"), XJob(2))
    with create_engine("threaded") as teng:
        with pytest.raises(ValueError, match="engine-agnostic crash"):
            teng.run(graph("t"), XJob(2), timeout=10)


# ---------------------------------------------------------------------------
# three-engine equivalence: add the multiprocess engine (real OS processes
# over TCP) to the contract — same graphs, same results, >= 4 kernels
# ---------------------------------------------------------------------------

from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.apps.lu import DistributedLU
from repro.apps.ring import RingJobToken, build_ring_graph

FOUR_NODES = ["node01", "node02", "node03", "node04"]


@pytest.mark.parametrize("n", [1, 5, 17])
def test_numeric_pipeline_identical_on_multiprocess(n):
    with create_engine("multiprocess") as engine:
        g = numeric_graph(f"mp{n}")
        engine.register_graph(g)
        mp_out = engine.run(g, XJob(n), timeout=60).total.array
    assert np.allclose(mp_out, expected_result(n))


def test_uppercase_identical_across_three_engines():
    text = "engines must agree on results"
    g1, *_ = build_uppercase_graph("node01", "node02 node03 node04",
                                   name="up3-sim")
    sim_out = create_engine("sim", nodes=4).run(g1, StringToken(text)).token.text

    g2, *_ = build_uppercase_graph("hostA", "hostB hostC hostD",
                                   name="up3-thr")
    with create_engine("threaded") as teng:
        thr_out = teng.run(g2, StringToken(text)).text

    g3, *_ = build_uppercase_graph(FOUR_NODES[0], " ".join(FOUR_NODES[1:]),
                                   name="up3-mp")
    with create_engine("multiprocess") as meng:
        meng.register_graph(g3)
        assert len(meng.kernel_names) >= 4
        mp_out = meng.run(g3, StringToken(text), timeout=60).text
    assert sim_out == thr_out == mp_out == text.upper()


def test_ring_identical_across_engines():
    with create_engine("threaded") as teng:
        thr_done = teng.run(build_ring_graph(FOUR_NODES),
                            RingJobToken(2048, 10))
    with create_engine("multiprocess") as meng:
        g = build_ring_graph(FOUR_NODES)
        meng.register_graph(g)
        mp_done = meng.run(g, RingJobToken(2048, 10), timeout=60)
    assert (thr_done.blocks, thr_done.received_bytes) == \
        (mp_done.blocks, mp_done.received_bytes) == (10, 20480)


def test_gameoflife_identical_across_engines():
    rng = np.random.default_rng(11)
    world = (rng.random((16, 12)) < 0.35).astype(np.uint8)
    steps = 2

    reference = world
    for _ in range(steps):
        reference = life_step(reference)

    def run_on(engine):
        gol = DistributedGameOfLife(engine, world, FOUR_NODES)
        gol.load()
        gol.step(improved=True)
        gol.step(improved=False)
        return gol.gather()

    sim_out = run_on(create_engine("sim", nodes=4))
    with create_engine("threaded") as teng:
        thr_out = run_on(teng)
    with create_engine("multiprocess") as meng:
        mp_out = run_on(meng)

    assert np.array_equal(sim_out, reference)
    assert np.array_equal(thr_out, reference)
    assert np.array_equal(mp_out, reference)


def test_lu_identical_across_engines():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((16, 16))

    def run_on(engine):
        lu = DistributedLU(engine, a, s=4, worker_nodes=FOUR_NODES)
        lu.load()
        lu.run()
        fact, pivots = lu.gather()
        assert lu.check()
        return fact, pivots

    sim_fact, sim_piv = run_on(create_engine("sim", nodes=4))
    with create_engine("threaded") as teng:
        thr_fact, thr_piv = run_on(teng)
    with create_engine("multiprocess") as meng:
        mp_fact, mp_piv = run_on(meng)

    assert np.allclose(sim_fact, thr_fact)
    assert np.allclose(sim_fact, mp_fact)
    for s_p, t_p, m_p in zip(sim_piv, thr_piv, mp_piv):
        assert np.array_equal(s_p, t_p)
        assert np.array_equal(s_p, m_p)


def test_flow_control_semantics_match_multiprocess():
    """Window=1 lock-step must complete across process boundaries too."""
    with create_engine("multiprocess", policy=FlowControlPolicy(window=1)) as meng:
        g = numeric_graph("fc-m")
        meng.register_graph(g)
        mp_out = meng.run(g, XJob(6), timeout=60).total.array
    assert np.allclose(mp_out, expected_result(6))


def test_error_semantics_match_multiprocess():
    class MBoom(LeafOperation):
        thread_type = XWork
        in_types = (XChunk,)
        out_types = (XChunk,)

        def execute(self, tok):
            raise ValueError("engine-agnostic crash")

    main = ThreadCollection(XMain, "mbmain").map("node01")
    work = ThreadCollection(XWork, "mbwork").map("node02")
    g = Flowgraph(
        FlowgraphNode(XSplit, main)
        >> FlowgraphNode(MBoom, work, ConstantRoute)
        >> FlowgraphNode(XMerge, main),
        "boom-mp",
    )
    with create_engine("multiprocess") as meng:
        meng.register_graph(g)
        with pytest.raises(ValueError, match="engine-agnostic crash"):
            meng.run(g, XJob(2), timeout=30)


# ---------------------------------------------------------------------------
# the resident service path joins the contract: a graph called through a
# ServiceClient session must return bit-identical tokens to the same
# graph driven directly on the sim and threaded engines
# ---------------------------------------------------------------------------

from repro.apps.gol_service import GameOfLifeService, GolReadRequest
from repro.service import ServiceClient, ServiceEngine

GOL_NODES = ["node01", "node02"]
READS = [(0, 0, 16, 12), (3, 2, 7, 5), (10, 0, 6, 12)]


def test_gol_read_identical_across_engines_and_service_path():
    rng = np.random.default_rng(23)
    world = (rng.random((16, 12)) < 0.35).astype(np.uint8)
    steps = 2

    reference = world
    for _ in range(steps):
        reference = life_step(reference)

    def evolve(engine):
        gol = GameOfLifeService(engine, world, GOL_NODES)
        gol.load()
        for _ in range(steps):
            gol.step(improved=True)
        return gol

    sim_gol = evolve(create_engine("sim", nodes=2))
    sim_reads = [sim_gol.read_block(*r) for r in READS]

    with create_engine("threaded") as teng:
        thr_gol = evolve(teng)
        thr_reads = [thr_gol.read_block(*r) for r in READS]

    with ServiceEngine() as seng:
        svc_gol = GameOfLifeService(seng, world, GOL_NODES)
        seng.expose(svc_gol.read_graph, "gol.read")
        address = seng.serve()
        svc_gol.load()
        for _ in range(steps):
            svc_gol.step(improved=True)
        with ServiceClient(address) as client:
            svc_reads = [
                client.call("gol.read", GolReadRequest(*r),
                            timeout=60).data.array
                for r in READS
            ]

    for (row, col, h, w), sim_b, thr_b, svc_b in zip(
            READS, sim_reads, thr_reads, svc_reads):
        expected = reference[row:row + h, col:col + w]
        assert np.array_equal(sim_b, expected)
        assert np.array_equal(thr_b, expected)
        assert np.array_equal(svc_b, expected)

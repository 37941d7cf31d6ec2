"""Tests for the real-thread engine: same programming model, real blocking."""

import threading
import time
import weakref

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
)
from repro.runtime import ScheduleError
from repro.runtime.threaded_engine import ThreadedEngine
from repro.serial import SimpleToken


class TJob(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class TItem(SimpleToken):
    def __init__(self, value=0):
        self.value = value


class TSum(SimpleToken):
    def __init__(self, total=0):
        self.total = total


class TMain(DpsThread):
    pass


class TWork(DpsThread):
    def __init__(self):
        self.seen = 0


class TFan(SplitOperation):
    in_types = (TJob,)
    out_types = (TItem,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(TItem(i))


class TSquare(LeafOperation):
    in_types = (TItem,)
    out_types = (TItem,)

    def execute(self, tok):
        self.thread.seen += 1
        self.post(TItem(tok.value**2))


class TCollect(MergeOperation):
    in_types = (TItem,)
    out_types = (TSum,)

    def execute(self, tok):
        total = 0
        while tok is not None:
            total += tok.value
            tok = yield self.next_token()
        yield self.post(TSum(total))


def build(n_workers=3, window=8):
    engine = ThreadedEngine(policy=FlowControlPolicy(window=window))
    main = ThreadCollection(TMain, "tmain").map("hostA")
    workers = ThreadCollection(TWork, "twork").map(
        " ".join(f"host{c}" for c in "BCD"[:n_workers])
    )
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TSquare, workers, RoundRobinRoute)
        >> FlowgraphNode(TCollect, main),
        "tsum",
    )
    return engine, g


def test_uppercase_on_real_threads():
    with ThreadedEngine() as engine:
        graph, *_ = build_uppercase_graph("hostA", "hostB hostC")
        result = engine.run(graph, StringToken("threaded engine"))
        assert result.text == "THREADED ENGINE"


def test_sum_of_squares_threaded():
    engine, g = build()
    with engine:
        result = engine.run(g, TJob(25))
        assert result.total == sum(i * i for i in range(25))


def test_sequential_runs_and_thread_state_persist():
    engine, g = build(n_workers=1)
    with engine:
        engine.run(g, TJob(4))
        engine.run(g, TJob(4))
        workers = next(c for c in g.collections() if c.name == "twork")
        # thread-local state persists across runs (distributed data idiom)
        assert engine.thread(workers, 0).seen == 8


def test_flow_control_window_one_completes():
    engine, g = build(window=1)
    with engine:
        result = engine.run(g, TJob(10))
        assert result.total == sum(i * i for i in range(10))


def test_concurrent_runs_from_multiple_client_threads():
    engine, g = build(window=None)
    results = {}

    def client(n):
        results[n] = engine.run(g, TJob(n)).total

    with engine:
        threads = [threading.Thread(target=client, args=(n,)) for n in (5, 8, 13)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    for n, total in results.items():
        assert total == sum(i * i for i in range(n))


def test_stream_operation_threaded():
    class TStream(StreamOperation):
        in_types = (TItem,)
        out_types = (TItem,)

        def execute(self, tok):
            while tok is not None:
                yield self.post(TItem(tok.value + 1))
                tok = yield self.next_token()

    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "smain").map("hostA")
    mid = ThreadCollection(TWork, "smid").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TStream, mid, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "tstream",
    )
    with engine:
        result = engine.run(g, TJob(6))
        assert result.total == sum(i + 1 for i in range(6))


def test_graph_call_between_graphs_threaded():
    class TAsk(LeafOperation):
        in_types = (TJob,)
        out_types = (TSum,)

        def execute(self, tok):
            res = yield self.call_graph("tsum", TJob(tok.n))
            yield self.post(TSum(res.total))

    engine, service = build()
    with engine:
        engine.register_graph(service)
        client_main = ThreadCollection(TMain, "tclient").map("hostA")
        client = Flowgraph(FlowgraphNode(TAsk, client_main).as_builder(), "tclient")
        result = engine.run(client, TJob(7))
        assert result.total == sum(i * i for i in range(7))


def test_worker_exception_propagates_to_caller():
    class TBoom(LeafOperation):
        in_types = (TItem,)
        out_types = (TItem,)

        def execute(self, tok):
            raise ValueError("kaboom")

    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "bmain").map("hostA")
    work = ThreadCollection(TWork, "bwork").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TBoom, work, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "tboom",
    )
    with engine:
        with pytest.raises(ValueError, match="kaboom"):
            engine.run(g, TJob(3), timeout=10)


def test_tokens_serialized_across_logical_nodes():
    """Crossing hostA→hostB must round-trip the wire format, so the
    receiver gets a *copy*, not the producer's object (paper's debugging
    kernels behaviour)."""
    captured = []

    class TCapture(LeafOperation):
        in_types = (TItem,)
        out_types = (TItem,)

        def execute(self, tok):
            captured.append(tok)
            self.post(TItem(tok.value))

    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "cmain").map("hostA")
    work = ThreadCollection(TWork, "cwork").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TCapture, work, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "tcapture",
    )
    sent = TJob(1)
    with engine:
        engine.run(g, sent)
    assert len(captured) == 1
    assert captured[0] is not sent


def test_shutdown_is_idempotent():
    engine, g = build()
    engine.run(g, TJob(2))
    engine.shutdown()
    engine.shutdown()


def test_failed_engine_fails_fast_on_next_run():
    """After a worker dies, subsequent run() calls must raise immediately
    instead of hanging until the timeout (satellite of the multiprocess
    dead-kernel path)."""
    class TBoom2(LeafOperation):
        in_types = (TItem,)
        out_types = (TItem,)

        def execute(self, tok):
            raise ValueError("first failure")

    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "ffmain").map("hostA")
    work = ThreadCollection(TWork, "ffwork").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TBoom2, work, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "tfailfast",
    )
    with engine:
        with pytest.raises(ValueError, match="first failure"):
            engine.run(g, TJob(2), timeout=10)
        import time
        t0 = time.monotonic()
        with pytest.raises(ScheduleError, match="engine has failed"):
            engine.run(g, TJob(2), timeout=30)
        # fail-fast: no waiting on the 30s timeout
        assert time.monotonic() - t0 < 5


def test_failed_run_does_not_strand_a_stalled_worker():
    """The split is parked on an admit gate when the leaf fails; no ack
    will ever open it.  The failure releases it: its handle lets go of
    the body, and shutdown() stops the loop at once instead of timing
    out on it and leaking its thread."""
    class TGatedFan(SplitOperation):
        in_types = (TJob,)
        out_types = (TItem,)

        def execute(self, tok):
            for i in range(tok.n):
                yield self.post(TItem(i))  # waits for the window

    class TBoom3(LeafOperation):
        in_types = (TItem,)
        out_types = (TItem,)

        def execute(self, tok):
            raise ValueError("leaf failed")

    engine = ThreadedEngine(policy=FlowControlPolicy(window=1))
    main = ThreadCollection(TMain, "stmain").map("hostA")
    work = ThreadCollection(TWork, "stwork").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TGatedFan, main)
        >> FlowgraphNode(TBoom3, work, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "tstranded",
    )
    with pytest.raises(ValueError, match="leaf failed"):
        engine.run(g, TJob(5), timeout=10)
    handles = list(engine._workers.values())
    assert len(handles) == 2
    loop_thread = engine._io_loop._thread
    t0 = time.monotonic()
    engine.shutdown()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"shutdown took {elapsed:.3f}s"
    assert not loop_thread.is_alive()
    (split,) = [h for h in handles if h.collection is main]
    assert split.steps is None


def test_idle_worker_lets_go_of_its_last_token():
    """A worker blocked on its inbox must not keep the token it last
    ran: on the multiprocess engine that token's arrays are borrowed
    from the sender's shm arena, and the block would stay out until the
    next message happened to arrive."""
    refs = []

    class Remember(TSquare):
        def execute(self, tok):
            refs.append(weakref.ref(tok))
            super().execute(tok)

    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "idle-main").map("hostA")
    worker = ThreadCollection(TWork, "idle-work").map("hostB")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(Remember, worker, ConstantRoute)
        >> FlowgraphNode(TCollect, main),
        "idle",
    )
    with engine:
        assert engine.run(g, TJob(3)).total == 5
        engine._call(lambda: None)  # the loop has finished the run's pass
        assert all(ref() is None for ref in refs), \
            "the idle worker kept a token"
    assert len(refs) == 3


def test_one_os_thread_hosts_every_dps_thread():
    """Every DPS thread is a handle on the engine's one loop: a run over
    five of them on three logical nodes starts one OS thread, and
    shutdown stops it."""
    before = threading.active_count()
    engine = ThreadedEngine()
    main = ThreadCollection(TMain, "one-main").map("hostA")
    work = ThreadCollection(TWork, "one-work").map("hostB*2 hostC*2")
    g = Flowgraph(
        FlowgraphNode(TFan, main)
        >> FlowgraphNode(TSquare, work, RoundRobinRoute)
        >> FlowgraphNode(TCollect, main),
        "one-loop",
    )
    assert engine.run(g, TJob(8)).total == sum(i * i for i in range(8))
    assert len(engine._workers) == 5
    assert threading.active_count() == before + 1
    engine.shutdown()
    assert threading.active_count() == before

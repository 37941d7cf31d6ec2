"""Engine tests for the first-class stream contract (DESIGN §5i).

Covers the callback contract (``on_token``/``on_close``/``emit``/
``end_of_stream``) on the simulated and real-thread engines, pacing via
``sleep()``, per-edge credit resolution (window=1 lock-step), the two
lossy shedding modes and their opposite starvation patterns, the
generator body the callbacks are sugar for (result-identical), and a
hypothesis sweep checking windowed aggregation is bit-identical
across engines.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import paper_cluster
from repro.core import (
    ConstantRoute,
    DpsThread,
    FlowControlPolicy,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    SplitOperation,
    StreamOperation,
    StreamPolicy,
    ThreadCollection,
    WindowSpec,
    WindowedStream,
)
from repro.core.windows import checksum_mix
from repro.runtime import SimEngine
from repro.runtime.threaded_engine import ThreadedEngine
from repro.serial import SimpleToken
from repro.trace import MetricsRegistry


class StrmJob(SimpleToken):
    def __init__(self, n=0, seed=0):
        self.n = n
        self.seed = seed


class StrmItem(SimpleToken):
    def __init__(self, seq=0, value=0):
        self.seq = seq
        self.value = value


class StrmOut(SimpleToken):
    def __init__(self, text=""):
        self.text = text


class StrmMain(DpsThread):
    pass


class StrmWork(DpsThread):
    pass


class StrmFan(SplitOperation):
    """Batch fan-out: seq i carries value seed + i."""

    in_types = (StrmJob,)
    out_types = (StrmItem,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(StrmItem(seq=i, value=tok.seed + i))


class StrmCollect(MergeOperation):
    """Order-independent fold: sorted seq:value pairs as text."""

    in_types = (StrmItem,)
    out_types = (StrmOut,)

    def execute(self, tok):
        pairs = []
        while tok is not None:
            pairs.append((tok.seq, tok.value))
            tok = yield self.next_token()
        yield self.post(StrmOut(
            ",".join(f"{s}:{v}" for s, v in sorted(pairs))))


def _graph(stage_class, *, fan=StrmFan, name="strm"):
    # the stage is a single-instance collection: a stream stage consumes
    # its whole input group, so the group cannot fan across instances
    main = ThreadCollection(StrmMain, f"{name}-main").map("node01")
    mids = ThreadCollection(StrmWork, f"{name}-mid").map("node02")
    return Flowgraph(
        FlowgraphNode(fan, main, name="fan")
        >> FlowgraphNode(stage_class, mids, ConstantRoute, name="stage")
        >> FlowgraphNode(StrmCollect, main, name="collect"),
        name,
    )


def _run_sim(graph, token, *, stream=None, metrics=None, window=8):
    engine = SimEngine(paper_cluster(4),
                       policy=FlowControlPolicy(window=window),
                       stream=stream, metrics=metrics)
    return engine, engine.run(graph, token)


def _run_threaded(graph, token, *, stream=None, window=8):
    with ThreadedEngine(policy=FlowControlPolicy(window=window),
                        stream=stream) as engine:
        return engine.run(graph, token)


# ---------------------------------------------------------------------------
# the callback contract
# ---------------------------------------------------------------------------

class FanOutStage(StreamOperation):
    """1..2 outputs per input plus a trailing flush: dynamic data rates."""

    in_types = (StrmItem,)
    out_types = (StrmItem,)

    def on_token(self, tok):
        self.emit(StrmItem(seq=2 * tok.seq, value=tok.value))
        if tok.seq % 2 == 0:
            self.emit(StrmItem(seq=2 * tok.seq + 1, value=-tok.value))

    def on_close(self):
        self.emit(StrmItem(seq=9_999, value=42))


def _fanout_expected(n, seed):
    pairs = []
    for i in range(n):
        pairs.append((2 * i, seed + i))
        if i % 2 == 0:
            pairs.append((2 * i + 1, -(seed + i)))
    pairs.append((9_999, 42))
    return ",".join(f"{s}:{v}" for s, v in sorted(pairs))


def test_callback_contract_on_sim():
    _, result = _run_sim(_graph(FanOutStage), StrmJob(n=7, seed=100))
    assert result.token.text == _fanout_expected(7, 100)


def test_callback_contract_on_threads():
    result = _run_threaded(_graph(FanOutStage, name="strm-t"),
                           StrmJob(n=7, seed=100))
    assert result.text == _fanout_expected(7, 100)


class CutoffStage(StreamOperation):
    """Stops listening after 3 inputs; the group must still terminate."""

    in_types = (StrmItem,)
    out_types = (StrmItem,)

    def on_token(self, tok):
        self.emit(StrmItem(seq=tok.seq, value=tok.value))
        if tok.seq >= 2:
            self.end_of_stream()

    def on_close(self):
        # the discarded remainder is visible for accounting
        self.emit(StrmItem(seq=500, value=self.input_discarded))


def test_end_of_stream_discards_but_terminates():
    for runner in (
        lambda g, t: _run_sim(g, t)[1].token,
        lambda g, t: _run_threaded(g, t),
    ):
        out = runner(_graph(CutoffStage, name="strm-cut"), StrmJob(n=10))
        # only seqs 0..2 processed; 7 inputs consumed after end_of_stream
        assert out.text == "0:0,1:1,2:2,500:7"


def test_emit_rejects_non_tokens():
    stage = FanOutStage()
    with pytest.raises(TypeError, match="Token"):
        stage.emit("not a token")


# ---------------------------------------------------------------------------
# sleep(): pacing without computing
# ---------------------------------------------------------------------------

class PacedFan(SplitOperation):
    streaming = True
    in_types = (StrmJob,)
    out_types = (StrmItem,)

    def execute(self, tok):
        for i in range(tok.n):
            yield self.sleep(0.25)
            yield self.post(StrmItem(seq=i, value=i))


def test_sleep_advances_virtual_time_without_cpu():
    engine, result = _run_sim(_graph(SlowRelay, fan=PacedFan,
                                     name="strm-paced"), StrmJob(n=8))
    assert result.token.text == ",".join(f"{i}:{i}" for i in range(8))
    # 8 sleeps of 0.25 virtual seconds pace the source
    assert result.makespan >= 2.0
    # idle time is not compute: the source node's CPU stays nearly free
    stats = engine.stats()
    assert stats["nodes"]["node01"]["compute_time"] < 0.1


# ---------------------------------------------------------------------------
# per-edge credits: window=1 lock-step
# ---------------------------------------------------------------------------

def test_edge_credits_lock_step():
    stream = StreamPolicy(edge_credits={"fan": 1})
    # BurstFan *yields* its posts, so a saturated window stalls the body
    graph = _graph(FanOutStage, fan=BurstFan, name="strm-lock")
    engine, result = _run_sim(graph, StrmJob(n=12), stream=stream,
                              window=64)

    def windows_named(node_name):
        return [
            w for c in engine.controllers.values()
            for (_, node_id, _), w in c.window_stats().items()
            if graph.node(node_id).name == node_name
        ]

    assert result.token.text == _fanout_expected(12, 0)
    fan_windows = windows_named("fan")
    assert fan_windows, "fan opener window not found"
    for window in fan_windows:
        assert window.window == 1          # the per-edge override applied
        assert window.stalls >= 10         # lock-step really stalled
        assert window.in_flight == 0       # and drained cleanly
    # the stage edge kept the schedule-wide window
    stage_windows = windows_named("stage")
    assert stage_windows and all(w.window == 64 for w in stage_windows)


# ---------------------------------------------------------------------------
# lossy shedding: drop-oldest starves the head, shed starves the tail
# ---------------------------------------------------------------------------

class BurstFan(SplitOperation):
    """A streaming opener that posts its whole burst instantly."""

    streaming = True
    in_types = (StrmJob,)
    out_types = (StrmItem,)

    def execute(self, tok):
        for i in range(tok.n):
            yield self.post(StrmItem(seq=i, value=i))


class SlowRelay(StreamOperation):
    in_types = (StrmItem,)
    out_types = (StrmItem,)

    def on_token(self, tok):
        self.emit(StrmItem(seq=tok.seq, value=tok.value))


def _shed_run(mode):
    metrics = MetricsRegistry()
    stream = StreamPolicy(credit_window=4, shedding=mode,
                          edge_credits={"stage": None})
    graph = _graph(SlowRelay, fan=BurstFan, name=f"strm-{mode}")
    _, result = _run_sim(graph, StrmJob(n=16), stream=stream,
                         metrics=metrics)
    survivors = sorted(int(p.split(":")[0])
                       for p in result.token.text.split(","))
    return survivors, metrics.counter("tokens_shed").value


def test_shed_keeps_the_oldest_tokens():
    survivors, shed = _shed_run("shed")
    # 4 in flight + 4 queued survive; the burst's tail is dropped
    assert shed == 8
    assert survivors == list(range(8))


def test_drop_oldest_keeps_the_freshest_tokens():
    survivors, shed = _shed_run("drop-oldest")
    # the in-flight head survives, the queue keeps only the tail
    assert shed == 8
    assert survivors == [0, 1, 2, 3, 12, 13, 14, 15]


def test_lossy_modes_starve_opposite_ends():
    shed_survivors, _ = _shed_run("shed")
    fresh_survivors, _ = _shed_run("drop-oldest")
    assert max(shed_survivors) < 8      # tail-drop: newest data lost
    assert max(fresh_survivors) == 15   # ring-buffer: newest data kept
    assert shed_survivors != fresh_survivors


def test_block_mode_loses_nothing():
    stream = StreamPolicy(credit_window=4, shedding="block",
                          edge_credits={"stage": None})
    graph = _graph(SlowRelay, fan=BurstFan, name="strm-block")
    _, result = _run_sim(graph, StrmJob(n=16), stream=stream)
    survivors = sorted(int(p.split(":")[0])
                       for p in result.token.text.split(","))
    assert survivors == list(range(16))


# ---------------------------------------------------------------------------
# one contract: a generator body and the callbacks are the same stage
# ---------------------------------------------------------------------------

def test_generator_body_and_callbacks_are_result_identical():
    class GeneratorInc(StreamOperation):
        in_types = (StrmItem,)
        out_types = (StrmItem,)

        def execute(self, tok):
            while tok is not None:
                yield self.post(StrmItem(seq=tok.seq, value=tok.value + 1))
                tok = yield self.next_token()

    class CallbackInc(StreamOperation):
        in_types = (StrmItem,)
        out_types = (StrmItem,)

        def on_token(self, tok):
            self.emit(StrmItem(seq=tok.seq, value=tok.value + 1))

    job = StrmJob(n=9, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither spelling is second-class
        _, generator = _run_sim(_graph(GeneratorInc, name="strm-gen"), job)
        _, callbacks = _run_sim(_graph(CallbackInc, name="strm-cb"), job)
    assert generator.token.text == callbacks.token.text


# ---------------------------------------------------------------------------
# cross-engine parity of windowed aggregation
# ---------------------------------------------------------------------------

class ParityWindow(WindowedStream):
    in_types = (StrmItem,)
    out_types = (StrmItem,)
    window = WindowSpec(4)

    def seq_of(self, tok):
        return tok.seq

    def value_of(self, tok):
        return tok.value

    def make_result(self, result):
        return StrmItem(seq=result.window_id,
                        value=checksum_mix(result.count, result.checksum))


@settings(deadline=None, max_examples=5)
@given(n=st.integers(min_value=1, max_value=24),
       seed=st.integers(min_value=0, max_value=10**6))
def test_windowed_aggregation_bit_identical_across_engines(n, seed):
    job = StrmJob(n=n, seed=seed)
    graph = _graph(ParityWindow, name="strm-parity")
    _, sim = _run_sim(graph, job)
    threaded = _run_threaded(_graph(ParityWindow, name="strm-parity-t"), job)
    assert sim.token.text == threaded.text

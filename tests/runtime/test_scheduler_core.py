"""One scheduler core: the same schedule violations, the same words.

``SimEngine`` and ``ThreadedEngine`` are substrates under one
:class:`repro.runtime.scheduler.Scheduler`; these tests drive the same
misbehaving graphs through both and require the identical
``ScheduleError`` text, then cover what only the shared core gave the
thread substrate: the stale-group prune, stall accounting where the body
waits, and credit returned at a scatter exit.
"""

import threading

import pytest

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
    StreamPolicy,
    ThreadCollection,
)
from repro.apps.strings import StringToken, build_uppercase_graph
from repro.core.ops import NextTokenRequest
from repro.runtime import ScheduleError, SimEngine, ThreadedEngine
from repro.runtime import scheduler as scheduler_module
from repro.serial import SimpleToken

ENGINES = ("sim", "threaded")


class JobTok(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class ItemTok(SimpleToken):
    def __init__(self, value=0):
        self.value = value


class SumTok(SimpleToken):
    def __init__(self, total=0):
        self.total = total


class Fan(SplitOperation):
    in_types = (JobTok,)
    out_types = (ItemTok,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(ItemTok(i))


class LockStepFan(Fan):
    def execute(self, tok):
        for i in range(tok.n):
            yield self.post(ItemTok(i))


class Silent(Fan):
    def execute(self, tok):
        pass


_burst_done = threading.Event()


class Burst(Fan):
    streaming = True

    def execute(self, tok):
        super().execute(tok)
        _burst_done.set()


class Echo(LeafOperation):
    in_types = (ItemTok,)
    out_types = (ItemTok,)

    def execute(self, tok):
        self.post(tok)


class Hold(Echo):
    def execute(self, tok):
        pass  # keeps its token, and with it the opener window's credit


class WrongPoster(Echo):
    def execute(self, tok):
        self.post(SumTok(1))


class StrayNext(Echo):
    def execute(self, tok):
        yield NextTokenRequest()


class Sum(MergeOperation):
    in_types = (ItemTok,)
    out_types = (SumTok,)

    def execute(self, tok):
        total = 0
        while tok is not None:
            total += tok.value
            tok = yield self.next_token()
        yield self.post(SumTok(total))


class EarlyMerge(Sum):
    def execute(self, tok):
        # long enough for the group total to arrive on either clock
        yield self.sleep(0.2)


class PlainMerge(Sum):
    def execute(self, tok):
        self.post(SumTok(0))


class AlternatingRoute(ConstantRoute):
    def route(self, token):
        return token.value % 2


def make_engine(kind, **kwargs):
    if kind == "sim":
        return SimEngine(paper_cluster(2), **kwargs)
    return ThreadedEngine(**kwargs)


def pipeline(name, split=Fan, leaf=Echo, merge=Sum, merge_route=ConstantRoute,
             sinks=1):
    main = ThreadCollection(DpsThread, f"{name}-main").map("node01")
    work = ThreadCollection(DpsThread, f"{name}-work").map("node02")
    sink = ThreadCollection(DpsThread, f"{name}-sink").map(f"node01*{sinks}")
    return Flowgraph(
        FlowgraphNode(split, main)
        >> FlowgraphNode(leaf, work, ConstantRoute)
        >> FlowgraphNode(merge, sink, merge_route),
        name,
    )


def run_twice_overlapping(kind, engine, graph, token):
    """Two activations of *graph* sharing the opener's window."""
    if kind == "sim":
        engine.start(graph, token)
        engine.start(graph, token)
        engine.run_to_completion()
        return
    _burst_done.clear()
    first = threading.Thread(
        target=lambda: pytest.raises(ScheduleError, engine.run, graph, token))
    first.start()
    try:
        assert _burst_done.wait(10)
        engine.run(graph, token, timeout=10)
    finally:
        first.join(10)


VIOLATIONS = {
    "merge returns before draining": (
        dict(merge=EarlyMerge),
        "EarlyMerge returned before consuming its whole group "
        "(consumed 1 of 3)"),
    "split posts nothing": (
        dict(split=Silent),
        "Silent (split) posted no tokens; a split/stream group must "
        "contain at least one"),
    "credit window sheds every post": (
        dict(split=Burst, leaf=Hold),
        "Burst (split): the credit window shed every posted token (3); "
        "the group would announce total 0 and hang its merge"),
    "group routed to two merge instances": (
        dict(split=LockStepFan, merge_route=AlternatingRoute, sinks=2),
        "group 1 routed to multiple merge instances (2/0 and 2/1); routing "
        "functions must send all tokens of one group to the same thread"),
    "undeclared out type": (
        dict(leaf=WrongPoster),
        "WrongPoster posted SumTok, declares out_types ['ItemTok']"),
    "non-generator merge body": (
        dict(merge=PlainMerge),
        "PlainMerge.execute must be a generator (it needs `tok = yield "
        "self.next_token()` to consume its group)"),
    "next_token() outside merge/stream": (
        dict(leaf=StrayNext),
        "next_token() outside a merge/stream body"),
}


@pytest.mark.parametrize("kind", ENGINES)
@pytest.mark.parametrize("violation", sorted(VIOLATIONS))
def test_same_schedule_error_text_on_both_engines(kind, violation):
    shape, expected = VIOLATIONS[violation]
    graph = pipeline(f"v-{kind}-{violation[:5].strip()}", **shape)
    lossy = violation == "credit window sheds every post"
    engine = make_engine(
        kind, policy=FlowControlPolicy(window=1),
        stream=StreamPolicy(credit_window=1, shedding="shed") if lossy
        else None)
    with engine:
        with pytest.raises(ScheduleError) as caught:
            if lossy:
                run_twice_overlapping(kind, engine, graph, JobTok(3))
            else:
                engine.run(graph, JobTok(3))
    assert str(caught.value) == expected


@pytest.mark.parametrize("kind", ENGINES)
def test_stalls_count_waits_not_deferrals(kind):
    """Bare posts are deferred behind a full window but nobody waits."""
    graph = pipeline(f"stalls-{kind}")
    with make_engine(kind, policy=FlowControlPolicy(window=1)) as engine:
        result = engine.run(graph, JobTok(6))
        token = getattr(result, "token", result)
        assert token.total == sum(range(6))
        scheduler = engine.controllers["node01"].scheduler \
            if kind == "sim" else engine.scheduler
        (window,) = scheduler.window_stats().values()
    assert window.total_posted == 6 and window.stalls == 0


def spy_gates(monkeypatch, engine):
    """Every admit gate *engine*'s scheduler makes, in order."""
    made = []
    real = engine.new_gate

    def new_gate():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(engine, "new_gate", new_gate)
    return made


def test_plain_split_posts_make_no_admit_gates(monkeypatch):
    """A plain body cannot wait at a gate, so its deferred posts get
    none: 198 of the uppercase split's 200 posts queue behind a window
    of 2, and no ack opens a gate nobody waits at."""
    graph, _, _ = build_uppercase_graph("node01", "node02 node03",
                                        name="gates-uppercase")
    text = "".join(chr(ord("a") + i % 26) for i in range(200))
    with ThreadedEngine(policy=FlowControlPolicy(window=2)) as engine:
        gates = spy_gates(monkeypatch, engine)
        assert engine.run(graph, StringToken(text)).text == text.upper()
        (window,) = engine.scheduler.window_stats().values()
    assert gates == []
    assert window.total_posted == 200 and window.stalls == 0


def test_generator_post_still_waits_at_its_gate(monkeypatch):
    """A yielded post behind a full window still stalls at its gate and
    is admitted by the ack."""
    graph = pipeline("gates-lockstep", split=LockStepFan)
    with ThreadedEngine(policy=FlowControlPolicy(window=1)) as engine:
        gates = spy_gates(monkeypatch, engine)
        assert engine.run(graph, JobTok(6)).total == sum(range(6))
        (window,) = engine.scheduler.window_stats().values()
    assert len(gates) == window.stalls == 5
    assert all(gate.opened for gate in gates)


def test_threads_substrate_prunes_stale_group_totals(monkeypatch):
    """Broadcast totals for groups that never land here stay bounded."""
    monkeypatch.setattr(scheduler_module, "MAX_STALE_GROUPS", 16)
    graph = pipeline("stale")
    with ThreadedEngine() as engine:
        engine.register_graph(graph)
        for group_id in range(1000, 1200):
            engine.send_group_total(graph, 2, group_id, 1)
        assert len(engine.scheduler._groups) <= 16
        assert engine.scheduler.open_groups() == []
        # live groups are untouched by the prune
        assert engine.run(graph, JobTok(4)).total == 6


class Shards(SplitOperation):
    in_types = (JobTok,)
    out_types = (ItemTok,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(ItemTok(i))


class ScatterCall(SplitOperation):
    in_types = (JobTok,)
    out_types = (ItemTok,)

    def execute(self, tok):
        count = yield self.call_scatter("served", tok)
        assert count == tok.n


@pytest.mark.parametrize("kind", ENGINES)
def test_scatter_exit_returns_window_credit(kind):
    """A leaf exit of a scatter graph acks its opener's window, so a
    scatter group larger than the window completes."""
    servers = ThreadCollection(DpsThread, f"sc-{kind}-srv").map("node01")
    served = Flowgraph(
        FlowgraphNode(Shards, servers)
        >> FlowgraphNode(Echo, servers, ConstantRoute),
        "served", scatter=True)
    clients = ThreadCollection(DpsThread, f"sc-{kind}-cli").map("node02")
    client = Flowgraph(
        FlowgraphNode(ScatterCall, clients)
        >> FlowgraphNode(Echo, clients, ConstantRoute)
        >> FlowgraphNode(Sum, clients, ConstantRoute),
        f"sc-{kind}-client")
    with make_engine(kind, policy=FlowControlPolicy(window=2)) as engine:
        engine.register_graph(served)
        result = engine.run(client, JobTok(9))
    assert getattr(result, "token", result).total == sum(range(9))

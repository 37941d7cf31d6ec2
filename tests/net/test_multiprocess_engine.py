"""MultiprocessEngine behaviour beyond the cross-engine contract:
scatter calls between applications in different processes, dead-kernel
detection, lifecycle rules and thread-state persistence."""

import multiprocessing
import os
import socket
import sys
import threading
import time

import pytest

from repro.apps.ring import RingJobToken, build_ring_graph
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
    ThreadCollection,
)
from repro.net import CONSOLE_KERNEL, DistributedKernel, \
    DuplicateRegistration, FrameReader, NameServer, NameServerClient, \
    run_kernel_process, send_messages
from repro.net import connections
from repro.net import protocol as P
from repro.net.recovery import FaultPolicy
from repro.runtime import MultiprocessEngine, ScheduleError
from repro.runtime.scheduler import Scheduler
from repro.serial import SimpleToken
from repro.trace import MetricsRegistry

from tests.runtime.test_scatter_calls import (
    ClientMerge,
    ClientProcess,
    ClientScatterCall,
    ClientThread,
    SQuery,
    ServerThread,
    server_scatter_graph,
)


def test_scatter_call_across_processes():
    """Inter-application split/merge (paper §6) with the server shards
    and the client pipeline in different OS processes."""
    servers = ThreadCollection(ServerThread, "mp-srv").map(
        "node01 node02 node03")
    scatter_graph = server_scatter_graph(servers, "mpsv.scatter")

    clients = ThreadCollection(ClientThread, "mp-cli").map("node04 node05")
    call_cls = type("ClientScatterCall_mp", (ClientScatterCall,),
                    {"service": "mpsv.scatter"})
    client_graph = Flowgraph(
        FlowgraphNode(call_cls, clients, ConstantRoute)
        >> FlowgraphNode(ClientProcess, clients, RoundRobinRoute)
        >> FlowgraphNode(ClientMerge, clients, ConstantRoute),
        "client-mpsv",
    )
    with MultiprocessEngine() as engine:
        engine.register_graph(scatter_graph)
        engine.register_graph(client_graph)
        assert len(engine.kernel_names) == 5
        answer = engine.run(client_graph, SQuery(1), timeout=60)
    # shards 0..2 produce values 100..102, client multiplies by 10
    assert answer.items == 3
    assert answer.total == (1000 + 1010 + 1020)


def test_graph_call_across_processes():
    """A body's ``call_graph`` on a worker kernel waits for a split-merge
    service spread over other kernels (the ``tsum`` shape of the threaded
    engine's graph-call test).  The caller's collection has an instance
    on a kernel the service does not touch and one on the kernel hosting
    the service's split and merge, so one result comes back over the
    wire and one is delivered locally."""
    main = ThreadCollection(MpMain, "mp-tsum-main").map("node01")
    work = ThreadCollection(MpWork, "mp-tsum-work").map("node02 node03")
    service = Flowgraph(
        FlowgraphNode(MpFan, main)
        >> FlowgraphNode(MpSquare, work, RoundRobinRoute)
        >> FlowgraphNode(MpCollect, main),
        "mp-tsum",
    )
    askers = ThreadCollection(MpMain, "mp-tclient").map("node04 node01")
    client = Flowgraph(
        FlowgraphNode(MpAsk, askers, RoundRobinRoute).as_builder(),
        "mp-tclient")
    with MultiprocessEngine() as engine:
        engine.register_graph(service)
        engine.register_graph(client)
        for n in (7, 5, 9):  # round robin: node04, node01, node04
            total = engine.run(client, MpJob(n), timeout=60).total
            assert total == sum(i * i for i in range(n))


class MpJob(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class MpItem(SimpleToken):
    def __init__(self, value=0):
        self.value = value


class MpSum(SimpleToken):
    def __init__(self, total=0):
        self.total = total


class MpMain(DpsThread):
    pass


class MpWork(DpsThread):
    def __init__(self):
        self.seen = 0


class MpFan(SplitOperation):
    thread_type = MpMain
    in_types = (MpJob,)
    out_types = (MpItem,)

    def execute(self, tok):
        for i in range(tok.n):
            self.post(MpItem(i))


class MpCount(LeafOperation):
    """Echoes the worker's cumulative token count — state probe."""

    thread_type = MpWork
    in_types = (MpItem,)
    out_types = (MpItem,)

    def execute(self, tok):
        self.thread.seen += 1
        self.post(MpItem(self.thread.seen))


class MpCollect(MergeOperation):
    thread_type = MpMain
    in_types = (MpItem,)
    out_types = (MpSum,)

    def execute(self, tok):
        total = 0
        while tok is not None:
            total += tok.value
            tok = yield self.next_token()
        yield self.post(MpSum(total))


class MpSquare(LeafOperation):
    thread_type = MpWork
    in_types = (MpItem,)
    out_types = (MpItem,)

    def execute(self, tok):
        self.post(MpItem(tok.value ** 2))


class MpAsk(LeafOperation):
    """Calls the ``mp-tsum`` service graph from inside a body."""

    thread_type = MpMain
    in_types = (MpJob,)
    out_types = (MpSum,)

    def execute(self, tok):
        res = yield self.call_graph("mp-tsum", MpJob(tok.n))
        yield self.post(MpSum(res.total))


def counting_graph(name, worker_mapping="node02"):
    main = ThreadCollection(MpMain, f"{name}-main").map("node01")
    work = ThreadCollection(MpWork, f"{name}-work").map(worker_mapping)
    return Flowgraph(
        FlowgraphNode(MpFan, main)
        >> FlowgraphNode(MpCount, work, ConstantRoute)
        >> FlowgraphNode(MpCollect, main),
        name,
    )


def _threads(pid):
    with open(f"/proc/{pid}/status") as status:
        return int(next(line.split()[1] for line in status
                        if line.startswith("Threads:")))


def test_eventloop_mode_thread_census():
    """The point of the I/O core and its timer queue: after its first
    ring run the console kernel owns exactly one ``dps-io:`` loop thread
    — no accept, per-peer ``dps-send:``, per-connection ``dps-recv:``,
    ack-flush or dial thread (a dial in flight is loop state too), and
    no engine thread polling children, leases or queue depths — and each
    worker kernel process is one thread turning its loop.  The kernels
    are the only children: the directory is answered on the console's
    loop, not by a process of its own."""
    g = build_ring_graph(["node01", "node02", "node03", "node04"])
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5)
    with MultiprocessEngine() as engine:
        engine.register_graph(g)
        assert engine.run(g, RingJobToken(512, 4), timeout=60).blocks == 4
        console = engine._console
        console._pool.send("late",  # unregistered
                           P.encode_control(P.MSG_SHUTDOWN))
        passed = threading.Event()
        console._io_loop.call(passed.set)  # behind the first dial attempt
        assert passed.wait(timeout=5)
        names = [t.name for t in threading.enumerate()
                 if t.name.startswith("dps-")]
        assert names == ["dps-io:__driver__"]
        with NameServerClient(engine.ns_address) as owner:
            owner.register("late", *listener.getsockname()[:2])
            accepted, _ = listener.accept()  # a retry lands
            reader, frames = FrameReader(accepted), []
            while not frames:
                frames.extend(reader.recv_batch())
        for name, proc in engine._kernel_procs.items():
            assert _threads(proc.pid) == 1, name
        children = multiprocessing.active_children()
        assert children and all(child.name.startswith("dps-kernel:")
                                for child in children), children
    accepted.close()
    listener.close()


def test_a_killed_kernel_leaves_the_directory():
    """The directory on the console's loop drops a kernel's name when its
    name-service connection does: a killed kernel is no longer listed."""
    g = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine() as engine:
        engine.register_graph(g)
        assert engine.run(g, RingJobToken(512, 2), timeout=60).blocks == 2
        with NameServerClient(engine.ns_address) as ns:
            assert ns.kernels() == [CONSOLE_KERNEL, "node01", "node02"]
            engine.fail_node("node02")
            deadline = time.monotonic() + 10
            while "node02" in ns.kernels() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ns.kernels() == [CONSOLE_KERNEL, "node01"]


def test_the_console_owns_its_name_over_tcp():
    """The console registers through its in-process client, which owns
    the name as a connection would: a TCP client cannot take it, and a
    lookup over TCP finds the console's listener."""
    g = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine() as engine:
        engine.register_graph(g)
        assert engine.run(g, RingJobToken(512, 2), timeout=60).blocks == 2
        with NameServerClient(engine.ns_address) as ns:
            with pytest.raises(DuplicateRegistration):
                ns.register(CONSOLE_KERNEL, "127.0.0.1", 1)
            assert ns.lookup(CONSOLE_KERNEL) == engine._console.address


def test_a_worker_flushes_before_it_closes_on_one_deadline(monkeypatch):
    """``run_kernel_process`` turns the kernel's loop on its caller's
    thread until ``MSG_SHUTDOWN``.  What the kernel queued before it — a
    trace reply and a barrier reply to a console it has not dialed yet —
    arrives, in order, before its sockets close; three peers it can never
    reach cost one shared close deadline, not three."""
    monkeypatch.setattr(connections, "CLOSE_DEADLINE", 0.5)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5)
    with NameServer() as ns, NameServerClient(ns.address) as owner:
        owner.register(CONSOLE_KERNEL, *listener.getsockname()[:2])
        ready, ready_w = multiprocessing.Pipe(duplex=False)
        worker = threading.Thread(
            target=run_kernel_process,
            args=("node01", 1, ns.address, [CONSOLE_KERNEL, "node01"], []),
            kwargs={"ready": ready_w})
        worker.start()
        assert ready.poll(10) and ready.recv_bytes()
        with socket.create_connection(owner.lookup("node01")) as sock:
            t0 = time.monotonic()
            send_messages(sock, [
                P.encode_control(P.MSG_TRACE_FLUSH, CONSOLE_KERNEL),
                P.encode_control(P.MSG_REPLAY, 7),
                *(P.encode_control(P.MSG_TRACE_FLUSH, f"ghost{i}")
                  for i in range(3)),
                P.encode_control(P.MSG_SHUTDOWN)])
            accepted, _ = listener.accept()
            accepted.settimeout(5)
            reader, frames = FrameReader(accepted), []
            while (batch := reader.recv_batch()) is not None:
                frames.extend(P.decode_message(f, {})[0] for f in batch)
            worker.join(timeout=10)
            elapsed = time.monotonic() - t0
        accepted.close()
    listener.close()
    assert not worker.is_alive()
    assert frames == [P.MSG_TRACE, P.MSG_REPLAY_DONE]
    assert 0.5 <= elapsed < 1.5, f"returned after {elapsed:.2f}s"


def test_remote_merge_acks_each_token_exactly_once():
    """The paper's flow control over the wire, nothing in between: a
    merge on another kernel sends one ``MSG_ACK`` per token it consumes
    and the split's window applies exactly that many, ending empty."""
    tokens, window = 40, 4
    graph = Flowgraph(
        FlowgraphNode(MpFan, ThreadCollection(MpMain, "ack-split")
                      .map("node01"))
        >> FlowgraphNode(MpCount, ThreadCollection(MpWork, "ack-work")
                         .map("node02"), ConstantRoute)
        >> FlowgraphNode(MpCollect, ThreadCollection(MpMain, "ack-merge")
                         .map("node02")),
        "ack-once",
    )
    names = ["node01", "node02"]
    with NameServer() as ns:
        split_side, merge_side = kernels = [
            DistributedKernel(name, ordinal, ns.address, names,
                              policy=FlowControlPolicy(window),
                              metrics=MetricsRegistry())
            for ordinal, name in enumerate(names, start=1)]
        try:
            for kernel in kernels:
                kernel.register_graph(graph)
                kernel.start()
            applied = []
            apply_ack = split_side.scheduler.apply_ack
            split_side.scheduler.apply_ack = \
                lambda *ack: (applied.append(ack), apply_ack(*ack))[1]
            total = split_side.run(graph, MpJob(tokens), timeout=60).total
        finally:
            for kernel in kernels:
                kernel.shutdown()
    assert total == sum(range(1, tokens + 1))
    assert len(applied) == len(set(applied)) == tokens
    assert merge_side.metrics.counter("acks").value == tokens
    (credit,) = split_side.scheduler.window_stats().values()
    assert credit.total_posted == tokens and credit.in_flight == 0


def test_caller_threads_and_the_loop_share_an_inbox():
    """Caller threads enqueue entry tokens on a DPS thread while the
    kernel's loop advances it; the thread's inbox is the loop's, and a
    caller hands its token over with ``IOLoop.call``.  With thread
    switches forced inside every step every run completes — a token
    stranded in an inbox would hang its run until the timeout."""
    callers, runs = 4, 15
    graph = Flowgraph(
        FlowgraphNode(MpFan, ThreadCollection(MpMain, "inbox-split")
                      .map("node01"))
        >> FlowgraphNode(MpSquare, ThreadCollection(MpWork, "inbox-work")
                         .map("node02"), ConstantRoute)
        >> FlowgraphNode(MpCollect, ThreadCollection(MpMain, "inbox-merge")
                         .map("node02")),
        "inbox",
    )
    names = ["node01", "node02"]
    totals, errors = [], []

    def call(n):
        try:
            for _ in range(runs):
                totals.append((n, kernels[0].run(graph, MpJob(n),
                                                 timeout=30).total))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    with NameServer() as ns:
        kernels = [DistributedKernel(name, ordinal, ns.address, names)
                   for ordinal, name in enumerate(names, start=1)]
        threads = [threading.Thread(target=call, args=(n,))
                   for n in range(1, callers + 1)]
        sys.setswitchinterval(1e-5)
        try:
            for kernel in kernels:
                kernel.register_graph(graph)
                kernel.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            for kernel in kernels:
                kernel.shutdown()
    assert not errors
    assert len(totals) == callers * runs
    assert all(total == sum(i * i for i in range(n)) for n, total in totals)


def _loop_owned(entry, counts):
    """A scheduler entry point that counts its calls, and apart those
    made off its kernel's loop."""
    def entered(self, *args, **kwargs):
        counts[0] += 1
        if not self.sub._io_loop.on_loop_thread():
            counts[1] += 1
        return entry(self, *args, **kwargs)
    return entered


def test_only_its_loop_touches_a_kernel(monkeypatch):
    """A kernel's tables have one owner, its loop.  With every entry
    into the scheduler of the console and of every forked worker
    recording the calls made from another thread, none is made: not by
    four caller threads, not by a kernel killed mid-run and recovered,
    not by a join and a retire."""
    counts = multiprocessing.get_context("fork").RawArray("l", 2)
    for name in ("start", "post", "step", "emit", "apply_ack",
                 "apply_group_total", "release_stalled"):
        monkeypatch.setattr(Scheduler, name,
                            _loop_owned(getattr(Scheduler, name), counts))
    graph = build_ring_graph(["node01", "node02", "node03", "node04"])
    faults = FaultPolicy(kill_kernel="node03", kill_after_messages=5, seed=7)
    blocks, errors = [], []

    def call():
        try:
            for _ in range(3):
                blocks.append(engine.run(graph, RingJobToken(512, 8),
                                         timeout=60).blocks)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with MultiprocessEngine(recover=True, faults=faults) as engine:
        engine.register_graph(graph)
        assert engine.run(graph, RingJobToken(4096, 32),
                          timeout=120).blocks == 32
        assert engine.last_result.recovered
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
        assert not errors and blocks == [8] * 12
        joiner = engine.add_kernel()
        assert engine.run(graph, RingJobToken(512, 8), timeout=60).blocks == 8
        engine.retire_kernel(joiner)
        assert engine.run(graph, RingJobToken(512, 8), timeout=60).blocks == 8
        assert engine.last_result.rebalances == 2
    entries, strays = counts
    assert entries > 0 and strays == 0


def test_unloaded_ring_hop_costs_one_loop_wakeup():
    """One activation in flight: every kernel's send finds its peer idle
    and is written by the worker that produced it, so a wire message
    wakes one I/O loop (the receiver's), not two.  A 1-block ring call
    is 6 wire messages; with the sender-side hand-off it was 12.02
    wakeups per call."""
    calls = 50
    metrics = MetricsRegistry()
    graph = build_ring_graph(["node01", "node02", "node03", "node04"])
    with MultiprocessEngine(metrics=metrics) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(512, 1), timeout=60)  # dials
        engine.collect_traces()
        wakeups = metrics.counter("io_loop_wakeups")
        before = wakeups.value
        for _ in range(calls):
            done = engine.run(graph, RingJobToken(512, 1), timeout=60)
            assert done.blocks == 1
        engine.collect_traces()
        per_call = (wakeups.value - before) / calls
    assert per_call <= 8, f"{per_call:.2f} loop wakeups per ring call"


def test_a_window_of_tokens_does_not_travel_as_one_convoy():
    """A token leaves the kernel that made it when it is made: with the
    default window of tokens in flight around a 4-kernel ring, a frame
    is written on its own, not held back with the rest of a batch until
    the worker's inbox runs dry — which moved the window round the ring
    as one convoy, one kernel at a time (≈ 7.7 frames per syscall)."""
    blocks = 256
    metrics = MetricsRegistry()
    graph = build_ring_graph(["node01", "node02", "node03", "node04"])
    with MultiprocessEngine(metrics=metrics) as engine:
        engine.register_graph(graph)
        done = engine.run(graph, RingJobToken(512, blocks), timeout=60)
        engine.collect_traces()
    assert done.blocks == blocks
    fps = metrics.histogram("frames_per_syscall")
    assert fps.count and fps.total / fps.count <= 2.0, \
        f"{fps.total / max(1, fps.count):.2f} frames per syscall"


def test_thread_state_persists_across_runs():
    """DPS thread state lives in the kernel process and must survive
    successive activations (distributed data structures, paper §2)."""
    g = counting_graph("persist")
    with MultiprocessEngine() as engine:
        engine.register_graph(g)
        assert engine.run(g, MpJob(3), timeout=60).total == 1 + 2 + 3
        # same worker process, counter keeps growing
        assert engine.run(g, MpJob(3), timeout=60).total == 4 + 5 + 6


def test_register_after_start_rejected():
    g1 = counting_graph("early")
    g2 = counting_graph("late")
    with MultiprocessEngine() as engine:
        engine.register_graph(g1)
        engine.run(g1, MpJob(1), timeout=60)
        with pytest.raises(ScheduleError, match="before the first run"):
            engine.register_graph(g2)


def test_run_after_shutdown_rejected():
    g = counting_graph("closed")
    engine = MultiprocessEngine()
    engine.register_graph(g)
    engine.run(g, MpJob(1), timeout=60)
    engine.shutdown()
    with pytest.raises(ScheduleError, match="shut down"):
        engine.run(g, MpJob(1), timeout=60)


def test_kernel_names_cover_all_mappings():
    engine = MultiprocessEngine()
    engine.register_graph(counting_graph("names", "node02 node03"))
    assert engine.kernel_names == ["node01", "node02", "node03"]


class MpDie(LeafOperation):
    """Kills the whole kernel process — not just the worker thread."""

    thread_type = MpWork
    in_types = (MpItem,)
    out_types = (MpItem,)

    def execute(self, tok):
        os._exit(17)


def test_dead_kernel_process_fails_caller():
    """A kernel process dying mid-run must surface as an error on the
    console's run() instead of hanging until the timeout."""
    main = ThreadCollection(MpMain, "die-main").map("node01")
    work = ThreadCollection(MpWork, "die-work").map("node02")
    g = Flowgraph(
        FlowgraphNode(MpFan, main)
        >> FlowgraphNode(MpDie, work, ConstantRoute)
        >> FlowgraphNode(MpCollect, main),
        "die",
    )
    with MultiprocessEngine() as engine:
        engine.register_graph(g)
        t0 = time.monotonic()
        with pytest.raises((ScheduleError, ConnectionError),
                           match="node02|died"):
            engine.run(g, MpJob(2), timeout=60)
        assert time.monotonic() - t0 < 30  # detected, not timed out

"""One clock, one timer queue: ``IOLoop.call_later`` under an injected
clock, and the kernel jobs that run on it — down to the recovery and
member barriers, whose deadlines are timers on the kernel's clock.

Everything here is driven by a clock that moves only when the test
moves it — no test waits out a real interval.  After moving the clock a
test wakes the loop (:func:`_settle`), as arming any timer would.
"""

import os
import queue
import threading
import weakref

import pytest

from repro.core import ConstantRoute, FlowControlPolicy, Flowgraph, \
    FlowgraphNode, LeafOperation, ThreadCollection
from repro.net import DistributedKernel, IOLoop, NameServer
from repro.net import protocol as P
from repro.net.kernel import CONSOLE_KERNEL, RESEND_AFTER
from repro.runtime import KernelFailure
from repro.trace import MetricsRegistry

from tests.net.test_multiprocess_engine import MpCollect, MpCount, MpFan, \
    MpJob, MpMain, MpSum, MpWork


class FakeClock:
    """Seconds that pass only in :meth:`advance`."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds, *loops):
        self.now += seconds
        for loop in loops:
            _settle(loop)


def _settle(loop):
    """Wake *loop* and return once it has fired every timer now due (a
    zero-delay timer sorts behind them all)."""
    passed = threading.Event()
    loop.call_later(0, passed.set)
    assert passed.wait(timeout=5), "the loop is stuck in a callback"


def _on_loop(loop, fn):
    """Hand *fn* to *loop*, wait for the pass that runs it and return
    what it returned: how a test thread sends, since only a loop thread
    touches a peer channel or a pool."""
    done, out = threading.Event(), []

    def step():
        try:
            out.append(fn())
        finally:
            done.set()

    loop.call(step)
    assert done.wait(timeout=5), "the loop is stuck in a callback"
    assert out, "the callback raised"
    return out[0]


# ---------------------------------------------------------------------------
# IOLoop.call_later
# ---------------------------------------------------------------------------

def test_timers_fire_in_deadline_order_ties_in_call_order():
    clock = FakeClock()
    loop = IOLoop("order", clock=clock).start()
    fired = []
    try:
        loop.call_later(3, lambda: fired.append("c"))
        loop.call_later(1, lambda: fired.append("a"))
        loop.call_later(2, lambda: fired.append("b1"))
        loop.call_later(2, lambda: fired.append("b2"))
        _settle(loop)
        assert fired == []  # armed, nothing due
        clock.advance(1, loop)
        assert fired == ["a"]
        clock.advance(5, loop)
        assert fired == ["a", "b1", "b2", "c"]
        clock.advance(5, loop)
        assert fired == ["a", "b1", "b2", "c"]  # each fires once
    finally:
        loop.close()


def test_cancelled_timer_never_fires_and_does_not_block_later_ones():
    clock = FakeClock()
    loop = IOLoop("cancel", clock=clock).start()
    fired = []
    try:
        first = loop.call_later(1, lambda: fired.append("cancelled"))
        loop.call_later(2, lambda: fired.append("kept"))
        first.cancel()
        clock.advance(3, loop)
        assert fired == ["kept"]
    finally:
        loop.close()


def test_cancelled_timers_do_not_pile_up():
    """A cancelled timer would wait in the heap for its deadline; once
    cancelled ones make up most of the heap it is rebuilt without them,
    so a timer per call (a service call's timeout) does not grow the
    heap with the call rate."""
    clock = FakeClock()
    loop = IOLoop("pile", clock=clock).start()
    fired = []
    try:
        loop.call_later(60, lambda: fired.append("live"))
        for _ in range(1000):
            loop.call_later(60, lambda: fired.append("cancelled")).cancel()
        _settle(loop)
        _settle(loop)
        assert len(loop._timers) < 10
        clock.advance(60, loop)
        assert fired == ["live"]
    finally:
        loop.close()


def test_timer_rearms_from_inside_its_callback():
    """The shape of every periodic job: the callback arms the next."""
    clock = FakeClock()
    loop = IOLoop("rearm", clock=clock).start()
    ticks = []
    try:
        def tick():
            ticks.append(clock.now)
            loop.call_later(1, tick)

        loop.call_later(1, tick)
        for _ in range(3):
            clock.advance(1, loop)
        assert ticks == [1.0, 2.0, 3.0]
        # A late loop catches up one period at a time, not in a burst
        # inside one pass: the re-arm is queued behind the pass.
        clock.advance(10, loop)
        assert ticks == [1.0, 2.0, 3.0, 13.0]
    finally:
        loop.close()


def test_exception_in_one_timer_stops_neither_the_loop_nor_the_others(capsys):
    clock = FakeClock()
    loop = IOLoop("boom", clock=clock).start()
    fired = []
    try:
        loop.call_later(1, lambda: 1 / 0)
        loop.call_later(1, lambda: fired.append("same pass"))
        loop.call_later(2, lambda: fired.append("later"))
        clock.advance(1, loop)
        assert fired == ["same pass"]
        clock.advance(1, loop)
        assert fired == ["same pass", "later"]
    finally:
        loop.close()
    assert "ZeroDivisionError" in capsys.readouterr().err


def test_timers_are_dropped_at_close():
    clock = FakeClock()
    loop = IOLoop("drop", clock=clock).start()
    fired = []
    loop.call_later(1, lambda: fired.append("armed before close"))
    _settle(loop)
    loop.close()
    loop.call_later(0, lambda: fired.append("armed after close"))
    clock.now += 5
    loop.call(lambda: None)  # inline after close: must not fire timers
    assert fired == []
    assert not loop._timers


def test_idle_loop_with_a_far_timer_does_not_spin():
    """The earliest deadline is the select timeout, not a poll period."""
    metrics = MetricsRegistry()
    loop = IOLoop("idle", metrics=metrics).start()
    fired = threading.Event()
    try:
        loop.call_later(3600, fired.set)
        _settle(loop)
        wakeups = metrics.counter("io_loop_wakeups")
        before = wakeups.value
        assert not fired.wait(timeout=0.2)
        assert wakeups.value == before
    finally:
        loop.close()


def test_an_idle_loop_lets_go_of_the_last_call_it_ran():
    """A loop keeps no call it has run once the pass is over, so an idle
    one holds none while it blocks: a kernel's call closes over a token,
    whose arrays may borrow a block of the sender's shm arena.  Turned
    on this thread, the loop runs the call in one pass, and a timer
    looks in the next."""
    class Payload:
        pass

    loop = IOLoop("forget")
    payload = Payload()
    alive = weakref.ref(payload)
    seen = []

    def look():
        seen.append(alive() is not None)
        loop.stop()

    loop.call_later(0, look)
    loop.call(lambda payload=payload: None)
    del payload
    loop.run()
    loop.close()
    assert seen == [False]


class _RecordingSelector:
    """A real selector that records the timeout of every ``select``."""

    def __init__(self, inner):
        self._inner = inner
        self.timeouts = []

    def select(self, timeout=None):
        self.timeouts.append(timeout)
        return self._inner.select(timeout)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_sub_millisecond_timer_is_polled_for_not_slept_for():
    """epoll rounds a ``select`` timeout up to whole milliseconds, so a
    timer due in under 1 ms is waited out by ``select(2)`` on the epoll
    descriptor and then collected with ``select(0)`` — I/O and queued
    calls still served — and no timeout in (0, 1 ms) is ever passed in.  A deadline a millisecond or more away is slept for in
    whole milliseconds, the rest polled for: 2.3 ms away asks for 2."""
    clock = FakeClock()
    loop = IOLoop("submilli", clock=clock)
    selector = loop._selector = _RecordingSelector(loop._selector)
    loop.start()
    fired = []
    try:
        loop.call_later(5e-4, lambda: fired.append("soon"))
        _settle(loop)
        _settle(loop)  # a pass after the one that saw the timer armed
        assert fired == [] and selector.timeouts[-1] == 0
        clock.advance(5e-4, loop)
        assert fired == ["soon"]
        loop.call_later(2e-3, lambda: fired.append("later"))
        _settle(loop)
        _settle(loop)
        assert selector.timeouts[-1] == pytest.approx(2e-3)
        clock.advance(2e-3, loop)
        assert fired == ["soon", "later"]
        loop.call_later(2.3e-3, lambda: fired.append("odd"))
        _settle(loop)
        _settle(loop)
        assert selector.timeouts[-1] == pytest.approx(2e-3)
        clock.advance(2.3e-3, loop)
        assert fired == ["soon", "later", "odd"]
    finally:
        loop.close()
    assert not [t for t in selector.timeouts if t and t < 1e-3]


def test_reader_fires_until_removed_and_its_descriptor_stays_open():
    loop = IOLoop("reader").start()
    r, w = os.pipe()
    seen = threading.Semaphore(0)
    try:
        def readable():
            os.read(r, 1)
            seen.release()

        loop.add_reader(r, readable)
        for _ in range(2):
            os.write(w, b"x")
            assert seen.acquire(timeout=5)
        loop.remove_reader(r)
        _settle(loop)
        os.write(w, b"x")
        _settle(loop)
        assert not seen.acquire(blocking=False)
        assert os.read(r, 1) == b"x"  # nobody took it
        loop.add_reader(r, readable)  # still registered at close()
        _settle(loop)
    finally:
        loop.close()
    os.close(r)  # raises if the loop had closed it
    os.close(w)


# ---------------------------------------------------------------------------
# two in-process kernels on one fake clock
# ---------------------------------------------------------------------------

def _kernel_pair(ns, clock, name, window, **kwargs):
    """node01 splits and collects the result; node02 counts and merges."""
    graph = Flowgraph(
        FlowgraphNode(MpFan, ThreadCollection(MpMain, f"{name}-split")
                      .map("node01"))
        >> FlowgraphNode(MpCount, ThreadCollection(MpWork, f"{name}-work")
                         .map("node02"), ConstantRoute)
        >> FlowgraphNode(MpCollect, ThreadCollection(MpMain, f"{name}-merge")
                         .map("node02")),
        name,
    )
    names = ["node01", "node02"]
    kernels = [
        DistributedKernel(kernel, ordinal, ns.address, names,
                          policy=FlowControlPolicy(window), recover=True,
                          clock=clock, **kwargs)
        for ordinal, kernel in enumerate(names, start=1)]
    for kernel in kernels:
        kernel.register_graph(graph)
        kernel.start()
    return graph, kernels


def test_resend_ager_redelivers_a_dropped_frame_exactly_once():
    """One data frame is lost on the wire.  Nothing happens until the
    clock says ``RESEND_AFTER`` has passed; then the split's journal
    re-delivers that frame — once — and the run completes."""
    tokens = 4
    clock = FakeClock()
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "resend", window=tokens)
        split_side, merge_side = kernels
        try:
            arrivals = []
            dispatch = merge_side._dispatch_message

            def lossy_dispatch(kind, value):
                if kind == P.MSG_DATA:
                    index = value.frames[-1].index
                    arrivals.append(index)
                    if index == 1 and arrivals.count(1) == 1:
                        return  # lost
                dispatch(kind, value)

            merge_side._dispatch_message = lossy_dispatch

            acked = threading.Semaphore(0)
            apply_ack = split_side.scheduler.apply_ack
            split_side.scheduler.apply_ack = \
                lambda *ack: (apply_ack(*ack), acked.release())[0]

            result = []
            caller = threading.Thread(target=lambda: result.append(
                split_side.run(graph, MpJob(tokens), timeout=30).total))
            caller.start()
            for _ in range(tokens - 1):
                assert acked.acquire(timeout=10)
            # Everything but the lost frame is acknowledged, and without
            # the clock moving that is how it stays.
            _settle(split_side._io_loop)
            assert sorted(arrivals) == [0, 1, 2, 3]
            assert len(split_side.scheduler.journal) == 1

            clock.advance(RESEND_AFTER, split_side._io_loop)
            caller.join(timeout=30)
            assert not caller.is_alive()
            assert result == [1 + 2 + 3 + 4]
            assert sorted(arrivals) == [0, 1, 1, 2, 3]
            assert len(split_side.scheduler.journal) == 0

            clock.advance(3 * RESEND_AFTER, split_side._io_loop)
            assert sorted(arrivals) == [0, 1, 1, 2, 3]
        finally:
            for kernel in kernels:
                kernel.shutdown()


class _WedgeableNameServer(NameServer):
    """Reads requests but answers none while ``wedged`` is set."""

    def __init__(self):
        super().__init__()
        self.wedged = threading.Event()
        self.unwedge = threading.Event()

    def _handle(self, conn, request):
        if self.wedged.is_set():
            self.unwedge.wait(timeout=60)
        return super()._handle(conn, request)


def _beats_at(console):
    """The names in the ``MSG_BEAT`` frames *console* dispatches, as a
    queue the test thread reads."""
    beats = queue.SimpleQueue()
    dispatch = console._dispatch_message

    def counting(kind, value):
        if kind == P.MSG_BEAT:
            beats.put(value[0])
        dispatch(kind, value)

    console._dispatch_message = counting
    return beats


def test_wedged_name_server_does_not_stall_kernel_io():
    """Rule one of the loop: a worker kernel's loop never waits on the
    name server.  A beat travels to the console on the kernel's own
    channel, so with every name-server reply withheld the beats still
    arrive and a windowed run over already-dialed peers still
    finishes."""
    clock = FakeClock()
    interval = 0.25
    with _WedgeableNameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "wedged", window=2,
                                      heartbeat_interval=interval)
        console = _console(ns, clock, graph)
        beats = _beats_at(console)
        loops = [k._io_loop for k in kernels]
        split_side = kernels[0]
        try:
            assert split_side.run(graph, MpJob(3), timeout=30).total == 6
            # The first beats dial the console, a lookup each.
            clock.advance(interval, *loops)
            assert sorted(beats.get(timeout=5) for _ in kernels) == \
                ["node01", "node02"]
            ns.wedged.set()
            for _ in range(2):
                # _settle fails if a beat waits for the withheld reply
                clock.advance(interval, *loops)
                assert sorted(beats.get(timeout=5) for _ in kernels) == \
                    ["node01", "node02"]
            # 5 s: under the name-server client's 10 s socket timeout
            total = split_side.run(graph, MpJob(8), timeout=5).total
            assert total == sum(range(4, 12))
        finally:
            ns.unwedge.set()
            for kernel in (*kernels, console):
                kernel.shutdown()


#: set by :class:`Nap` right before it parks
_napping = threading.Event()


class Nap(LeafOperation):
    """Sleeps ``n`` seconds of its kernel's clock, then answers ``n``."""

    thread_type = MpMain
    in_types = (MpJob,)
    out_types = (MpSum,)

    def execute(self, tok):
        _napping.set()
        yield self.sleep(tok.n)
        yield self.post(MpSum(tok.n))


def test_a_parked_body_does_not_hold_its_kernel():
    """A DPS thread parked in a ``sleep`` leaves its kernel free: while
    it sleeps, another DPS thread of the same kernel completes a run and
    its beat reaches the console.  The sleep ends when the kernel's clock
    says so, not the wall clock."""
    clock = FakeClock()
    interval = 0.25
    nap = Flowgraph(FlowgraphNode(
        Nap, ThreadCollection(MpMain, "nap").map("node01")).as_builder(),
        "nap")
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "parked", window=2,
                                      heartbeat_interval=interval)
        console = _console(ns, clock, graph)
        beats = _beats_at(console)
        kernel = kernels[0]
        kernel.register_graph(nap)
        napped = []
        sleeper = threading.Thread(target=lambda: napped.append(
            kernel.run(nap, MpJob(30), timeout=60).total))
        try:
            sleeper.start()
            assert _napping.wait(timeout=10)
            assert kernel.run(graph, MpJob(3), timeout=30).total == 6
            clock.advance(interval, kernel._io_loop)
            while beats.get(timeout=5) != "node01":
                pass  # node02 beats too, whenever its loop wakes
            assert napped == [] and sleeper.is_alive()
            clock.advance(30, kernel._io_loop)
            sleeper.join(timeout=10)
            assert napped == [30]
        finally:
            for k in (*kernels, console):
                k.shutdown()


# ---------------------------------------------------------------------------
# the recovery and member barriers: continuations on the kernels' loops
# ---------------------------------------------------------------------------

def _console(ns, clock, graph):
    """A console kernel for a :func:`_kernel_pair`, on the same clock."""
    console = DistributedKernel(CONSOLE_KERNEL, 0, ns.address,
                                ["node01", "node02"], recover=True,
                                clock=clock)
    console.register_graph(graph)
    return console.start()


def test_member_barrier_moves_an_instance_without_a_thread():
    """Retiring node01 moves its split instance to node02.  Each kernel's
    share of the member barrier — the eviction, the shipped state, the
    adoption — runs on its loop: no thread is started for it, and the
    instance on node02 that stays keeps its state."""
    clock = FakeClock()
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "member", window=2)
        console = _console(ns, clock, graph)
        node02 = kernels[1]
        adopted = []
        adopt = node02._adopt_thread

        def adopting(collection, index, thread):
            adopted.append((collection.name, index,
                            node02._io_loop.on_loop_thread(),
                            threading.active_count()))
            adopt(collection, index, thread)

        node02._adopt_thread = adopting
        try:
            assert console.run(graph, MpJob(3), timeout=30).total == 6
            before = threading.active_count()
            assert console.rebalance(retired=["node01"]) == 1
            assert adopted == [("member-split", 0, True, before)]
            assert threading.active_count() == before
            # the split now runs on node02; the counter there carried on
            assert console.run(graph, MpJob(3), timeout=30).total == 4 + 5 + 6
            assert console.rebalance_snapshot()[:2] == (1, 1)
        finally:
            for kernel in (console, *kernels):
                kernel.shutdown()


def test_recovery_barrier_times_out_on_the_kernel_clock():
    """A survivor that never answers ``MSG_REMAP`` fails the console's
    remap barrier at exactly 10 s of the kernel's clock."""
    clock = FakeClock()
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "remap", window=2)
        console = _console(ns, clock, graph)
        node02 = kernels[1]
        remapped = threading.Event()
        dispatch = node02._dispatch_message

        def deaf(kind, value):
            if kind == P.MSG_REMAP:
                remapped.set()
                return
            dispatch(kind, value)

        node02._dispatch_message = deaf

        def failure():
            return console._call(lambda: console._failure)

        try:
            console.handle_kernel_down("node01", "declared dead by the test")
            assert remapped.wait(timeout=10)
            clock.advance(9.5, console._io_loop)
            assert failure() is None
            clock.advance(0.5, console._io_loop)
            assert isinstance(failure(), KernelFailure)
            assert "remap barrier timed out waiting for ['node02']" \
                in str(failure())
        finally:
            for kernel in (console, *kernels):
                kernel.shutdown()


def test_an_instance_parked_in_a_sleep_is_not_shipped(monkeypatch):
    """A member change hands an instance off only once everything queued
    for it has run.  One parked in a ``sleep`` past the deadline is not
    shipped half-run: at exactly 10 s of the kernel's clock the barrier
    fails with a :class:`KernelFailure` naming it, and no state leaves."""
    clock = FakeClock()
    nap = Flowgraph(FlowgraphNode(
        Nap, ThreadCollection(MpMain, "evict-nap").map("node01"))
        .as_builder(), "evict-nap")
    shipped = []
    encode = P.encode_control

    def spy(kind, *fields):
        if kind == P.MSG_THREAD_STATE:
            shipped.append(fields)
        return encode(kind, *fields)

    monkeypatch.setattr(P, "encode_control", spy)
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "evict", window=2)
        node01 = kernels[0]
        node01.register_graph(nap)
        outcome = []

        def sleeper():
            try:
                outcome.append(node01.run(nap, MpJob(30), timeout=60))
            except KernelFailure as exc:
                outcome.append(exc)

        def failure():
            return node01._call(lambda: node01._failure)

        _napping.clear()
        caller = threading.Thread(target=sleeper)
        caller.start()
        try:
            assert _napping.wait(timeout=10)
            member = (1, {"evict-nap": ["node01"]}, {"evict-nap": ["node02"]},
                      [], [])
            node01._call(
                lambda: node01._dispatch_message(P.MSG_MEMBER, member))
            clock.advance(9.5, node01._io_loop)
            assert failure() is None and shipped == []
            clock.advance(0.5, node01._io_loop)
            assert isinstance(failure(), KernelFailure)
            assert "evict-nap[0]" in str(failure())
            caller.join(timeout=10)
            assert outcome == [failure()]
            assert shipped == []
        finally:
            for kernel in kernels:
                kernel.shutdown()
            caller.join(timeout=10)


def test_thread_state_the_codec_rejects_fails_the_member_change_at_once():
    """An instance whose state the token codec rejects (int dict keys,
    the shape of an LU worker's) cannot migrate.  The donor ends the
    member change with a :class:`KernelFailure` naming the instance and
    the codec's reason as soon as it tries to ship it: the kernel clock
    never moves, so no barrier deadline is waited out."""
    clock = FakeClock()
    with NameServer() as ns:
        graph, kernels = _kernel_pair(ns, clock, "lu-shape", window=2)
        node01 = kernels[0]
        split = graph.collections()[0]
        try:
            assert node01.run(graph, MpJob(3), timeout=30).total == 6
            node01._call(lambda: setattr(node01.thread(split, 0), "rows",
                                         {1: [0.5, 0.25]}))
            member = (1, {split.name: ["node01"]}, {split.name: ["node02"]},
                      [], [])
            node01._call(
                lambda: node01._dispatch_message(P.MSG_MEMBER, member))
            for _ in range(100):
                _settle(node01._io_loop)
                failure = node01._call(lambda: node01._failure)
                if failure is not None:
                    break
            assert isinstance(failure, KernelFailure)
            assert "lu-shape-split[0]" in str(failure)
            assert "dict keys must be str, got int" in str(failure)
            assert clock.now == 0.0
        finally:
            for kernel in kernels:
                kernel.shutdown()

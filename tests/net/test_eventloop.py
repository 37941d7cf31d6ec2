"""The selectors I/O core: vectored partial-write resumption, loop
wakeups, readiness-driven accepts and reads, pass-end flush coalescing
and event-loop peers — including the one rule that picks when a message
is written (in the pass that made it when the peer is idle, at the
loop's flush otherwise).  Only a loop thread touches a peer, so the test
thread sends through :func:`_on_loop`.

The hypothesis suites drive :class:`~repro.net.eventloop.VectoredSender`
and the direct write of :class:`~repro.net.eventloop.EventLoopPeer`
against a mock socket whose ``sendmsg`` accepts an arbitrary byte count
per call (or raises ``EAGAIN``): whatever the kernel does to our writes,
the byte stream must stay bit-identical to the blocking sender's — frame
boundaries, FIFO order and payload bytes all survive.
"""

import contextlib
import itertools
import socket
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import (
    MAX_SENDMSG_SEGMENTS,
    EventLoopPeer,
    FrameReader,
    IOLoop,
    NameServer,
    NameServerClient,
    ShmReceiver,
    TransportPolicy,
    VectoredSender,
    host_fingerprint,
    send_messages,
)
from repro.net.protocol import MSG_ACK, MSG_DATA, MSG_SHM, \
    MSG_SHM_ATTACH, decode_message
from repro.serial import FRAME_HEADER_BYTES, WireError, frame, gather
from repro.trace import MetricsRegistry

from tests.net.test_timers import _on_loop


@pytest.fixture
def ns():
    server = NameServer().start()
    yield server
    server.stop()


def client(server):
    return NameServerClient(server.address)


def _wait_for(predicate, timeout=5.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def _recv_frames(sock, n):
    """At least the next *n* frames on *sock*, as bytes; a new reader
    each call, so the sender must not have sent more than that yet."""
    reader, frames = FrameReader(sock), []
    while len(frames) < n:
        batch = reader.recv_batch()
        assert batch is not None, "EOF"
        frames.extend(bytes(f) for f in batch)
    return frames


# ---------------------------------------------------------------------------
# VectoredSender: partial-write resumption (hypothesis)
# ---------------------------------------------------------------------------

class _FlakySocket:
    """A ``sendmsg`` that accepts an arbitrary byte count per call.

    Each entry of *decisions* scripts one call: ``0`` raises
    ``BlockingIOError`` (EAGAIN), ``n > 0`` accepts at most ``n`` bytes,
    ``None`` accepts everything.  Once the script runs out the socket
    accepts everything, so a pump loop always terminates.  Like a real
    socket it takes any buffer (a header ``bytearray``, a memoryview of
    any format), and asked for a descriptor it opens a real one, so a
    selector can watch it for ``EVENT_WRITE`` (then :meth:`close` it).
    """

    def __init__(self, decisions):
        self.received = bytearray()
        self._decisions = list(decisions)
        self.syscalls = 0
        self.eagains = 0
        #: EAGAINs plus calls that took fewer bytes than offered
        self.short_writes = 0
        self._pair = ()

    def fileno(self):
        if not self._pair:
            self._pair = socket.socketpair()
        return self._pair[0].fileno()

    def close(self):
        for end in self._pair:
            end.close()

    def sendmsg(self, iov):
        self.syscalls += 1
        cap = self._decisions.pop(0) if self._decisions else None
        if cap == 0:
            self.eagains += 1
            self.short_writes += 1
            raise BlockingIOError
        iov = [memoryview(v).cast("B") for v in iov]
        total = sum(v.nbytes for v in iov)
        take = total if cap is None else min(cap, total)
        if take < total:
            self.short_writes += 1
        left = take
        for v in iov:
            if left <= 0:
                break
            chunk = v if v.nbytes <= left else v[:left]
            self.received += chunk
            left -= chunk.nbytes
        return take


_message = st.lists(st.binary(max_size=200), max_size=3)
_decisions = st.lists(st.integers(min_value=0, max_value=300), max_size=60)


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.data_too_large])
@given(st.lists(_message, min_size=1, max_size=10), _decisions)
def test_vectored_sender_stream_is_bit_identical_under_partial_writes(
        messages, decisions):
    """Random short writes and EAGAINs never corrupt or reorder the
    frame stream: the accepted bytes equal the blocking sender's output
    byte for byte."""
    expected = bytearray()
    sender = VectoredSender(max_batch_bytes=512)
    for message in messages:
        expected += gather(frame([bytearray(s) for s in message]))
        sender.push([bytearray(s) for s in message])
    sock = _FlakySocket(decisions)
    rounds = 0
    while not sender.pump(sock):
        rounds += 1
        assert rounds < 10_000, "pump never drained"
    assert bytes(sock.received) == bytes(expected)
    assert sender.pending_frames == 0
    assert sender.pending_bytes == 0
    # Every EAGAIN and every short sendmsg is a partial write.
    assert sender.partial_writes >= sock.eagains


@settings(deadline=None, max_examples=30)
@given(st.lists(_message, min_size=1, max_size=6), _decisions)
def test_vectored_sender_frames_survive_reframing(messages, decisions):
    """The accepted stream re-parses into the original payloads in FIFO
    order (frame-boundary integrity, not just byte equality)."""
    sender = VectoredSender()
    for message in messages:
        sender.push([bytearray(s) for s in message])
    sock = _FlakySocket(decisions)
    while not sender.pump(sock):
        pass
    out_sock, in_sock = socket.socketpair()
    out_sock.sendall(sock.received)
    out_sock.close()
    reader = FrameReader(in_sock, recv_bytes=256)
    received = []
    while True:
        batch = reader.recv_batch()
        if batch is None:
            break
        received.extend(batch)
    in_sock.close()
    assert [bytes(r) for r in received] == \
        [b"".join(message) for message in messages]


def test_vectored_sender_coalesces_into_one_syscall():
    sender = VectoredSender()
    for i in range(20):
        sender.push([bytearray(b"%02d" % i * 8)])
    sock = _FlakySocket([])
    assert sender.pump(sock)
    assert sock.syscalls == 1
    frames, syscalls = sender.take_episode()
    assert frames == 20 and syscalls == 1


# ---------------------------------------------------------------------------
# FrameReader: non-blocking reads + staging-buffer reuse
# ---------------------------------------------------------------------------

def test_recv_ready_drains_only_what_is_there():
    out_sock, in_sock = socket.socketpair()
    in_sock.setblocking(False)
    reader = FrameReader(in_sock, recv_bytes=256)
    assert reader.recv_ready() == ([], False)  # nothing yet, no block
    payloads = [b"a" * 10, b"b" * 2000, b"c" * 3]  # middle one oversized
    for p in payloads:
        send_messages(out_sock, [[bytearray(p)]])
    received = []
    _wait_for(lambda: (received.extend(reader.recv_ready()[0]) or
                       len(received) == len(payloads)),
              what="all frames")
    assert [bytes(r) for r in received] == payloads
    out_sock.close()
    _wait_for(lambda: reader.recv_ready()[1], what="eof")
    in_sock.close()


def test_recv_ready_raises_on_eof_mid_frame():
    out_sock, in_sock = socket.socketpair()
    in_sock.setblocking(False)
    wire = bytes(gather(frame(b"x" * 100)))
    out_sock.sendall(wire[:-5])
    out_sock.close()
    reader = FrameReader(in_sock, recv_bytes=64)
    with pytest.raises(WireError, match="closed"):
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            reader.recv_ready()
            time.sleep(0.01)
    in_sock.close()


def test_framereader_oversized_path_no_per_call_allocation_growth():
    """ISSUE 6 satellite: the reader must reuse its staging buffer across
    oversized frames instead of growing per call (tracemalloc-verified)."""
    out_sock, in_sock = socket.socketpair()
    payload = bytearray(b"z" * (32 * 1024))  # one buffer, sent repeatedly
    warm, measured = 5, 40

    def sender():
        for _ in range(warm + measured):
            send_messages(out_sock, [[payload]])
        out_sock.close()

    thread = threading.Thread(target=sender)
    thread.start()
    reader = FrameReader(in_sock, recv_bytes=1024)
    try:
        for _ in range(warm):
            assert reader.recv_batch()
        staging = reader._staging
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(measured):
            batch = reader.recv_batch()
            assert batch and len(batch[0]) == len(payload)
            del batch
        assert reader.recv_batch() is None  # clean EOF; sender is done
        grown = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        # A leaked/grown buffer per call would be ~32 KiB/call here;
        # steady state must stay flat (allow noise well below one frame).
        assert grown < len(payload) // 2, f"reader grew {grown} bytes"
        assert reader._staging is staging  # same buffer, never reallocated
    finally:
        thread.join()
        in_sock.close()


# ---------------------------------------------------------------------------
# IOLoop
# ---------------------------------------------------------------------------

def test_ioloop_call_runs_on_loop_thread_and_counts_wakeups():
    metrics = MetricsRegistry()
    loop = IOLoop("unit", metrics=metrics).start()
    try:
        seen = []
        done = threading.Event()

        def record():
            seen.append(threading.current_thread().name)
            done.set()

        loop.call(record)
        assert done.wait(timeout=5)
        assert seen == ["dps-io:unit"]
        assert metrics.counter("io_loop_wakeups").value >= 1
    finally:
        loop.close()
    assert loop.closed


def test_ioloop_call_after_close_runs_inline():
    loop = IOLoop("dead").start()
    loop.close()
    ran = []
    loop.call(lambda: ran.append(threading.current_thread().name))
    assert ran == [threading.current_thread().name]


def test_ioloop_no_lost_wakeup_under_reentrant_calls():
    """Regression: a call() made from inside a loop callback sends a
    wake byte that the same pass's self-pipe drain consumes.  If the
    wake-pending flag survives that pass, the next call() from another
    thread skips its wake and the loop blocks in select() over queued
    work — observed as a multiprocess dial whose attach callback sat
    queued for an entire 60s run timeout."""
    loop = IOLoop("wakeup").start()
    try:
        for _ in range(200):
            fired = threading.Event()

            def outer():
                # Mid-pass re-entrant call: byte sent now, consumed by
                # this very pass's _on_wake.
                loop.call(lambda: None)

            loop.call(outer)
            # The racing external call must still wake the loop.
            loop.call(fired.set)
            assert fired.wait(timeout=5), "loop lost a wakeup"
    finally:
        loop.close()


def test_ioloop_stop_between_select_and_wake_drain_ends_the_loop():
    """Regression: a stop (or close) whose wake byte lands after the
    loop's post-select check but before the same pass drains the
    self-pipe lost its wakeup; the next select() blocked for good and
    the loop thread leaked.  A reader readied ahead of the pipe runs in
    exactly that gap and stops the loop from there."""
    loop = IOLoop("stop-race").start()
    ours, theirs = socket.socketpair()
    entered, release = threading.Event(), threading.Event()

    def on_readable():
        ours.recv(64)
        if not entered.is_set():
            entered.set()  # 1st pass: hold the loop while both get ready
            release.wait(5)
        else:
            loop.stop()  # 2nd pass: the wake drain comes after this

    try:
        loop.add_reader(ours, on_readable)
        theirs.send(b"a")
        assert entered.wait(5)
        theirs.send(b"b")  # the reader is ready again, ahead of ...
        loop._wake()  # ... the self-pipe, so it runs first next pass
        release.set()
        loop.join(timeout=5)
        assert not loop.running, "stop lost its wakeup"
    finally:
        loop.close()
        theirs.close()


def test_ioloop_add_connection_delivers_frames_then_eof():
    loop = IOLoop("rx").start()
    out_sock, in_sock = socket.socketpair()
    got, closed = [], []
    finished = threading.Event()
    loop.add_connection(
        in_sock, recv_bytes=256,
        on_frames=lambda frames: got.extend(frames),
        on_close=lambda exc: (closed.append(exc), finished.set()))
    payloads = [b"a" * 10, b"b" * 4000, b"c" * 2]  # middle one oversized
    for p in payloads:
        send_messages(out_sock, [[bytearray(p)]])
    out_sock.close()
    assert finished.wait(timeout=5)
    assert [bytes(g) for g in got] == payloads
    assert closed == [None]
    loop.close()


def test_ioloop_add_connection_reports_broken_stream():
    loop = IOLoop("rx-err").start()
    out_sock, in_sock = socket.socketpair()
    closed = []
    finished = threading.Event()
    loop.add_connection(
        in_sock, recv_bytes=256,
        on_frames=lambda frames: None,
        on_close=lambda exc: (closed.append(exc), finished.set()))
    wire = bytes(gather(frame(b"y" * 50)))
    out_sock.sendall(wire[:-3])  # die mid-payload
    out_sock.close()
    assert finished.wait(timeout=5)
    assert len(closed) == 1 and isinstance(closed[0], WireError)
    loop.close()


def test_ioloop_add_listener_accepts_back_to_back_dials():
    """The loop is the acceptor: N dials landing in one backlog are all
    accepted and adopted, and closing the listener from outside neither
    stops the loop nor disturbs the connections it already serves."""
    n = 8
    loop = IOLoop("accept").start()
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(n)
    got = []

    def adopt(conn):
        assert loop.on_loop_thread()
        loop.add_connection(
            conn, recv_bytes=256,
            on_frames=lambda frames: got.extend(bytes(f) for f in frames),
            on_close=lambda exc: None)

    dialed = [socket.create_connection(listener.getsockname())
              for _ in range(n)]  # all queued before the loop looks
    loop.add_listener(listener, adopt)
    try:
        for i, sock in enumerate(dialed):
            send_messages(sock, [[bytearray(b"dial-%d" % i)]])
        _wait_for(lambda: len(got) == n, what="a frame from every dial")
        assert sorted(got) == [b"dial-%d" % i for i in range(n)]
        listener.close()
        send_messages(dialed[0], [[bytearray(b"after")]])
        _wait_for(lambda: b"after" in got, what="frame after listener close")
        ran = threading.Event()
        loop.call(ran.set)
        assert ran.wait(timeout=5), "loop died with its listener"
    finally:
        for sock in dialed:
            sock.close()
        loop.close()


def test_ioloop_add_listener_survives_transient_accept_error():
    """An ``accept`` error on a still-open listener (ECONNABORTED, EMFILE)
    is retried at the next readiness event, not taken as 'closed'."""

    class FlakyListener(socket.socket):
        failures = 1

        def accept(self):
            if self.failures:
                self.failures -= 1
                raise ConnectionAbortedError("peer reset in the backlog")
            return super().accept()

    loop = IOLoop("flaky").start()
    listener = FlakyListener(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted = []
    loop.add_listener(listener, accepted.append)
    dialed = socket.create_connection(listener.getsockname())
    try:
        _wait_for(lambda: accepted, what="accept after a transient error")
        assert listener.failures == 0
    finally:
        dialed.close()
        for conn in accepted:
            conn.close()
        loop.close()


def test_at_pass_end_runs_after_burst_and_dedups():
    """Pass-end hooks are carried across back-to-back zero-timeout
    passes and run once, last registration per key winning, right
    before the loop blocks."""
    loop = IOLoop("passend").start()
    order = []
    done = threading.Event()
    try:
        def chain(i):
            order.append(f"c{i}")
            loop.at_pass_end("k", lambda: order.append("stale"))
            loop.at_pass_end("k", lambda: (order.append("flush"),
                                           done.set()))
            if i < 2:
                loop.call(lambda: chain(i + 1))

        loop.call(lambda: chain(0))
        assert done.wait(timeout=5)
        assert order == ["c0", "c1", "c2", "flush"]
    finally:
        loop.close()


# ---------------------------------------------------------------------------
# EventLoopPeer
# ---------------------------------------------------------------------------

class _Sink:
    """An accepting endpoint that records the frames it receives."""

    def __init__(self):
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.address = self.listener.getsockname()[:2]
        self.frames = []
        self._accepted = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        self._accepted, _ = self.listener.accept()
        reader = FrameReader(self._accepted)
        while True:
            batch = reader.recv_batch()
            if batch is None:
                return
            self.frames.extend(bytes(f) for f in batch)

    def close(self):
        if self._accepted is not None:
            try:
                # close() alone does not wake a reader blocked in recv()
                self._accepted.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._accepted.close()
        self.listener.close()
        self._thread.join(timeout=5)


def _data_frame(i):
    return [bytearray([MSG_DATA]) + b"payload-%03d" % i]


def _control_frame():
    return [bytearray([MSG_ACK]) + b"ack"]


def _undialed_peer(ns, sink, name, metrics=None, transport=None,
                   meta=None):
    """A peer towards *sink* that has sent nothing, so has not dialed
    yet: ``(owner, loop, conn)``.  Whatever one loop callback sends on
    it queues behind the dial its first send starts — a real backlog."""
    owner = NameServerClient(ns.address)
    owner.register(name, *sink.address, meta=meta)
    loop = IOLoop(f"peer-{name}", metrics=metrics).start()
    if transport is None:
        transport = TransportPolicy(shm_enabled=False)
    conn = EventLoopPeer(
        name, NameServerClient(ns.address), loop=loop,
        on_error=lambda peer, exc: None,
        transport=transport, metrics=metrics)
    return owner, loop, conn


def _peer(ns, sink, name, metrics=None, transport=None, meta=None):
    """A dialed-and-idle peer towards *sink*: ``(owner, loop, conn)``.

    Data frame 0 has arrived when this returns (behind the shm attach
    frame when *meta* and *transport* put the sink on the shm lane), and
    the loop is back in ``select``.
    """
    owner, loop, conn = _undialed_peer(ns, sink, name, metrics, transport,
                                       meta)
    _on_loop(loop, lambda: conn.send(_data_frame(0)))
    _wait_for(lambda: bytes(_data_frame(0)[0]) in sink.frames,
              what="dial + first frame")
    return owner, loop, conn


def test_eventloop_peer_coalesces_at_quiescence(ns):
    """Frames queued within one loop burst share a flush at the
    quiescent point, so a burst of sends lands as one multi-frame
    syscall episode — with no timer involved.  A send on an idle peer
    leaves at once, from the loop thread too; here the burst queues
    behind the dial its first send starts, whatever the sizes."""
    metrics = MetricsRegistry()
    sink = _Sink()
    owner, loop, conn = _undialed_peer(ns, sink, "quiesce", metrics=metrics)
    try:
        n = 8
        bulk = [bytearray([MSG_DATA])
                + bytes(TransportPolicy().shm_threshold)]
        # All sends happen inside one loop callback, so they all queue
        # before the dial lands and the pass-end flush sees them all.
        burst = [_data_frame(0), bulk] + [_data_frame(i)
                                          for i in range(1, n + 1)]
        loop.call(lambda: [conn.send(m) for m in burst])
        _wait_for(lambda: len(sink.frames) >= n + 2, what="burst frames")
        assert sink.frames == [bytes(_data_frame(0)[0]), bytes(bulk[0])] + [
            bytes(_data_frame(i)[0]) for i in range(1, n + 1)]
        fps = metrics.histogram("frames_per_syscall")
        assert fps.count and fps.total / fps.count > 1.0, (
            "a same-burst send batch should share a vectored flush")
    finally:
        loop.call(conn.close)
        loop.close()
        sink.close()
        owner.close()


def test_eventloop_peer_control_frame_keeps_fifo_behind_data(ns):
    """Acks must not overtake the data they answer: a control frame
    sent after data frames arrives after them, promptly."""
    sink = _Sink()
    owner, loop, conn = _peer(ns, sink, "fifo")
    try:
        _on_loop(loop, lambda: [conn.send(m) for m in (
            _data_frame(1), _data_frame(2), _control_frame())])
        _wait_for(lambda: len(sink.frames) >= 4, what="data then control")
        assert sink.frames[1:] == [bytes(_data_frame(1)[0]),
                                   bytes(_data_frame(2)[0]),
                                   bytes(_control_frame()[0])]
    finally:
        loop.call(conn.close)
        loop.close()
        sink.close()
        owner.close()


def test_eventloop_peer_idle_sends_are_written_in_the_pass_that_made_them(
        ns):
    """Back-to-back sends in one loop callback on an idle peer each go
    out at once, one ``sendmsg`` apiece: they arrive in order and the
    loop wakes for nothing but the callback's own pass."""
    metrics = MetricsRegistry()
    sink = _Sink()
    owner, loop, conn = _peer(ns, sink, "direct", metrics=metrics)
    try:
        wakeups = metrics.counter("io_loop_wakeups")
        fps = metrics.histogram("frames_per_syscall")
        before = wakeups.value
        n = 50

        def burst():
            # The baseline is read on the loop: the dial's flush may
            # record its batch after frame 0 has landed.
            baseline = fps.count, fps.total
            idle = []
            for i in range(1, n + 1):
                conn.send(_data_frame(i))
                idle.append(conn._idle())
            return baseline, idle

        (observed, sent), idle = _on_loop(loop, burst)
        assert idle == [True] * n, "an idle send queued"
        _wait_for(lambda: len(sink.frames) >= n + 1, what="direct frames")
        assert sink.frames == [bytes(_data_frame(i)[0])
                               for i in range(n + 1)]
        assert (fps.count - observed, fps.total - sent) == (n, n)
        assert wakeups.value <= before + 1, "an idle send woke the loop"
    finally:
        loop.call(conn.close)
        loop.close()
        sink.close()
        owner.close()


@contextlib.contextmanager
def _small_buffer_peer(ns, name, metrics=None):
    """A dialed, idle peer with 4 KiB socket buffers each way whose
    receiving end nobody reads but the test: ``(loop, conn, accepted)``.
    No message counts as bulk, so no send takes the shm lane."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    errors = []
    loop = IOLoop(name, metrics=metrics).start()
    try:
        with client(ns) as owner, client(ns) as c:
            owner.register(name, *listener.getsockname()[:2])
            conn = EventLoopPeer(
                name, c, loop=loop,
                on_error=lambda peer, exc: errors.append((peer, exc)),
                transport=TransportPolicy(shm_enabled=False,
                                          shm_threshold=1 << 30),
                metrics=metrics)
            _on_loop(loop, lambda: conn.send(_data_frame(0)))
            accepted, _ = listener.accept()
            try:
                assert _recv_frames(accepted, 1) == \
                    [bytes(_data_frame(0)[0])]
                _wait_for(conn._idle, what="dialed and idle")
                conn._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                      4096)
                yield loop, conn, accepted
            finally:
                loop.call(conn.close)
                accepted.close()
    finally:
        listener.close()
        loop.close()
    assert not errors


def test_eventloop_peer_caller_short_write_resumes_on_the_loop(ns):
    """A direct write the socket only partly accepts leaves its
    remainder to a later pass (``EVENT_WRITE``); the remainder and every
    later send arrive bit-identical and in order."""
    metrics = MetricsRegistry()
    with _small_buffer_peer(ns, "slow", metrics) as (loop, conn, accepted):
        # Nobody is reading: far more than both socket buffers hold.
        big = bytes(range(256)) * 4096
        _on_loop(loop, lambda: conn.send([bytearray([MSG_DATA]),
                                          memoryview(big)]))
        # Both read on the loop: its flush sets the write interest before
        # it reports the partial write.
        _wait_for(lambda: _on_loop(loop, lambda: conn._write_registered),
                  what="EVENT_WRITE")
        assert _on_loop(
            loop, lambda: metrics.counter("partial_writes").value) >= 1
        later = [_data_frame(i) for i in range(1, 6)]
        # queued behind the blocked remainder
        _on_loop(loop, lambda: [conn.send(m) for m in later])
        reader = FrameReader(accepted)
        received = []
        while len(received) < 1 + len(later):
            batch = reader.recv_batch()
            assert batch is not None
            received.extend(bytes(b) for b in batch)
        assert received[0] == bytes([MSG_DATA]) + big
        assert received[1:] == [bytes(m[0]) for m in later]
        _wait_for(conn._idle, what="drained and idle again")


def _loop_step(loop, conn):
    """One step of the loop thread, taken by hand on a loop that was
    never started: a queued call, else the pass-end flushes, else the
    peer's write readiness.  False once there is nothing left to do."""
    if loop._pending:
        loop._pending.popleft()()
    elif loop._pass_end:
        hooks = list(loop._pass_end.values())
        loop._pass_end.clear()
        for fn in hooks:
            fn()
    elif conn._write_registered:
        conn._on_writable()
    else:
        return False
    return True


_segment = st.one_of(
    st.binary(max_size=200).map(bytearray),
    # a view that is not "B": its bytes are nbytes, not len()
    st.lists(st.floats(), max_size=20).map(
        lambda xs: memoryview(np.array(xs, dtype=np.float64))),
)
_any_message = st.one_of(
    st.lists(_segment, max_size=3),
    # more segments than one sendmsg may carry
    st.integers(0, 3).map(lambda extra: [
        bytearray([i % 251]) for i in range(MAX_SENDMSG_SEGMENTS + extra)]),
)
_write_decisions = st.lists(st.one_of(
    st.just(0),                                  # EAGAIN
    st.just(1),                                  # one byte
    st.integers(2, FRAME_HEADER_BYTES - 1),      # a cut inside the header
    st.integers(FRAME_HEADER_BYTES, 400),
    st.none(),                                   # a full write
), max_size=40)


@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(st.lists(st.tuples(_any_message, st.integers(0, 3)),
                min_size=1, max_size=8),
       _write_decisions)
def test_caller_write_is_one_sendmsg_and_exact(sends, decisions):
    """The direct write is one ``sendmsg`` of header + segments;
    whatever the socket makes of it — EAGAIN, one byte, a cut inside the
    header, a message with more segments than one call may carry — the
    bytes the socket takes equal ``send_messages``' for the same
    messages, so later sends stay behind a remainder, and each short
    write counts once in ``partial_writes``.  Each send is followed by
    0–3 steps of the loop, so direct and queued writes interleave."""
    expected = _FlakySocket([])
    send_messages(expected, [message for message, _ in sends])
    metrics = MetricsRegistry()
    errors = []
    loop = IOLoop("by-hand", metrics=metrics)  # this test is its thread
    sock = _FlakySocket(decisions)
    conn = EventLoopPeer(
        "mock", None, loop=loop,
        on_error=lambda peer, exc: errors.append(exc),
        transport=TransportPolicy(shm_enabled=False, shm_threshold=1 << 30),
        metrics=metrics)
    conn._sock = sock
    try:
        for message, steps in sends:
            conn.send(message)
            for _ in range(steps):
                _loop_step(loop, conn)
        for _ in range(10_000):
            if not _loop_step(loop, conn):
                break
        assert bytes(sock.received) == bytes(expected.received)
        assert conn._idle() and not errors
        assert metrics.counter("partial_writes").value == sock.short_writes
    finally:
        loop.close()
        sock.close()


def test_eventloop_peer_keeps_each_producers_order(ns):
    """Four producer threads handing their sends to the loop, plus the
    loop itself, all sending to one peer at once, those the pattern
    picks starting while the peer is write-blocked: their first frames
    queue behind the backlog, the others start while it drains and go
    out directly once it has, so the direct and the queued path
    interleave.  Every producer's frames arrive in its own order, none
    lost and none duplicated."""
    producers, per_producer = 4, 200
    filler = [bytearray([MSG_ACK]), memoryview(bytes(1 << 20))]
    rounds = itertools.count()

    def tagged(round_no, producer, seq):
        return [bytearray([MSG_DATA])
                + b"%d:%d:%d" % (round_no, producer, seq)]

    def exchange(loop, conn, reader, blocked, round_no, threads):
        # blocked[p]: producer p (the last is the loop thread) starts
        # while the peer is write-blocked
        halfway = [threading.Event() for _ in range(producers + 1)]

        def produce(producer):
            for seq in range(per_producer):
                message = tagged(round_no, producer, seq)
                _on_loop(loop, lambda: conn.send(message))
                if seq == per_producer // 2:
                    halfway[producer].set()

        def produce_on_loop(seq=0):
            conn.send(tagged(round_no, producers, seq))
            if seq == per_producer // 2:
                halfway[producers].set()
            if seq + 1 < per_producer:
                loop.call(lambda: produce_on_loop(seq + 1))

        def start(producer):
            if producer == producers:
                loop.call(produce_on_loop)
                return
            thread = threading.Thread(target=produce, args=(producer,))
            threads.append(thread)
            thread.start()

        # nobody reads: both socket buffers fill
        _on_loop(loop, lambda: conn.send(filler))
        _wait_for(lambda: conn._write_registered, what="EVENT_WRITE")
        for p in range(producers + 1):
            if blocked[p]:
                start(p)
        for p in range(producers + 1):
            assert not blocked[p] or halfway[p].wait(timeout=30)
        assert conn._write_registered  # all of that queued

        received = []
        total = 1 + (producers + 1) * per_producer

        def read():
            while len(received) < total:
                batch = reader.recv_batch()
                if batch is None:
                    return
                received.extend(bytes(b) for b in batch)

        collector = threading.Thread(target=read)
        threads.append(collector)
        collector.start()
        for p in range(producers + 1):
            if not blocked[p]:
                start(p)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(received) == total
        assert received[0] == b"".join(bytes(s) for s in filler)
        seen = {}
        for payload in received[1:]:
            r, producer, seq = map(int, payload[1:].split(b":"))
            assert r == round_no
            seen.setdefault(producer, []).append(seq)
        assert seen == {p: list(range(per_producer))
                        for p in range(producers + 1)}

    @settings(deadline=None, max_examples=8)
    @given(st.lists(st.booleans(), min_size=producers + 1,
                    max_size=producers + 1))
    def run(blocked):
        # Each example has a connection of its own, and leaves no thread
        # behind on it: closing the peer ends the collector at EOF and
        # turns what a producer still sends into counted drops.
        round_no = next(rounds)
        with _small_buffer_peer(ns, f"mixed-{round_no}") as \
                (loop, conn, accepted):
            threads = []
            try:
                exchange(loop, conn, FrameReader(accepted), blocked,
                         round_no, threads)
            finally:
                _on_loop(loop, conn.close)
                for thread in threads:
                    thread.join(timeout=30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings of the hand-overs
    try:
        run()
    finally:
        sys.setswitchinterval(interval)


def _shm_peer(ns, sink, name, metrics, arena_bytes):
    """:func:`_peer` on the shm lane (threshold 1 KiB), dialed and idle,
    with the arena its ``MSG_SHM_ATTACH`` announced mapped by a
    receiver: ``(owner, loop, conn, receiver)``."""
    owner, loop, conn = _peer(
        ns, sink, name, metrics=metrics,
        transport=TransportPolicy(shm_threshold=1024,
                                  shm_arena_bytes=arena_bytes),
        meta={"fingerprint": host_fingerprint()})
    kind, (arena, size) = decode_message(bytearray(sink.frames[0]), {})
    assert kind == MSG_SHM_ATTACH
    _wait_for(conn._idle, what="dialed and idle")
    return owner, loop, conn, ShmReceiver(arena, size)


def _bulk_message(payload):
    return [bytearray([MSG_DATA]), memoryview(payload)]


def _borrowed(receiver, descriptor_frame):
    """The message bytes a ``MSG_SHM`` frame names in *receiver*'s arena."""
    kind, (block, length) = decode_message(bytearray(descriptor_frame), {})
    assert kind == MSG_SHM
    return bytes(receiver.borrow(block, length))


def test_eventloop_peer_bulk_send_is_written_in_the_pass_that_made_them(
        ns):
    """A message with a segment of ``shm_threshold`` size leaves an idle
    peer when it is made, like any other: copied into the arena, and
    its ``MSG_SHM`` descriptor written in the loop pass that made it,
    with no wakeup beyond that pass.  A small send right behind it does
    not overtake it."""
    metrics = MetricsRegistry()
    sink = _Sink()
    owner, loop, conn, receiver = _shm_peer(ns, sink, "shm-direct",
                                            metrics, arena_bytes=1 << 16)
    try:
        wakeups = metrics.counter("io_loop_wakeups")
        first = bytes(range(256)) * 16
        second = bytes(reversed(range(256))) * 16
        for i, payload in enumerate((first, second), 1):
            before = wakeups.value

            def burst():
                conn.send(_bulk_message(payload))
                idle = conn._idle()
                conn.send(_data_frame(i))
                return idle

            assert _on_loop(loop, burst), "the bulk send was queued"
            _wait_for(lambda: len(sink.frames) >= 2 + 2 * i,
                      what="descriptor frame")
            assert wakeups.value <= before + 1  # the callback's own pass

        assert sink.frames[3] == bytes(_data_frame(1)[0])
        assert sink.frames[5] == bytes(_data_frame(2)[0])
        # header and payload, one block each
        assert _borrowed(receiver, sink.frames[2]) == bytes([MSG_DATA]) + first
        assert _borrowed(receiver, sink.frames[4]) == \
            bytes([MSG_DATA]) + second
        assert metrics.counter("shm_bytes_bypassed").value == \
            2 * (1 + len(first))
    finally:
        receiver.close()
        loop.call(conn.close)
        loop.close()
        sink.close()
        owner.close()


def test_eventloop_peer_bulk_send_goes_inline_when_the_arena_is_full(ns):
    """An arena with room for two blocks, neither released: the third
    bulk send from an idle peer goes inline over TCP, byte-exact and in
    order, and only the first two count as bypassed."""
    metrics = MetricsRegistry()
    sink = _Sink()
    payloads = [bytes([i]) * 4096 for i in range(1, 4)]
    block = 1 + 1 + 4096  # state byte, MSG_DATA byte, payload
    owner, loop, conn, receiver = _shm_peer(
        ns, sink, "shm-full", metrics, arena_bytes=2 * block + block // 2)
    try:
        _on_loop(loop, lambda: [conn.send(m) for m in [
            *map(_bulk_message, payloads), _data_frame(1)]])
        _wait_for(lambda: len(sink.frames) >= 6, what="all four frames")
        assert sink.frames[4] == bytes([MSG_DATA]) + payloads[2]  # inline
        assert sink.frames[5] == bytes(_data_frame(1)[0])
        for frame_bytes, payload in zip(sink.frames[2:4], payloads):
            assert _borrowed(receiver, frame_bytes) == \
                bytes([MSG_DATA]) + payload
        assert metrics.counter("shm_bytes_bypassed").value == 2 * (block - 1)
    finally:
        receiver.close()
        loop.call(conn.close)
        loop.close()
        sink.close()
        owner.close()


def test_eventloop_peer_close_flushes_queued_frame(ns):
    """A close right behind a burst still delivers it: ``begin_close``
    reports flushed once the queued frames are on the wire, and only
    then is the socket closed."""
    sink = _Sink()
    owner, loop, conn = _undialed_peer(ns, sink, "closer")
    flushed = threading.Event()

    def burst_then_close():
        # The first send starts the dial; everything queues behind it.
        conn.send(_data_frame(0))
        conn.send([bytearray([MSG_DATA])
                   + bytes(TransportPolicy().shm_threshold)])
        conn.send(_data_frame(1))
        conn.begin_close(flushed.set)
        early.append(flushed.is_set())  # the flush waits for the dial

    early = []
    try:
        loop.call(burst_then_close)
        assert flushed.wait(timeout=5)
        assert early == [False]
        loop.call(conn.close)
        _wait_for(lambda: len(sink.frames) >= 3, what="flush on close")
        assert sink.frames[2] == bytes(_data_frame(1)[0])
    finally:
        loop.close()
        sink.close()
        owner.close()


def test_eventloop_peer_coalesces_queued_messages(ns):
    """Messages queued before the dial lands arrive in order, amortized
    over few syscalls."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    metrics = MetricsRegistry()
    errors = []
    loop = IOLoop("peer-test", metrics=metrics).start()
    with client(ns) as owner, client(ns) as c:
        conn = EventLoopPeer(
            "sink", c, loop=loop,
            on_error=lambda peer, exc: errors.append((peer, exc)),
            transport=TransportPolicy(shm_enabled=False),
            metrics=metrics)
        payloads = [b"%03d" % i * 10 for i in range(20)]
        _on_loop(loop, lambda: [conn.send([bytearray(p)])
                                for p in payloads])
        # Register only now: the dial retry loop guarantees every message
        # above is still queued when the connection lands, so they all
        # drain through one coalesced flush.
        owner.register("sink", *listener.getsockname()[:2])
        accepted, _ = listener.accept()
        received = _recv_frames(accepted, len(payloads))
        assert received == payloads
        loop.call(conn.close)
        accepted.close()
    listener.close()
    loop.close()
    assert not errors
    hist = metrics.histogram("frames_per_syscall")
    assert hist.count >= 1 and hist.max > 1.0  # at least one real batch


def test_eventloop_peer_failure_counts_drops_and_reports_once(ns):
    """An unreachable peer fails exactly once through on_error (the
    handle_kernel_down entry point) and every queued/subsequent message
    is a counted, traced drop — never a silent loss or a block."""
    metrics = MetricsRegistry()
    events = []
    errors = []
    failed = threading.Event()
    loop = IOLoop("ghost-test", metrics=metrics).start()

    def on_error(peer, exc):
        errors.append((peer, exc))
        failed.set()

    with client(ns) as c:
        conn = EventLoopPeer(
            "ghost", c, loop=loop, on_error=on_error,
            dial_deadline=0.2, metrics=metrics,
            trace=lambda kind, **fields: events.append((kind, fields)))
        # triggers the failing dial
        _on_loop(loop, lambda: conn.send([bytearray(b"first")]))
        assert failed.wait(timeout=10)
        _on_loop(loop, lambda: [conn.send([bytearray(b"late")])
                                for _ in range(3)])
        _wait_for(lambda: metrics.counter("token_drops").value >= 4,
                  what="token_drops")
        loop.call(conn.close)
    loop.close()
    assert len(errors) == 1 and errors[0][0] == "ghost"
    # "first" was still undelivered at failure time: it drops too.
    assert metrics.counter("token_drops").value == 4
    drop_events = [f for kind, f in events if kind == "token_drop"]
    assert drop_events and sum(f["dropped"] for f in drop_events) == 4
    assert all(f["peer"] == "ghost" for f in drop_events)


def test_eventloop_peer_broken_pipe_reaches_on_error(ns):
    """Writer-side BrokenPipeError propagates through on_error — the
    hook DistributedKernel routes into idempotent handle_kernel_down.
    The sends below find the peer idle, so it is a direct write, inside
    the send, that first sees the broken pipe: on_error must still fire
    exactly once, on the loop thread, and later sends are counted
    drops."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    errors = []
    failed = threading.Event()
    metrics = MetricsRegistry()
    loop = IOLoop("pipe-test").start()
    with client(ns) as owner, client(ns) as c:
        owner.register("dying", *listener.getsockname()[:2])
        conn = EventLoopPeer(
            "dying", c, loop=loop,
            on_error=lambda peer, exc: (
                errors.append((peer, exc, threading.current_thread().name)),
                failed.set()),
            transport=TransportPolicy(shm_enabled=False), metrics=metrics)
        _on_loop(loop, lambda: conn.send([bytearray(b"hello")]))
        accepted, _ = listener.accept()
        _recv_frames(accepted, 1)  # the first message
        # Kill the receiving side outright; subsequent writes must fail.
        accepted.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            b"\x01\x00\x00\x00\x00\x00\x00\x00")
        accepted.close()
        deadline = time.monotonic() + 10
        while not failed.is_set() and time.monotonic() < deadline:
            _on_loop(loop, lambda: conn.send([bytearray(b"x" * 4096)]))
            time.sleep(0.01)
        assert failed.wait(timeout=1)
        assert errors and errors[0][0] == "dying"
        assert isinstance(errors[0][1], OSError)
        assert errors[0][2] == "dps-io:pipe-test"
        settled = threading.Event()
        loop.call(settled.set)  # behind any pump a racing send queued
        assert settled.wait(timeout=5)
        drops = metrics.counter("token_drops")
        assert drops.value >= 1  # the frame whose write broke the pipe
        already = drops.value
        _on_loop(loop, lambda: [conn.send([bytearray(b"late")])
                                for _ in range(3)])
        _wait_for(lambda: drops.value >= already + 3, what="token_drops")
        assert drops.value == already + 3
        assert len(errors) == 1
        loop.call(conn.close)
    listener.close()
    loop.close()

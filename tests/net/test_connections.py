"""The loop-owned pool, the pool's close sequence and
TransportPolicy resolution (the peer channel itself is covered in
``test_eventloop.py``)."""

import dataclasses
import threading

import pytest

from repro.net import (
    ConnectionPool,
    IOLoop,
    NameServer,
    NameServerClient,
    TransportPolicy,
)
from repro.net.connections import CLOSE_DEADLINE

from tests.net.test_timers import FakeClock, _on_loop, _settle


@pytest.fixture
def ns():
    server = NameServer().start()
    yield server
    server.stop()


@pytest.fixture
def loop():
    loop = IOLoop("pool-test").start()
    yield loop
    loop.close()


def client(server):
    return NameServerClient(server.address)


# ---------------------------------------------------------------------------
# TransportPolicy
# ---------------------------------------------------------------------------

def test_policy_defaults_enable_everything():
    assert [f.name for f in dataclasses.fields(TransportPolicy)] == [
        "shm_enabled", "shm_threshold", "shm_arena_bytes"]
    policy = TransportPolicy()
    assert policy.shm_enabled
    assert not hasattr(TransportPolicy, "unbatched")
    assert not hasattr(policy, "ack_aggregation")


@pytest.mark.parametrize("removed", [
    {"io_mode": "threads"}, {"io_mode": "eventloop"}, {"flush_delay_us": 0},
    {"coalescing": False}, {"max_batch_bytes": 1 << 20},
    {"max_batch_frames": 256}, {"ack_flush_window": 0.0},
    {"ack_batch_limit": 1}, {"recv_buffer_bytes": 1 << 18},
    {"codec": "pure"}])
def test_policy_rejects_removed_knobs(removed):
    """One I/O core, one wire path, no timer flush window, no ack
    buffer, no codec choice: the fields are gone, not ignored."""
    with pytest.raises(TypeError):
        TransportPolicy(**removed)


# ---------------------------------------------------------------------------
# ConnectionPool
# ---------------------------------------------------------------------------

class _StubConn:
    """A channel whose flush the test reports (``flush``), or that
    reports it at once (*flushes*)."""

    def __init__(self, log=None, flushes=True):
        self.sent = []
        self.log = [] if log is None else log
        self.flushes = flushes
        self.flush = None

    def send(self, segments):
        self.sent.append(segments)

    def begin_close(self, on_flushed):
        self.log.append("begin")
        self.flush = on_flushed
        if self.flushes:
            on_flushed()

    def close(self):
        self.log.append("close")


def test_pool_takes_no_lock_and_sends_on_its_loop(ns, loop):
    """The pool is its loop thread's alone: it holds no lock, and a send
    handed to the loop reaches the cached channel there."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop,
                              on_error=lambda peer, exc: None)
        assert not [v for v in vars(pool).values()
                    if isinstance(v, type(threading.Lock()))]
        stub = _StubConn()
        pool._peers["peer"] = stub
        writers = []

        def send():
            writers.append(threading.current_thread().name)
            pool.send("peer", [bytearray(b"x")])

        _on_loop(loop, send)
        assert stub.sent == [[bytearray(b"x")]]
        assert writers == ["dps-io:pool-test"]


def test_pool_creates_peer_once_then_caches(ns, loop):
    """``close_all`` from another thread flushes and closes every channel
    on the loop, which then stops."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop,
                              on_error=lambda peer, exc: None,
                              dial_deadline=0.1)
        stub = _StubConn()
        pool._peers["peer"] = stub
        assert _on_loop(loop, lambda: pool.peer("peer")) is stub
        _on_loop(loop, lambda: pool.send("peer", [b"a"]))
        _on_loop(loop, lambda: pool.send("peer", [b"b"]))
        assert stub.sent == [[b"a"], [b"b"]]
        assert _on_loop(loop, pool.peer_names) == ["peer"]
        pool.close_all()
        assert pool.peer_names() == []
        assert stub.log == ["begin", "close"]
        assert not loop.running


def test_close_all_begins_every_close_before_waiting_on_any(ns):
    """N unreachable peers must cost one flush deadline, not N: every
    channel starts flushing first, and those that have not reported
    flushed when the one shared deadline passes are closed with the
    rest — at that deadline on the loop's clock, not before."""
    clock = FakeClock()
    loop = IOLoop("close-all", clock=clock).start()
    try:
        with client(ns) as c:
            pool = ConnectionPool(c, loop=loop,
                                  on_error=lambda peer, exc: None)
            log = []
            stubs = [_StubConn(log), _StubConn(log, flushes=False),
                     _StubConn(log, flushes=False),
                     _StubConn(log, flushes=False)]
            pool._peers.update(zip("abcd", stubs))
            loop.call(pool.close_all)
            _settle(loop)
            assert log == ["begin"] * 4
            loop.call(stubs[1].flush)  # one of three flushes late
            clock.advance(CLOSE_DEADLINE - 0.5, loop)
            assert log == ["begin"] * 4 and loop.running
            clock.now += 0.5
            loop.call(lambda: None)  # wake it: the deadline is due
            loop.join(timeout=5)
            assert log == ["begin"] * 4 + ["close"] * 4
            assert not loop.running
            assert pool.peer_names() == []
    finally:
        loop.close()


def test_close_all_closes_once_every_channel_has_flushed(ns, loop):
    """No deadline is waited out when every channel reports flushed."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop,
                              on_error=lambda peer, exc: None)
        log = []
        stubs = [_StubConn(log, flushes=False) for _ in range(2)]
        pool._peers.update(zip("ab", stubs))
        loop.call(pool.close_all)
        _settle(loop)
        loop.call(stubs[0].flush)
        _settle(loop)
        assert log == ["begin"] * 2 and loop.running
        loop.call(stubs[1].flush)
        loop.join(timeout=5)
        assert log == ["begin"] * 2 + ["close"] * 2
        assert not loop.running


def test_pool_forget_drops_the_channel_without_flushing(ns, loop):
    """A forgotten peer is closed on the spot, unflushed (the caller is
    the loop thread), and the next send builds a fresh channel."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop,
                              on_error=lambda peer, exc: None,
                              dial_deadline=0.1)
        stub = pool._peers["peer"] = _StubConn()
        _on_loop(loop, lambda: pool.forget("peer"))
        _on_loop(loop, lambda: pool.forget("never-dialed"))
        assert stub.log == ["close"]
        assert _on_loop(loop, pool.peer_names) == []
        assert _on_loop(loop, lambda: pool.peer("peer")) is not stub
        pool.close_all()

"""The lock-free pool hot path and TransportPolicy resolution (the
peer channel itself is covered in ``test_eventloop.py``)."""

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
    def __init__(self, log=None):
        self.sent = []
        self.log = [] if log is None else log

    def send(self, segments):
        self.sent.append(segments)

    def close(self, flush_timeout=5.0):
        self.closed_with = flush_timeout

    def begin_close(self):
        self.log.append("begin")

    def finish_close(self, flush_timeout):
        self.log.append("finish")
        self.closed_with = flush_timeout


def test_pool_send_hot_path_does_not_take_the_lock(ns, loop):
    """Once a peer connection exists, ``send`` must not touch the pool
    lock — the engine calls it with its own lock held, and PR 2 paid a
    lock acquire per token here."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop, hello_from="src",
                              on_error=lambda peer, exc: None)
        stub = _StubConn()
        pool._peers["peer"] = stub
        done = threading.Event()

        def hot_send():
            pool.send("peer", [bytearray(b"x")])
            done.set()

        with pool._lock:  # a slow first-dial in another thread
            worker = threading.Thread(target=hot_send)
            worker.start()
            assert done.wait(timeout=2), \
                "pool.send blocked on the pool lock for a cached peer"
        worker.join()
        assert stub.sent == [[bytearray(b"x")]]


def test_pool_creates_peer_once_then_caches(ns, loop):
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop, hello_from="src",
                              on_error=lambda peer, exc: None,
                              dial_deadline=0.1)
        stub = _StubConn()
        pool._peers["peer"] = stub
        assert pool.peer("peer") is stub
        pool.send("peer", [b"a"])
        pool.send("peer", [b"b"])
        assert stub.sent == [[b"a"], [b"b"]]
        assert pool.peer_names() == ["peer"]
        pool.close_all()
        assert pool.peer_names() == []


def test_close_all_begins_every_close_before_waiting_on_any(ns, loop):
    """N unreachable peers must cost one flush timeout, not N: every
    peer starts flushing first, then all are waited on under one
    deadline."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop, hello_from="src",
                              on_error=lambda peer, exc: None)
        log = []
        stubs = [_StubConn(log) for _ in range(3)]
        pool._peers.update(zip("abc", stubs))
        pool.close_all()
    assert log == ["begin"] * 3 + ["finish"] * 3
    waits = [stub.closed_with for stub in stubs]
    assert 0 < waits[2] <= waits[1] <= waits[0] <= 5.0


def test_pool_forget_drops_the_channel_without_flushing(ns, loop):
    """A forgotten peer is closed without a flush wait (the caller may be
    the loop thread) and the next send builds a fresh channel."""
    with client(ns) as c:
        pool = ConnectionPool(c, loop=loop, hello_from="src",
                              on_error=lambda peer, exc: None,
                              dial_deadline=0.1)
        stub = pool._peers["peer"] = _StubConn()
        pool.forget("peer")
        pool.forget("never-dialed")
        assert stub.closed_with == 0
        assert pool.peer_names() == []
        assert pool.peer("peer") is not stub
        pool.close_all()

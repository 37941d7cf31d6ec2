"""The lock-free pool hot path and TransportPolicy resolution (the
peer channel itself is covered in ``test_eventloop.py``)."""

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
    policy = TransportPolicy()
    assert policy.coalescing and policy.ack_aggregation and policy.shm_enabled


def test_policy_unbatched_disables_everything():
    policy = TransportPolicy.unbatched()
    assert not policy.coalescing
    assert not policy.ack_aggregation
    assert not policy.shm_enabled


def test_policy_ack_aggregation_requires_limit_and_window():
    assert not TransportPolicy(ack_batch_limit=1).ack_aggregation
    assert not TransportPolicy(ack_flush_window=0.0).ack_aggregation
    assert TransportPolicy(ack_batch_limit=2,
                           ack_flush_window=0.01).ack_aggregation


def test_policy_from_env():
    assert TransportPolicy.from_env({}) == TransportPolicy()
    off = TransportPolicy.from_env({"REPRO_TRANSPORT_BATCH": "0"})
    assert not off.coalescing and not off.ack_aggregation
    assert off.shm_enabled  # shm is a separate knob
    no_shm = TransportPolicy.from_env({"REPRO_SHM": "0"})
    assert no_shm.coalescing and not no_shm.shm_enabled
    tuned = TransportPolicy.from_env({"REPRO_SHM": "1",
                                      "REPRO_SHM_THRESHOLD": "4096"})
    assert tuned.shm_enabled and tuned.shm_threshold == 4096


@pytest.mark.parametrize("removed", [
    {"io_mode": "threads"}, {"io_mode": "eventloop"}, {"flush_delay_us": 0}])
def test_policy_rejects_removed_knobs(removed):
    """One I/O core, no timer flush window: the fields are gone, not
    ignored."""
    with pytest.raises(TypeError):
        TransportPolicy(**removed)


def test_policy_codec_modes():
    assert TransportPolicy(codec="pure").codec == "pure"
    with pytest.raises(ValueError, match="codec"):
        TransportPolicy(codec="fast")  # was an alias of "auto"


# ---------------------------------------------------------------------------
# ConnectionPool
# ---------------------------------------------------------------------------

class _StubConn:
    def __init__(self):
        self.sent = []

    def send(self, segments):
        self.sent.append(segments)

    def close(self, flush_timeout=5.0):
        pass


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

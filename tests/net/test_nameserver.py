"""Name-server edge cases: duplicate registration, unknown lookup,
re-registration after a kernel restart, one loop serving every client,
and the lazy dial's retry/backoff on its loop's clock."""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.net import (
    DialError,
    DuplicateRegistration,
    EventLoopPeer,
    FrameReader,
    IOLoop,
    NameServer,
    NameServerClient,
    NameServerError,
    TransportPolicy,
    UnknownKernel,
    send_messages,
)
from repro.net.eventloop import _DIAL_FIRST_DELAY

from tests.net.test_timers import FakeClock, _on_loop, _settle


@pytest.fixture
def ns():
    server = NameServer().start()
    yield server
    server.stop()


def client(server):
    return NameServerClient(server.address)


def test_register_and_lookup(ns):
    with client(ns) as c:
        c.register("kernelA", "127.0.0.1", 7001)
        assert c.lookup("kernelA") == ("127.0.0.1", 7001)
        assert c.list() == ["kernelA"]


def test_unknown_lookup_raises(ns):
    with client(ns) as c:
        with pytest.raises(UnknownKernel, match="nosuch"):
            c.lookup("nosuch")


def test_duplicate_registration_refused(ns):
    with client(ns) as c1, client(ns) as c2:
        c1.register("kernelA", "127.0.0.1", 7001)
        with pytest.raises(DuplicateRegistration, match="kernelA"):
            c2.register("kernelA", "127.0.0.1", 7002)
        # the first owner's registration is untouched
        assert c2.lookup("kernelA") == ("127.0.0.1", 7001)


def test_own_reregistration_updates_address(ns):
    with client(ns) as c:
        c.register("kernelA", "127.0.0.1", 7001)
        c.register("kernelA", "127.0.0.1", 7005)
        assert c.lookup("kernelA") == ("127.0.0.1", 7005)


def test_unregister_frees_the_name_at_once(ns):
    """An owner can give its name back without dropping the connection
    (whose EOF the server only notices later); nobody else can."""
    with client(ns) as c1, client(ns) as c2:
        c1.register("kernelA", "127.0.0.1", 7001)
        c2.unregister("kernelA")  # not the owner: no-op
        assert c2.lookup("kernelA") == ("127.0.0.1", 7001)
        c1.unregister("kernelA")
        with pytest.raises(UnknownKernel):
            c2.lookup("kernelA")
        c2.register("kernelA", "127.0.0.1", 7002)
        assert c1.lookup("kernelA") == ("127.0.0.1", 7002)


def test_reregistration_after_restart(ns):
    """A crashed kernel's name is freed when its connection drops, so a
    restarted kernel can register again under the same name."""
    c1 = client(ns)
    c1.register("kernelA", "127.0.0.1", 7001)
    c1.close()  # the "crash": connection EOF unregisters kernelA

    deadline = time.monotonic() + 5
    c2 = client(ns)
    try:
        while True:
            try:
                c2.register("kernelA", "127.0.0.1", 7002)
                break
            except DuplicateRegistration:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        assert c2.lookup("kernelA") == ("127.0.0.1", 7002)
    finally:
        c2.close()


def test_crash_unregisters_only_own_names(ns):
    c1 = client(ns)
    c1.register("kernelA", "127.0.0.1", 7001)
    with client(ns) as c2:
        c2.register("kernelB", "127.0.0.1", 7002)
        c1.close()
        deadline = time.monotonic() + 5
        while "kernelA" in c2.list():
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert c2.list() == ["kernelB"]


@contextlib.contextmanager
def _dialer(ns, name, deadline=15.0):
    """A channel towards *name* on a loop whose clock moves only when the
    test moves it: ``(clock, loop, conn, errors)``; *errors* collects
    ``(clock time, exception)`` for each failure reported."""
    clock = FakeClock()
    loop = IOLoop(f"dial-{name}", clock=clock).start()
    errors = []
    c = client(ns)
    conn = EventLoopPeer(
        name, c, loop=loop,
        on_error=lambda peer, exc: errors.append((clock.now, exc)),
        dial_deadline=deadline, transport=TransportPolicy(shm_enabled=False))
    try:
        yield clock, loop, conn, errors
    finally:
        loop.call(conn.close)
        loop.close()
        c.close()


def _until(loop, predicate):
    """Let *loop* take passes until *predicate* holds (an outcome that
    arrives as a readiness event, like a refused connect)."""
    for _ in range(500):
        _settle(loop)
        if predicate():
            return
    raise AssertionError("the loop never got there")


def _receives(listener, payload):
    conn, _ = listener.accept()
    conn.settimeout(5)
    reader, frames = FrameReader(conn), []
    try:
        while not frames:
            frames.extend(reader.recv_batch())
    finally:
        conn.close()
    assert [bytes(f) for f in frames] == [payload]


def test_dial_retry_backoff_on_late_registration(ns):
    """The dial keeps retrying while the peer has not registered yet —
    the lazy-connection startup race of paper §4 — each retry a timer
    on the loop's clock: nothing dials before the backoff has passed."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    lookups = []
    with client(ns) as owner, _dialer(ns, "latecomer") as (
            clock, loop, conn, errors):
        lookup = conn._ns.lookup_entry
        conn._ns.lookup_entry = lambda name: (lookups.append(clock.now),
                                              lookup(name))[1]
        conn.send([bytearray(b"first")])
        _settle(loop)
        owner.register("latecomer", *listener.getsockname()[:2])
        _settle(loop)
        assert lookups == [0.0]
        clock.advance(_DIAL_FIRST_DELAY, loop)
        assert lookups == [0.0, _DIAL_FIRST_DELAY]
        listener.settimeout(5)
        _receives(listener, b"first")
        assert not errors
    listener.close()


def test_dial_gives_up_after_deadline(ns):
    """A peer that never registers fails the dial with DialError exactly
    when the loop's clock reaches the deadline — and no real time has to
    pass for it."""
    with _dialer(ns, "ghost", deadline=1.0) as (clock, loop, conn, errors):
        conn.send([bytearray(b"first")])
        _settle(loop)
        for _ in range(7):  # 0.125 ... 0.875: retrying, not failed
            clock.advance(0.125, loop)
        assert errors == []
        clock.advance(0.125, loop)
        assert [(t, type(exc)) for t, exc in errors] == [(1.0, DialError)]
        assert "ghost" in str(errors[0][1])
        assert isinstance(errors[0][1].__cause__, UnknownKernel)


def test_dial_retries_refused_connection(ns):
    """The directory may point at a port nobody listens on yet (the peer
    registered between bind and listen losing a race); the dialer backs
    off and retries instead of failing on the first refusal."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()[:2]
    probe.close()  # port is now registered but refusing connections

    with client(ns) as owner, _dialer(ns, "slowpoke") as (
            clock, loop, conn, errors):
        owner.register("slowpoke", host, port)
        conn.send([bytearray(b"first")])
        _until(loop, lambda: isinstance(conn._dial_error,
                                        ConnectionRefusedError))
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            try:
                listener.bind((host, port))
            except OSError:
                pytest.skip("ephemeral port was reused by another process")
            listener.listen(1)
            listener.settimeout(5)
            clock.advance(_DIAL_FIRST_DELAY, loop)
            _receives(listener, b"first")
        finally:
            listener.close()
        assert not errors


def test_send_recv_roundtrip_over_socket():
    """Framed messages survive a real socket hop, segment list included."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    out = socket.create_connection(listener.getsockname()[:2])
    conn, _ = listener.accept()
    try:
        send_messages(out, [[bytearray(b"head"), b"-mid-",
                             memoryview(b"tail")], b""])
        out.close()
        reader, frames = FrameReader(conn), []
        while (batch := reader.recv_batch()) is not None:  # to clean EOF
            frames.extend(bytes(f) for f in batch)
        assert frames == [b"head-mid-tail", b""]
    finally:
        conn.close()
        listener.close()


# ---------------------------------------------------------------------------
# service records (the resident service tier's directory entries)
# ---------------------------------------------------------------------------

def test_services_empty(ns):
    with client(ns) as c:
        assert c.services() == []


def test_service_record_roundtrip(ns):
    with client(ns) as c:
        c.register("console", "127.0.0.1", 7001)
        c.register_service("gol.read", "console",
                           in_types=("GolReadRequest",),
                           out_types=("GolBlockToken",))
        c.register_service("upper", "console",
                           in_types=("StringToken",),
                           out_types=("StringToken",))
        assert c.services() == [
            {"service": "gol.read", "provider": "console",
             "in_types": ["GolReadRequest"],
             "out_types": ["GolBlockToken"]},
            {"service": "upper", "provider": "console",
             "in_types": ["StringToken"], "out_types": ["StringToken"]},
        ]


def test_service_without_live_provider_is_filtered(ns):
    """A record whose provider never registered (or whose registration
    already dropped) must not be listed — clients would dial a ghost."""
    with client(ns) as c:
        c.register_service("orphan", "nobody")
        assert c.services() == []


def test_service_dropped_with_owner_connection(ns):
    c1 = client(ns)
    c1.register("console", "127.0.0.1", 7001)
    c1.register_service("gol.read", "console")
    with client(ns) as c2:
        c2.register("other", "127.0.0.1", 7002)
        c2.register_service("other.svc", "other")
        assert len(c2.services()) == 2
        c1.close()  # the provider "crash"
        deadline = time.monotonic() + 5
        while len(c2.services()) > 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert [r["service"] for r in c2.services()] == ["other.svc"]


def test_duplicate_service_refused_across_connections(ns):
    from repro.net import DuplicateRegistration
    with client(ns) as c1, client(ns) as c2:
        c1.register("consoleA", "127.0.0.1", 7001)
        c2.register("consoleB", "127.0.0.1", 7002)
        c1.register_service("gol.read", "consoleA")
        with pytest.raises(DuplicateRegistration, match="gol.read"):
            c2.register_service("gol.read", "consoleB")
        # same-owner re-registration updates in place
        c1.register_service("gol.read", "consoleA",
                            in_types=("GolReadRequest",))
        records = c1.services()
        assert records[0]["provider"] == "consoleA"
        assert records[0]["in_types"] == ["GolReadRequest"]
        # unregister by a non-owner is a no-op
        c2.unregister_service("gol.read")
        assert len(c1.services()) == 1
        c1.unregister_service("gol.read")
        assert c1.services() == []


def test_concurrent_service_listing(ns):
    """Registrations and listings from many threads never corrupt the
    directory or observe torn records."""
    errors = []
    clients = [client(ns) for _ in range(6)]
    try:
        def register_some(i):
            try:
                c = clients[i]
                c.register(f"prov{i}", "127.0.0.1", 7100 + i)
                for j in range(5):
                    c.register_service(f"svc{i}.{j}", f"prov{i}",
                                       in_types=("A",), out_types=("B",))
                for _ in range(20):
                    for rec in c.services():
                        assert rec["in_types"] == ["A"]
                        assert rec["out_types"] == ["B"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=register_some, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        # all owner connections are still open: every record is listed
        assert len(clients[0].services()) == 30
    finally:
        for c in clients:
            c.close()


def test_registration_meta_roundtrip(ns):
    """Kernels publish metadata (e.g. the host fingerprint that gates the
    shared-memory lane) alongside their address."""
    with client(ns) as c:
        c.register("kernelA", "127.0.0.1", 7001,
                   meta={"fingerprint": "hostX:boot-1"})
        c.register("kernelB", "127.0.0.1", 7002)  # no meta
        assert c.lookup_entry("kernelA") == \
            ("127.0.0.1", 7001, {"fingerprint": "hostX:boot-1"})
        assert c.lookup_entry("kernelB") == ("127.0.0.1", 7002, {})
        # the plain lookup API is unchanged
        assert c.lookup("kernelA") == ("127.0.0.1", 7001)


def test_kernels_lists_only_kernel_registrations(ns):
    """``kernels`` is a CLI joiner's peer list: kernel-flagged
    registrations, without the service clients, which register only for
    reply routing."""
    with client(ns) as c:
        c.register("kernelB", "127.0.0.1", 7002, meta={"kernel": True})
        c.register("kernelA", "127.0.0.1", 7001, meta={"kernel": True})
        c.register("svc-client-1", "127.0.0.1", 7003)  # reply socket
        assert c.kernels() == ["kernelA", "kernelB"]


def test_kernels_drop_with_connection(ns):
    """A kernel whose connection closes leaves ``kernels``: a joiner
    must not list a dead peer."""
    c1 = client(ns)
    c1.register("kernelA", "127.0.0.1", 7001, meta={"kernel": True})
    with client(ns) as c2:
        c2.register("kernelB", "127.0.0.1", 7002, meta={"kernel": True})
        assert c2.kernels() == ["kernelA", "kernelB"]
        c1.close()
        deadline = time.time() + 5
        while "kernelA" in c2.kernels() and time.time() < deadline:
            time.sleep(0.02)
        assert c2.kernels() == ["kernelB"]


def test_an_in_process_client_owns_its_names_as_a_connection_does():
    """``NameServer.client()`` (the console's, on the directory's own
    loop) runs the same rules as a TCP client: its name is refused to
    others until it closes, and a lookup hands out a copy, never the
    directory's entry."""
    server = NameServer()
    local = server.client()
    # before the loop turns, as the console registers in its start()
    local.register("kernelA", "127.0.0.1", 7001, meta={"kernel": True})
    _, _, meta = local.lookup_entry("kernelA")
    meta["kernel"] = False
    assert local.lookup_entry("kernelA") == \
        ("127.0.0.1", 7001, {"kernel": True})
    with server, client(server) as remote:
        with pytest.raises(DuplicateRegistration, match="kernelA"):
            remote.register("kernelA", "127.0.0.1", 7002)
        assert remote.lookup("kernelA") == ("127.0.0.1", 7001)
        _on_loop(server._loop, local.close)
        remote.register("kernelA", "127.0.0.1", 7002)
        assert _on_loop(server._loop, lambda: local.lookup("kernelA")) \
            == ("127.0.0.1", 7002)


# ---------------------------------------------------------------------------
# one loop serves every client
# ---------------------------------------------------------------------------

def test_every_client_is_served_by_the_one_loop_thread():
    """32 clients connected at once register and look each other up; the
    server adds one thread in all, its loop."""
    before = set(threading.enumerate())
    with NameServer() as ns:
        clients = [client(ns) for _ in range(32)]
        try:
            for i, c in enumerate(clients):
                c.register(f"k{i}", "127.0.0.1", 7000 + i,
                           meta={"kernel": True})
            for i, c in enumerate(clients):
                j = (i + 1) % len(clients)
                assert c.lookup(f"k{j}") == ("127.0.0.1", 7000 + j)
                c.ping()
            assert clients[0].kernels() == sorted(f"k{i}" for i in range(32))
            added = set(threading.enumerate()) - before
            assert [t.name for t in added] == ["dps-io:nameserver"]
        finally:
            for c in clients:
                c.close()


def _recv_line(sock):
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(4096)
        assert chunk, "connection closed"
        data += chunk
    return data


def test_a_request_split_across_segments_is_answered_once_whole(ns):
    with socket.create_connection(ns.address, timeout=5) as raw, \
            client(ns) as other:
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        raw.sendall(b'{"op": "pi')
        other.ping()  # the loop has read the first half by now
        raw.setblocking(False)
        with pytest.raises(BlockingIOError):
            raw.recv(1)
        raw.settimeout(5)
        raw.sendall(b'ng"}\n')
        assert _recv_line(raw) == b'{"ok": true}\n'
        other.ping()
        raw.setblocking(False)
        with pytest.raises(BlockingIOError):
            raw.recv(1)  # answered once


def test_a_client_that_never_reads_its_replies_is_dropped(ns):
    """Replies the socket cannot take whole drop the client that does not
    read them, with its registrations; everyone else is still served."""
    with client(ns) as other:
        hog = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        hog.settimeout(10)
        hog.connect(ns.address)
        try:
            hog.sendall(b'{"op": "register", "name": "hog", '
                        b'"host": "127.0.0.1", "port": 7001}\n')
            assert _recv_line(hog) == b'{"ok": true}\n'
            assert other.lookup("hog") == ("127.0.0.1", 7001)
            # From here on the hog reads nothing.  Each reply repeats
            # the ~60 KB name: far more than the server may queue.
            line = json.dumps({"op": "lookup",
                               "name": "x" * 60_000}).encode() + b"\n"
            with pytest.raises(OSError):  # the server hangs up
                for _ in range(200):
                    hog.sendall(line)
            with pytest.raises(UnknownKernel):
                other.lookup("hog")
            other.register("hog", "127.0.0.1", 7002)
            assert other.lookup("hog") == ("127.0.0.1", 7002)
        finally:
            hog.close()


def test_stop_closes_connected_clients():
    ns = NameServer().start()
    with client(ns) as c:
        c.register("kernelA", "127.0.0.1", 7001)
        ns.stop()
        with pytest.raises(NameServerError):
            c.ping()

"""Lazy peer connections between kernels (paper §4).

"Connections between kernels are established lazily": a kernel does not
dial a peer until the first token routed to it, and the peer may not even
be listening yet when the cluster is still starting up.  The dial path
therefore resolves the peer through the name server and retries with
exponential backoff both the lookup (``UnknownKernel`` — the peer has not
registered yet) and the TCP connect (connection refused — the peer
registered between listen() and our connect losing a race, or the
directory is briefly stale).

Each peer gets one unidirectional send channel, an
:class:`~repro.net.eventloop.EventLoopPeer`: posting a token to a remote
kernel is one non-blocking ``sendmsg`` when the channel is idle and a
queue append otherwise — never a network wait under the engine lock —
and per-peer FIFO ordering is preserved (acks must not overtake the data
tokens they answer).  The owner's single :class:`~repro.net.eventloop.IOLoop`
drains every outbox with vectored writes; :class:`ConnectionPool` is the
name → channel map.  :class:`TransportPolicy` holds the one choice the
path leaves open (the shm lane).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..serial.wire import Segment
from .eventloop import EventLoopPeer, IOLoop
from .framing import send_message
from .nameserver import NameServerClient, UnknownKernel
from .protocol import encode_hello

__all__ = ["dial_kernel", "ConnectionPool", "DialError", "TransportPolicy"]


@dataclass(frozen=True)
class TransportPolicy:
    """What the kernel-to-kernel wire path lets a caller choose.

    The shared-memory lane for co-located kernels; everything else
    about the path (vectored multi-frame writes, one ``MSG_ACK`` per
    token, the codec tier) is fixed.  Pass an instance to
    ``MultiprocessEngine(transport=...)``.
    """

    #: Use a shared-memory arena towards same-host peers.
    shm_enabled: bool = True
    #: A message with a segment at or above this size takes the shm lane.
    shm_threshold: int = 1 << 14
    #: Arena size per peer connection.
    shm_arena_bytes: int = 1 << 24


class DialError(ConnectionError):
    """A peer kernel could not be reached before the deadline."""


def dial_kernel(ns: NameServerClient, name: str, *,
                hello_from: Optional[str] = None,
                deadline: float = 15.0,
                base_delay: float = 0.02,
                max_delay: float = 0.5,
                return_meta: bool = False,
                ) -> Union[socket.socket, Tuple[socket.socket, dict]]:
    """Resolve *name* through the name server and connect to it.

    Retries lookup failures (peer not yet registered) and refused
    connections with exponential backoff until *deadline* seconds have
    elapsed.  When *hello_from* is given, a HELLO message identifying the
    dialing kernel is sent before the socket is returned.  With
    *return_meta* the peer's registration metadata (e.g. its host
    fingerprint) comes back alongside the socket.
    """
    give_up_at = time.monotonic() + deadline
    delay = base_delay
    last_error: Optional[Exception] = None
    while True:
        try:
            host, port, meta = ns.lookup_entry(name)
            sock = socket.create_connection(
                (host, port), timeout=max(0.1, give_up_at - time.monotonic()))
            break
        except UnknownKernel as exc:
            last_error = exc
        except OSError as exc:
            last_error = exc
        if time.monotonic() + delay > give_up_at:
            raise DialError(
                f"could not reach kernel {name!r} within {deadline}s"
            ) from last_error
        time.sleep(delay)
        delay = min(delay * 2, max_delay)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if hello_from is not None:
        send_message(sock, encode_hello(hello_from))
    return (sock, meta) if return_meta else sock


class ConnectionPool:
    """All of one owner's outgoing peer channels, drained by its *loop*.

    The hot path — :meth:`send` to an already-dialed peer — is a single
    lock-free dict probe (GIL-atomic; the map itself changes only under
    the lock).  The lock is taken only to create a connection on first
    use, to :meth:`forget` one and at close.
    """

    def __init__(self, ns: NameServerClient, *, loop: IOLoop,
                 hello_from: str,
                 on_error: Callable[[str, Exception], None],
                 dial_deadline: float = 15.0,
                 transport: Optional[TransportPolicy] = None,
                 metrics=None,
                 trace: Optional[Callable] = None):
        self._ns = ns
        self._loop = loop
        self._hello_from = hello_from
        self._on_error = on_error
        self._dial_deadline = dial_deadline
        self._transport = transport
        self._metrics = metrics
        self._trace = trace
        self._lock = threading.Lock()
        self._peers: Dict[str, EventLoopPeer] = {}

    def peer(self, name: str) -> EventLoopPeer:
        with self._lock:
            conn = self._peers.get(name)
            if conn is None:
                conn = self._peers[name] = EventLoopPeer(
                    name, self._ns, loop=self._loop,
                    hello_from=self._hello_from,
                    on_error=self._on_error,
                    dial_deadline=self._dial_deadline,
                    transport=self._transport,
                    metrics=self._metrics,
                    trace=self._trace)
            return conn

    def send(self, name: str, segments: List[Segment]) -> None:
        """Send to peer *name* (:meth:`EventLoopPeer.send`)."""
        conn = self._peers.get(name)
        if conn is None:
            conn = self.peer(name)
        conn.send(segments)

    def forget(self, name: str) -> None:
        """Drop the channel to *name*; the next send resolves it afresh.

        For a peer that is gone while its name may come back at another
        address (a re-opened service client): the cached channel stays
        bound to the old listener.  Nothing is flushed, so this never
        blocks and is safe on the loop thread.
        """
        with self._lock:
            conn = self._peers.pop(name, None)
        if conn is not None:
            conn.close(flush_timeout=0)

    def peer_names(self) -> List[str]:
        with self._lock:
            return list(self._peers)

    def close_all(self) -> None:
        """Flush and close every channel under one shared deadline: N
        unreachable peers cost one flush timeout, not N."""
        with self._lock:
            peers = list(self._peers.values())
            self._peers.clear()
        for conn in peers:
            conn.begin_close()
        deadline = time.monotonic() + 5.0
        for conn in peers:
            conn.finish_close(max(0.0, deadline - time.monotonic()))

"""Lazy peer connections between kernels (paper §4).

"Connections between kernels are established lazily": a kernel does not
dial a peer until the first token routed to it, and the peer may not even
be listening yet when the cluster is still starting up.  The dial, a
state machine on the owner's loop, therefore resolves the peer through
the name server and retries with exponential backoff both the lookup
(``UnknownKernel`` — the peer has not registered yet) and the TCP connect
(connection refused — the peer registered between listen() and our
connect losing a race, or the directory is briefly stale), until the
dial deadline.

Each peer gets one unidirectional send channel, an
:class:`~repro.net.eventloop.EventLoopPeer`: posting a token to a remote
kernel is one non-blocking ``sendmsg`` when the channel is idle and a
queue append otherwise — never a network wait — and per-peer FIFO
ordering is preserved (acks must not overtake the data tokens they
answer).  The owner's single :class:`~repro.net.eventloop.IOLoop` drains
every outbox with vectored writes; :class:`ConnectionPool` is the name →
channel map.  :class:`TransportPolicy` holds the one choice the path
leaves open (the shm lane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..serial.wire import Segment
from .eventloop import DialError, EventLoopPeer, IOLoop
from .nameserver import NameServerClient

__all__ = ["ConnectionPool", "DialError", "TransportPolicy"]

#: One flush deadline for every channel of a closing owner.
CLOSE_DEADLINE = 5.0


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


class ConnectionPool:
    """All of one owner's outgoing peer channels, drained by its *loop*.

    Like its channels, the pool is its loop thread's alone and takes no
    lock: a sender elsewhere hands its :meth:`send` over with
    :meth:`IOLoop.call`.  Only :meth:`close_all` may be called from
    another thread, and it hands itself over.
    """

    def __init__(self, ns: NameServerClient, *, loop: IOLoop,
                 on_error: Callable[[str, Exception], None],
                 dial_deadline: float = 15.0,
                 transport: Optional[TransportPolicy] = None,
                 metrics=None,
                 trace: Optional[Callable] = None):
        self._ns = ns
        self._loop = loop
        self._on_error = on_error
        self._dial_deadline = dial_deadline
        self._transport = transport
        self._metrics = metrics
        self._trace = trace
        self._peers: Dict[str, EventLoopPeer] = {}

    def peer(self, name: str) -> EventLoopPeer:
        conn = self._peers.get(name)
        if conn is None:
            conn = self._peers[name] = EventLoopPeer(
                name, self._ns, loop=self._loop,
                on_error=self._on_error,
                dial_deadline=self._dial_deadline,
                transport=self._transport,
                metrics=self._metrics,
                trace=self._trace)
        return conn

    def send(self, name: str, segments: List[Segment]) -> None:
        """Send to peer *name* (:meth:`EventLoopPeer.send`)."""
        self.peer(name).send(segments)

    def forget(self, name: str) -> None:
        """Drop the channel to *name*; the next send resolves it afresh.

        For a peer that is gone while its name may come back at another
        address (a re-opened service client): the cached channel stays
        bound to the old listener.  Nothing is flushed.
        """
        conn = self._peers.pop(name, None)
        if conn is not None:
            conn.close()

    def peer_names(self) -> List[str]:
        return list(self._peers)

    def close_all(self) -> None:
        """Flush every channel, then close them all and stop the loop.

        Every channel flushes at once, and all close when each has
        reported flushed or at :data:`CLOSE_DEADLINE` (N unreachable
        peers cost one deadline, not N).  Called off the loop thread it
        waits for that; a loop that no longer turns gets one write
        attempt per channel.
        """
        loop = self._loop
        if loop.running and not loop.on_loop_thread():
            loop.call(self.close_all)
            loop.join(timeout=CLOSE_DEADLINE + 1.0)
            return
        peers = list(self._peers.values())
        self._peers.clear()
        left = len(peers)
        done = False

        def finish() -> None:
            nonlocal done
            if not done:
                done = True
                deadline.cancel()
                for conn in peers:
                    conn.close()
                loop.stop()

        def flushed() -> None:
            nonlocal left
            left -= 1
            if not left:
                finish()

        deadline = loop.call_later(CLOSE_DEADLINE, finish)
        for conn in peers:
            conn.begin_close(flushed)
        if not peers or not loop.running:
            finish()

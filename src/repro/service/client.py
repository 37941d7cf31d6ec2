"""External client for the resident service tier.

A :class:`ServiceClient` lives in any process — it is *not* a kernel
and hosts no thread instances.  It registers a listener in the
cluster's name server (so the console can dial back with replies),
opens a session to obtain its flow-control window, and then issues
graph calls that correlate out of order by request id:

    with ServiceClient((host, port)) as client:
        result = client.call("gol.read", GolReadRequest(0, 0, 8, 8))

Concurrency and flow control: :meth:`ServiceClient.call_async` returns
a :class:`ServiceCall` future; a bounded semaphore sized to the granted
session window keeps at most *window* calls in flight, blocking the
caller — the client-side half of the
:class:`~repro.core.flowcontrol.SplitWindow` the console maintains.

Failure semantics mirror the admission protocol:

- ``MSG_SVC_BUSY`` raises :class:`ServiceBusy`; :meth:`ServiceClient.call`
  retries with exponential backoff under a **new** request id (the shed
  burned the old one).
- A lost frame is recovered by *resending the same id* every
  ``resend_after`` seconds of silence, a timer on the client's loop; the
  console's dedup drops the duplicate if the original was admitted, so a
  call is never executed twice (exactly-once).
- A broken connection or console failure settles every pending call
  with :class:`~repro.runtime.controller.KernelFailure`, which
  :meth:`ServiceClient.call` also retries — the resident cluster may
  just be remapping around a dead kernel.
- ``MSG_SVC_ERROR`` re-raises the remote exception in the caller.

Threads: the client's wire side, its name-server client and its table
of pending calls belong to its one I/O loop.  A caller encodes on its
own thread, hands the send (or the name-server request) to the loop
with :meth:`IOLoop.call` and blocks on its own primitives: the session
semaphore, the open event, a call's event, a reply queue.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..net import protocol as P
from ..net.connections import ConnectionPool, TransportPolicy
from ..net.eventloop import IOLoop
from ..net.framing import DEFAULT_RECV_BYTES
from ..net.kernel import CONSOLE_KERNEL
from ..net.nameserver import NameServerClient, NameServerError
from ..runtime.controller import KernelFailure
from ..serial.token import Token
from ..serial.wire import Segment

__all__ = ["ServiceBusy", "ServiceCall", "ServiceClient", "ServiceError",
           "ServiceTimeout"]


class ServiceError(RuntimeError):
    """Base class for client-side service failures."""


class ServiceBusy(ServiceError):
    """The console shed the request (admission control); retry later."""


class ServiceTimeout(ServiceError):
    """No reply within the caller's deadline."""


class ServiceCall:
    """One in-flight graph call; settled on the client's I/O loop."""

    def __init__(self, client: "ServiceClient", request_id: int,
                 service: str, message: List[Segment]):
        self._client = client
        self.request_id = request_id
        self.service = service
        self._message = message
        self._event = threading.Event()
        self._kind: Optional[str] = None
        self._value = None
        self._resend = None  # the armed resend timer (loop thread)

    def _settle(self, kind: str, value) -> None:
        self._kind = kind
        self._value = value
        self._event.set()

    def result(self, timeout: float = 30.0,
               resend_after: Optional[float] = None) -> Token:
        """Block for the reply.

        With *resend_after*, the request is retransmitted under the
        **same** id every that many seconds until it settles — a timer
        on the client's loop — safe against double execution because
        admitted ids are deduplicated server-side; this is the
        lost-frame recovery path, distinct from the new-id retry that
        follows a shed.
        """
        client = self._client
        if resend_after is not None:
            client._io_loop.call(
                lambda: client._resend_every(self, resend_after))
        if not self._event.wait(timeout):
            client._forget(self)
            raise ServiceTimeout(
                f"no reply for request {self.request_id} "
                f"({self.service!r}) within {timeout}s")
        if self._kind == "ok":
            return self._value
        if self._kind == "busy":
            raise ServiceBusy(
                f"request {self.request_id} ({self.service!r}) shed: "
                f"{self._value}")
        raise self._value  # remote exception, re-raised natively


class ServiceClient:
    """A session to one resident service console."""

    def __init__(self, ns_address: Tuple[str, int], *,
                 window: int = 0,
                 server: str = CONSOLE_KERNEL,
                 name: Optional[str] = None,
                 dial_deadline: float = 15.0):
        self.name = name or \
            f"svc-client-{os.getpid()}-{os.urandom(3).hex()}"
        self.server = server
        self._requested_window = window
        self.session_id: Optional[int] = None
        self.window: Optional[int] = None
        self.busy_retries = 0
        self.failure_retries = 0
        #: calls awaiting their reply, by request id (loop thread)
        self._pending: Dict[int, ServiceCall] = {}
        self._request_ids = itertools.count(1)
        #: session window, made by the loop when the console grants it
        self._slots: Optional[threading.BoundedSemaphore] = None
        self._open_event = threading.Event()
        self._failure: Optional[BaseException] = None
        self._closed = False

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()[:2]

        with contextlib.ExitStack() as refused:  # closes both if raised
            refused.callback(self._listener.close)
            self._ns = NameServerClient(ns_address)
            refused.callback(self._ns.close)
            # Register WITHOUT a host fingerprint: the console then dials
            # back over plain TCP (no shared-memory lane handshake with a
            # non-kernel process).
            self._ns.register(self.name, *self.address)
            refused.pop_all()
        # One I/O loop accepts the console's dial-back, reads replies
        # and drains the send side.  The client is a leaf talker, not a
        # kernel: no shm lane.
        self._io_loop = IOLoop(self.name).start()
        self._io_loop.add_listener(self._listener, self._on_accept)
        self._pool = ConnectionPool(
            self._ns, loop=self._io_loop, on_error=self._on_pool_error,
            dial_deadline=dial_deadline,
            transport=TransportPolicy(shm_enabled=False))

    # ------------------------------------------------------------------
    # session
    # ------------------------------------------------------------------
    def open(self, timeout: float = 10.0) -> int:
        """Open the session; returns the granted window.  Idempotent."""
        if not self._open_event.is_set():
            self._send(P.encode_control(
                P.MSG_SVC_OPEN, self.name, self._requested_window))
            if not self._open_event.wait(timeout=timeout):
                raise ServiceTimeout(
                    f"service console {self.server!r} did not answer "
                    f"MSG_SVC_OPEN within {timeout}s")
        return self.window or 0

    def discover(self) -> List[dict]:
        """The service records in the name server whose provider is
        registered, read on the client's loop."""
        reply: "queue.SimpleQueue" = queue.SimpleQueue()

        def read() -> None:
            try:
                reply.put(self._ns.services())
            except Exception as exc:
                reply.put(exc)

        self._io_loop.call(read)
        records = reply.get()
        if isinstance(records, Exception):
            raise records
        return records

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def call_async(self, service: str, token: Token) -> ServiceCall:
        """Issue one call; blocks only for session-window space."""
        if self._closed:
            raise ServiceError("client is closed")
        self.open()
        failure = self._failure
        if failure is not None:
            raise failure
        self._slots.acquire()
        request_id = next(self._request_ids)
        call = ServiceCall(self, request_id, service, P.encode_svc_call(
            self.name, request_id, service, token))

        def issue() -> None:
            # In the table before it is sent: no reply can beat it there.
            if self._failure is not None:
                self._release(call)
                call._settle("error", self._failure)
                return
            self._pending[request_id] = call
            self._pool.send(self.server, call._message)

        self._io_loop.call(issue)
        return call

    def call(self, service: str, token: Token, timeout: float = 30.0,
             retries: int = 0, backoff: float = 0.05,
             resend_after: Optional[float] = None) -> Token:
        """One graph call with shed/failure retries.

        ``ServiceBusy`` (admission shed) and ``KernelFailure``
        (connection or cluster trouble) are retried up to *retries*
        times with exponential *backoff*, each attempt under a fresh
        request id.  Remote application exceptions are not retried —
        they re-raise immediately.
        """
        attempt = 0
        while True:
            try:
                return self.call_async(service, token).result(
                    timeout, resend_after=resend_after)
            except (ServiceBusy, KernelFailure) as exc:
                if attempt >= retries:
                    raise
                if isinstance(exc, ServiceBusy):
                    self.busy_retries += 1
                else:
                    self.failure_retries += 1
                    self._failure = None  # give the cluster another shot
                time.sleep(min(1.0, backoff * (2 ** attempt)))
                attempt += 1

    def _send(self, message: List[Segment]) -> None:
        """Send *message* to the console from the loop (any thread)."""
        self._io_loop.call(lambda: self._pool.send(self.server, message))

    def _resend_every(self, call: ServiceCall, after: float) -> None:
        """Retransmit *call* under the SAME id every *after* seconds
        until it settles (loop thread; server dedup absorbs it)."""
        def resend() -> None:
            self._pool.send(self.server, call._message)
            call._resend = self._io_loop.call_later(after, resend)

        if call._resend is not None:
            call._resend.cancel()
        if self._pending.get(call.request_id) is call:
            call._resend = self._io_loop.call_later(after, resend)

    def _forget(self, call: ServiceCall) -> None:
        """Drop a call its caller stopped waiting for (any thread)."""
        def forget() -> None:
            if self._pending.pop(call.request_id, None) is call:
                self._release(call)

        self._io_loop.call(forget)

    def _release(self, call: ServiceCall) -> None:
        """A call just left the table: its window slot and its resend
        timer go with it (loop thread)."""
        if call._resend is not None:
            call._resend.cancel()
        self._slots.release()

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_accept(self, conn: socket.socket) -> None:
        self._io_loop.add_connection(
            conn, recv_bytes=DEFAULT_RECV_BYTES,
            on_frames=self._on_frames, on_close=self._on_conn_close)

    def _on_frames(self, frames) -> None:
        for payload in frames:
            self._dispatch(*P.decode_message(payload, {}))

    def _on_conn_close(self, exc: Optional[Exception]) -> None:
        if exc is not None and not self._closed:
            self._fail(KernelFailure(
                f"service reply connection failed: {exc}"))

    def _dispatch(self, kind: int, value) -> None:
        if kind == P.MSG_SVC_OPEN_OK:
            granted, session_id = value
            self.window = granted
            self.session_id = session_id
            if self._slots is None:
                self._slots = threading.BoundedSemaphore(granted or 1)
            self._open_event.set()
            return
        if kind in (P.MSG_SVC_REPLY, P.MSG_SVC_BUSY, P.MSG_SVC_ERROR):
            request_id, payload = value
            call = self._pending.pop(request_id, None)
            if call is None:
                return  # late duplicate reply for a forgotten call
            self._release(call)
            call._settle({P.MSG_SVC_REPLY: "ok",
                          P.MSG_SVC_BUSY: "busy",
                          P.MSG_SVC_ERROR: "error"}[kind], payload)
            return
        # Any broadcast traffic a console might fan out is irrelevant
        # to a session client.

    def _on_pool_error(self, peer: str, exc: Exception) -> None:
        if not self._closed:
            self._fail(KernelFailure(
                f"connection to service console {peer!r} failed: {exc}"))

    def _fail(self, exc: BaseException) -> None:
        self._failure = exc
        pending = list(self._pending.values())
        self._pending.clear()
        for call in pending:
            self._release(call)
            call._settle("error", exc)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._send(P.encode_control(P.MSG_SVC_CLOSE, self.name))
        self._pool.close_all()  # flushed on the loop, which then stops
        self._io_loop.close()  # closes the listener it adopted
        try:
            # Dropping the connection frees the name too, but only once
            # the server gets to the EOF — too late for an immediate
            # re-open under the same name.
            self._ns.unregister(self.name)
        except NameServerError:
            pass  # name server already gone
        self._ns.close()

    def __enter__(self) -> "ServiceClient":
        try:
            self.open()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

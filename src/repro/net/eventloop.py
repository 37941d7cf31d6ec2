"""Single-threaded I/O core: one selectors loop owns every socket.

Each kernel and each :class:`~repro.service.client.ServiceClient` runs
exactly one :class:`IOLoop`: a single thread owning a
``selectors.DefaultSelector`` (epoll on Linux, kqueue on BSD/macOS) that
multiplexes the listener and *every* peer socket, both directions.  A
worker kernel process turns its loop on its main thread
(:meth:`IOLoop.run`); the console and a client turn theirs on a
``dps-io`` thread of their own (:meth:`IOLoop.start`).  The console's
loop also answers the name server's directory.  Nothing else in
:mod:`repro.net` or :mod:`repro.service` accepts, reads or writes a peer
socket.  The name-server client keeps its blocking request/reply and
belongs to its owner's loop; a loop makes such a call for a worker
kernel's dial lookup and for a client's ``discover`` (on the client's
loop), and for nothing else.  The console's own name-service calls are
plain calls on the directory its loop hosts.

- **Accepts**: :meth:`IOLoop.add_listener` registers a listening socket;
  every connection it yields is handed to a callback on the loop thread,
  which normally adopts it with :meth:`IOLoop.add_connection`.
- **Dials** are a state machine on the loop (:class:`EventLoopPeer`): a
  name-server lookup, a non-blocking ``connect`` finished on
  ``EVENT_WRITE``, and backoff timers until the dial deadline.
- **Writes** are non-blocking vectored ``sendmsg`` calls
  (:class:`VectoredSender`), resuming partial writes with sliced
  ``memoryview``\\ s and registering for ``EVENT_WRITE`` only while the
  kernel socket buffer is full — natural backpressure that is
  *observable*: a blocked peer's queued frames show up in the
  ``outbox_depth`` gauge, and every short write increments
  ``partial_writes``.  Only the loop thread writes a peer socket, and
  one rule picks the moment (:meth:`EventLoopPeer.send`): a message with
  nothing queued ahead of it leaves in the pass that made it, one
  ``sendmsg`` — whatever its size (a bulk one as its shm-lane
  descriptor); a backlog and a blocked or undialed socket queue on the
  peer's outbox, flushed as one vectored write at the loop's quiescent
  point (:meth:`IOLoop.at_pass_end`).  A sender that does not run on
  the loop hands its send over with :meth:`IOLoop.call`.
- **Reads** are readiness-driven: adopted connections register for
  ``EVENT_READ`` and feed :meth:`~repro.net.framing.FrameReader.recv_ready`
  batches straight into the owner's dispatch path.
- **Wakeups** use a ``socketpair`` self-pipe: handing work to the loop
  from any other thread is a ``deque.append`` plus (at most) one
  one-byte ``send`` — :meth:`IOLoop.call` never blocks and never takes
  a lock.  ``io_loop_wakeups`` counts loop iterations.
- **Timers**: :meth:`IOLoop.call_later` is the owner's one timer queue
  (a heap whose earliest deadline bounds the ``select`` timeout, read
  from an injected clock).  epoll counts in whole milliseconds and
  rounds a timeout up, so the loop sleeps for the whole milliseconds
  left to the deadline in epoll and for the rest in ``select(2)`` on
  the epoll descriptor, which counts in microseconds.  Whatever an
  owner does "every so often" — beat, resend aging, liveness and
  autoscale ticks, a body's ``sleep`` — is a timer here, not a thread;
  a callback waits on no other process but the console, for a lookup
  in its directory.
- **Queued calls** run one pass's worth at a time: what a call queues in
  turn waits for the next pass, so timers and reads interleave with a
  chain of calls (a DPS thread working through its inbox).

A platform without a working selector or ``socketpair`` cannot run
CPython's own asyncio either; :class:`IOLoop` simply raises there.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import math
import os
import select
import selectors
import socket
import sys
import threading
import time
import traceback
from collections import deque
from typing import Callable, List, Optional

from ..serial.wire import FRAME_HEADER_BYTES, Segment, frame
from ..serial.wire import _FRAME_HEADER  # shared header layout
from .framing import DEFAULT_MAX_BATCH_BYTES, MAX_SENDMSG_SEGMENTS, \
    FrameReader, _as_byte_views
from .nameserver import NameServerError, UnknownKernel
from .protocol import MSG_SHM_ATTACH, encode_control
from .shm import ShmSender, host_fingerprint

__all__ = ["IOLoop", "VectoredSender", "EventLoopPeer", "DialError"]

_WAKE = b"\x00"

#: First and longest pause between two dial attempts (doubling between).
_DIAL_FIRST_DELAY = 0.02
_DIAL_MAX_DELAY = 0.5

#: Frames a peer may hold in its sender before ``_pump`` flushes inline
#: instead of waiting for the loop's quiescent point (with the byte
#: budget, this bounds queued memory).
_MAX_BATCH_FRAMES = 256

#: ``select`` timeouts per second: epoll counts in whole milliseconds
#: and rounds a timeout up.
_SELECT_TICKS = 1000


class DialError(ConnectionError):
    """A peer kernel could not be reached before the deadline."""


class VectoredSender:
    """Non-blocking vectored frame writer with partial-write resumption.

    Framed messages are queued (:meth:`push`: whole, or from the byte
    offset a direct write reached); :meth:`pump` flushes them through as
    few ``sendmsg`` calls as the socket buffer allows — chunked under
    ``MAX_SENDMSG_SEGMENTS`` and a byte budget.  A short write
    (``EAGAIN`` or fewer bytes accepted than offered) leaves the
    remainder queued with the partially-sent view sliced, so the next
    :meth:`pump` resumes mid-frame; frame bytes on the wire are
    identical to the blocking :func:`~repro.net.framing.send_messages`.

    Single-writer: only the owning peer's loop thread pushes or pumps.
    The class itself owns no socket, which keeps it
    drivable by property tests with a mock whose ``sendmsg`` accepts
    arbitrary byte counts.
    """

    def __init__(self, *, max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 max_batch_segments: int = MAX_SENDMSG_SEGMENTS):
        self._max_batch_bytes = max_batch_bytes
        self._max_batch_segments = max_batch_segments
        #: queued frames, each a list of byte views (header first)
        self._frames: deque = deque()
        self._pending_bytes = 0
        # per-drain-episode accounting for the frames_per_syscall series
        self._episode_frames = 0
        self._episode_syscalls = 0
        #: total short writes (EAGAIN or partial sendmsg) observed
        self.partial_writes = 0

    @property
    def pending_frames(self) -> int:
        return len(self._frames)

    @property
    def pending_bytes(self) -> int:
        return self._pending_bytes

    def push(self, message: List[Segment], sent: int = 0) -> None:
        """Queue one message (an unframed segment list) for sending; the
        first *sent* bytes of its frame went out in one direct write."""
        if sent:
            self._episode_syscalls += 1
        views = []
        for view in _as_byte_views(frame(message)):
            # Empty views carry no wire bytes but would wedge the
            # consume-by-sent-bytes walk in pump: skipped, like the
            # bytes already sent.
            if sent >= view.nbytes:
                sent -= view.nbytes
            else:
                views.append(view[sent:] if sent else view)
                sent = 0
        self._frames.append(views)
        self._pending_bytes += sum(v.nbytes for v in views)
        self._episode_frames += 1

    def pump(self, sock) -> bool:
        """Write queued frames until drained or the socket would block.

        Returns ``True`` when everything queued has hit the socket.
        Propagates ``OSError`` other than ``EAGAIN``/``EINTR`` (broken
        pipe, reset) to the caller.
        """
        frames = self._frames
        while frames:
            iov: List[memoryview] = []
            nbytes = 0
            for views in frames:
                take = len(views)
                for i, v in enumerate(views):
                    if iov and (
                            len(iov) >= self._max_batch_segments
                            or nbytes + v.nbytes > self._max_batch_bytes):
                        take = i
                        break
                    iov.append(v)
                    nbytes += v.nbytes
                if take < len(views):
                    break
            try:
                sent = sock.sendmsg(iov)
            except InterruptedError:  # pragma: no cover - signal race
                continue
            except BlockingIOError:
                self.partial_writes += 1
                return False
            self._episode_syscalls += 1
            self._pending_bytes -= sent
            if sent < nbytes:
                self.partial_writes += 1
            while sent and frames:
                views = frames[0]
                head = views[0]
                if sent >= head.nbytes:
                    sent -= head.nbytes
                    views.pop(0)
                    if not views:
                        frames.popleft()
                else:
                    views[0] = head[sent:]
                    sent = 0
        return True

    def take_episode(self) -> "tuple[int, int]":
        """``(frames, syscalls)`` since the last fully-drained flush."""
        episode = (self._episode_frames, self._episode_syscalls)
        self._episode_frames = self._episode_syscalls = 0
        return episode

    def clear(self) -> int:
        """Drop everything queued; returns the number of frames dropped."""
        dropped = len(self._frames)
        self._frames.clear()
        self._pending_bytes = 0
        self._episode_frames = self._episode_syscalls = 0
        return dropped


def _guarded(fn: Callable[[], None]) -> None:
    """Run one loop callback; a raising one is reported, not fatal."""
    try:
        fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)


class _Timer:
    """Handle of one :meth:`IOLoop.call_later`; :meth:`cancel` it before
    it fires and it never will."""

    __slots__ = ("when", "seq", "fn", "loop")

    def __init__(self, when: float, seq: int, fn: Callable[[], None],
                 loop: "IOLoop"):
        self.when, self.seq, self.fn, self.loop = when, seq, fn, loop

    def __lt__(self, other: "_Timer") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def cancel(self) -> None:
        if self.fn is not None:
            self.fn = None
            self.loop._cancelled += 1


class IOLoop:
    """One ``selectors`` event loop owning all of a kernel's socket I/O.

    The loop thread is whichever thread turns it: :meth:`run` on the
    caller's, :meth:`start` on a ``dps-io:<name>`` thread of its own.
    Everything that touches the selector runs on the loop thread; other
    threads hand work over with :meth:`call` (queue append + self-pipe
    wakeup).  Listeners are registered
    with :meth:`add_listener`, readers with :meth:`add_connection`;
    writers are :class:`EventLoopPeer` objects that register themselves
    for ``EVENT_WRITE`` only while blocked.  Timers (:meth:`call_later`)
    read their deadlines from *clock*; a test that injects one wakes the
    loop with :meth:`call` after moving it.
    """

    def __init__(self, name: str, metrics=None,
                 clock: Callable[[], float] = time.monotonic):
        self.name = name
        self._metrics = metrics
        self._clock = clock
        #: heap of armed timers, touched on the loop thread only
        self._timers: List[_Timer] = []
        #: timers cancelled since the heap was last rid of them
        self._cancelled = 0
        self._timer_seq = itertools.count()
        self._selector = selectors.DefaultSelector()
        r, w = socket.socketpair()
        r.setblocking(False)
        w.setblocking(False)
        self._wake_r, self._wake_w = r, w
        self._selector.register(r, selectors.EVENT_READ, self._on_wake)
        self._pending: deque = deque()
        # key -> fn, run once at the end of the current loop pass (the
        # flush-coalescing point: see at_pass_end)
        self._pass_end: dict = {}
        self._wake_pending = False
        self._in_select = False
        self._closed = False
        #: a thread turns the loop (or is about to: set by start())
        self.running = False
        self._stopping = False
        self._thread: Optional[threading.Thread] = None

    # -- cross-thread interface ----------------------------------------
    def start(self) -> "IOLoop":
        """Turn the loop on a ``dps-io:<name>`` thread of its own."""
        self._thread = threading.Thread(
            target=self.run, name=f"dps-io:{self.name}", daemon=True)
        self.running = True
        self._thread.start()
        return self

    @property
    def closed(self) -> bool:
        return self._closed

    def on_loop_thread(self) -> bool:
        return threading.current_thread() is self._thread

    def stop(self) -> None:
        """Make :meth:`run` return after this pass; any thread."""
        self._stopping = True
        self._wake()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for a loop turning on another thread to stop."""
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)

    def call(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the loop thread, soon; never blocks.

        After :meth:`close` the loop thread is gone, so *fn* runs inline
        (teardown-only; callbacks must tolerate a closed selector).
        """
        if self._closed:
            fn()
            return
        self._pending.append(fn)
        # The byte is only needed to interrupt a blocking select(); when
        # the loop is mid-pass it re-checks the queue before blocking
        # (the zero-timeout guard in _run), so skipping the syscall here
        # is safe — and avoids a GIL drop per call() under bursts.
        if self._in_select and not self._wake_pending:
            self._wake_pending = True
            self._wake()

    def close(self) -> None:
        """Stop the loop and close every socket it still owns."""
        if self._closed:
            return
        self._closed = True
        self._wake()
        self.join(timeout=2.0)
        # The loop returns as soon as it sees _closed, so calls queued
        # just before (a peer's close, which unlinks its shm arena) would
        # never run: finish them here, as call() does from now on.
        while self._pending:
            _guarded(self._pending.popleft())
        self._timers.clear()
        for key in list(self._selector.get_map().values()):
            # A reader's descriptor (an int) stays its caller's.
            if key.fileobj is self._wake_r or isinstance(key.fileobj, int):
                continue
            try:
                key.fileobj.close()
            except OSError:
                pass
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()

    # -- timers ---------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[], None]) -> _Timer:
        """Run *fn* on the loop thread once the clock has advanced by
        *delay*; any thread.  Timers fire in deadline order (ties in
        call order); a periodic job re-arms itself from its callback.
        Timers still armed at :meth:`close` are dropped.
        """
        timer = _Timer(self._clock() + delay, next(self._timer_seq), fn,
                       self)
        if delay > 0 and self.on_loop_thread():
            heapq.heappush(self._timers, timer)  # read by the next pass
        elif not self._closed:
            # Through the queue: the wakeup makes the loop recompute its
            # select timeout; a zero-delay re-arm cannot starve selects.
            self.call(lambda: heapq.heappush(self._timers, timer))
        return timer

    def _run_timers(self) -> Optional[float]:
        """Fire what is due; seconds until the next deadline, if any."""
        timers = self._timers
        if self._cancelled > max(64, len(timers) // 2):
            # A cancelled timer stays in the heap until its deadline; one
            # per call (a service call's timeout) would pile up.
            timers[:] = [t for t in timers if t.fn is not None]
            heapq.heapify(timers)
            self._cancelled = 0
        now = self._clock()
        while timers:
            timer = timers[0]
            if timer.fn is not None and timer.when > now:
                return timer.when - now
            heapq.heappop(timers)
            fn, timer.fn = timer.fn, None
            if fn is not None:  # else cancelled
                _guarded(fn)
        return None

    # -- reading side ---------------------------------------------------
    def add_listener(self, sock: socket.socket,
                     on_accept: Callable[[socket.socket], None]) -> None:
        """Adopt a listening socket: readiness-driven accepts.

        *on_accept* receives each accepted connection on the loop
        thread (``TCP_NODELAY`` already set) and normally hands it to
        :meth:`add_connection`.  The listener belongs to the loop from
        here on and is closed by :meth:`close`; if something else closes
        it first, accepting just stops.
        """
        sock.setblocking(False)

        def on_readable() -> None:
            while True:  # drain the backlog: dials arrive back to back
                try:
                    conn, _ = sock.accept()
                except (BlockingIOError, InterruptedError):
                    return
                except OSError:
                    # closed under us: stop.  Anything else (ECONNABORTED,
                    # EMFILE) is transient: retry at the next readiness.
                    if sock.fileno() == -1:
                        self._unregister(sock)
                    return
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                on_accept(conn)

        self.add_reader(sock, on_readable)

    def add_connection(self, sock: socket.socket, *, recv_bytes: int,
                       on_frames: Callable[[list], None],
                       on_close: Callable[[Optional[Exception]], None],
                       ) -> None:
        """Adopt an accepted connection: readiness-driven frame reads.

        *on_frames* receives each non-empty batch of complete frames (on
        the loop thread); *on_close* fires exactly once with ``None`` on
        clean EOF or the exception that broke the connection.  The
        socket is closed by the loop in either case.
        """
        sock.setblocking(False)
        reader = FrameReader(sock, recv_bytes=recv_bytes)
        done = [False]

        def finish(exc: Optional[Exception]) -> None:
            if done[0]:
                return
            done[0] = True
            self._unregister(sock)
            try:
                sock.close()
            except OSError:
                pass
            on_close(exc)

        def on_readable() -> None:
            if done[0]:
                return
            try:
                frames, eof = reader.recv_ready()
            except Exception as exc:
                finish(exc)
                return
            if frames:
                try:
                    on_frames(frames)
                except Exception as exc:
                    finish(exc)
                    return
            if eof:
                finish(None)

        self.add_reader(sock, on_readable)

    def add_reader(self, fileobj, fn: Callable[[], None]) -> None:
        """Call *fn* on the loop thread whenever *fileobj* is readable,
        until :meth:`remove_reader`; any thread.  A socket becomes the
        loop's and is closed by :meth:`close`; a bare descriptor (an
        ``int`` — a child process's sentinel) stays its caller's, who
        removes it before closing it."""
        def register() -> None:
            if not self._closed:
                self._selector.register(fileobj, selectors.EVENT_READ, fn)
            elif not isinstance(fileobj, int):
                try:
                    fileobj.close()
                except OSError:
                    pass

        self.call(register)

    def remove_reader(self, fileobj) -> None:
        """At once on the loop thread (which may then close it)."""
        if self.on_loop_thread():
            self._unregister(fileobj)
        else:
            self.call(lambda: self._unregister(fileobj))

    def _unregister(self, sock) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass

    # -- pass-end hooks (loop thread only) -------------------------------
    def at_pass_end(self, key, fn: Callable[[], None]) -> None:
        """Run *fn* at the loop's next quiescent point.

        The flush-coalescing point: hooks are carried across
        back-to-back zero-timeout passes (a burst of queued work) and
        run only when the loop is about to block in ``select`` — so
        frames queued anywhere in the burst (including by other
        threads that got the GIL during its syscalls) share one flush
        instead of one syscall per wakeup.  Keyed registration dedups —
        a second ``at_pass_end`` for the same *key* replaces the first.
        Hooks always run before the loop blocks, so nothing registered
        here ever strands.  Loop-thread only.
        """
        self._pass_end[key] = fn

    # -- loop internals -------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(_WAKE)
        except (BlockingIOError, OSError):
            pass  # a wakeup is already queued, or we are closing

    def _on_wake(self) -> None:
        try:
            self._wake_r.recv(4096)
        except (BlockingIOError, OSError):
            pass
        # Clear AFTER the recv: the flag may only read "wake queued"
        # while a byte is (about to be) in the pipe.  Clearing it at the
        # top of the loop pass instead loses wakeups: a byte sent
        # mid-pass gets consumed by this same recv while the flag stays
        # set, and the next call() then skips its wake with the pipe
        # empty — the loop blocks in select() over queued work.
        self._wake_pending = False

    def run(self) -> None:
        """Turn the loop on the calling thread until :meth:`stop` or
        :meth:`close`."""
        self._thread = threading.current_thread()
        self.running, self._stopping = True, False
        try:
            self._turn()
        finally:
            self.running = False

    def _turn(self) -> None:
        selector = self._selector
        pending = self._pending
        counter = None
        if self._metrics is not None:
            counter = self._metrics.counter("io_loop_wakeups")
        while True:
            timeout = self._run_timers() if self._timers else None
            # Never block while work is queued: a call() racing the
            # flag/byte handoff above can leave pending non-empty with
            # no wake byte in flight for at most one pass.  _in_select
            # must go up BEFORE the pending check: a producer that reads
            # it as False appended earlier, so this check sees its work;
            # one that reads True sends a (possibly spurious) wake byte.
            self._in_select = True
            if not pending and self._pass_end:
                # About to block: quiescence is the flush point.  While
                # back-to-back zero-timeout passes chain (a burst), the
                # registered flushes keep carrying forward and frames
                # keep accumulating; they run only once the burst ends,
                # right before the loop would go idle.
                self._in_select = False
                hooks = list(self._pass_end.values())
                self._pass_end.clear()
                for fn in hooks:
                    _guarded(fn)
                hooks = fn = None
                self._in_select = True
            # A stop or close whose wake byte this pass's _on_wake has
            # already drained shows only in its flag: check it before
            # blocking, not only once select() returns.
            if self._closed or self._stopping:
                return
            if pending:
                timeout = 0
            elif timeout is not None:
                # epoll rounds a timeout up to whole milliseconds: it
                # sleeps for the whole ones left, and what is left under
                # a millisecond is slept by select(2), which counts in
                # microseconds, on the epoll descriptor (readable once an
                # event is ready), so a timer never fires up to a
                # millisecond late and I/O still wakes the loop.
                whole = math.floor(timeout * _SELECT_TICKS) / _SELECT_TICKS
                if not whole:
                    select.select([selector], [], [], timeout)
                timeout = whole
            events = selector.select(timeout)
            self._in_select = False
            if self._closed or self._stopping:
                return
            if counter is not None:
                counter.inc()
            for key, _mask in events:
                _guarded(key.data)
            # What is queued now, not what these calls queue in turn: a
            # DPS thread advanced one inbox item per call lets timers and
            # I/O run between its items.
            for _ in range(len(pending)):
                try:
                    fn = pending.popleft()
                except IndexError:  # pragma: no cover - closed mid-pass
                    break
                _guarded(fn)
            # An idle loop keeps no call it ran alive: a kernel's call may
            # close over a token whose arrays borrow a block of the
            # sender's shm arena.
            fn = None


class EventLoopPeer:
    """Send-only channel to one peer kernel, owned by one loop thread.

    Only the :class:`IOLoop`'s thread touches it, so it takes no lock; a
    sender elsewhere hands its :meth:`send` over with :meth:`IOLoop.call`.
    :meth:`send` never blocks: the message is either written to the
    socket right there or appended to the outbox for the loop to flush.
    The peer is dialed lazily, on the loop: a
    name-server lookup, a non-blocking ``connect`` whose outcome arrives
    as ``EVENT_WRITE``, and — while the peer is not registered or not
    listening yet — backoff timers on the loop's clock until
    *dial_deadline*, when the dial fails with :class:`DialError`.
    When the peer's registered host fingerprint matches ours,
    ``MSG_SHM_ATTACH`` is the sender's first frame, ahead of the outbox,
    and from then on messages with a segment of
    threshold size take the :mod:`~repro.net.shm` shared-memory lane
    whole and only their descriptor frames hit the TCP stack.  Transport
    errors are reported once through *on_error*, always on the loop thread;
    messages queued after a failure are dropped, but the drops are
    *counted* (``token_drops`` metric, ``token_drop`` trace event) so a
    peer loss shows up in the run's observability instead of as a silent
    hang.  Per-peer FIFO order is preserved end to end: a message is
    written directly only when nothing is queued ahead of it, the outbox
    is drained in order onto the :class:`VectoredSender`, and the sender
    never reorders frames.
    """

    def __init__(self, peer_name: str, ns, *, loop: IOLoop,
                 on_error: Callable[[str, Exception], None],
                 dial_deadline: float = 15.0,
                 transport=None,
                 metrics=None,
                 trace: Optional[Callable] = None):
        from .connections import TransportPolicy  # late: avoid cycle
        self.peer_name = peer_name
        self._ns = ns
        self._loop = loop
        self._on_error = on_error
        self._dial_deadline = dial_deadline
        self._transport = transport if transport is not None \
            else TransportPolicy()
        self._metrics = metrics
        self._trace = trace
        self._outbox: deque = deque()
        self._scheduled = False
        self._sender = VectoredSender()
        self._partial_writes_reported = 0
        self._sock: Optional[socket.socket] = None
        self._shm: Optional[ShmSender] = None
        self._dialing = False
        self._dial_delay = _DIAL_FIRST_DELAY
        self._dial_error: Optional[Exception] = None  # last attempt's
        self._failed = False
        self._closing = False
        self._write_registered = False
        self._on_flushed: Optional[Callable[[], None]] = None

    def send(self, segments: List[Segment]) -> None:
        """Send one message (loop thread).

        A message with nothing queued ahead of it on an attached,
        unblocked socket leaves when it is made, one ``sendmsg`` in the
        pass that made it (:meth:`_write_now`); a bulk one is first
        placed in the shm arena, and what leaves is its descriptor
        frame.  Holding it back for frames that may follow makes the
        next kernel wait for the batch, so a window of tokens moves down
        a pipeline as one convoy instead of overlapping the hops.  A
        backlog and a blocked or undialed socket queue on the outbox
        instead (its drain makes the arena copies), and the loop
        flushes it at its quiescent point as one vectored write.
        """
        if self._idle():
            if self._shm is not None and self._bulk(segments):
                segments = self._shm.rewrite(segments)
            self._write_now(segments)
            return
        self._outbox.append(segments)
        if not self._scheduled:
            self._scheduled = True
            self._loop.call(self._pump)

    def _bulk(self, segments: List[Segment]) -> bool:
        """Whether a segment is large enough for the shm lane: the
        cheap check that keeps a small message off the arena path."""
        threshold = self._transport.shm_threshold
        for seg in segments:
            if (seg.nbytes if type(seg) is memoryview else len(seg)) \
                    >= threshold:
                return True
        return False

    def _idle(self) -> bool:
        """Attached, healthy, and nothing queued ahead of a new message."""
        return (self._sock is not None and not self._outbox
                and not self._sender.pending_frames
                and not self._write_registered
                and not self._failed and not self._closing)

    def _write_now(self, segments: List[Segment]) -> None:
        """Write one message now: one ``sendmsg`` of the frame header
        and the segments as given.  What the socket does not take — a
        short write, ``EAGAIN``, or a message with more segments than
        one call may carry — goes to the sender with its byte offset and
        a later call finishes it; the queued remainder keeps later sends
        behind it.  The failure and the flush are deferred with
        :meth:`IOLoop.call` so that neither runs inside the operation's
        ``emit`` that sent: ``on_error`` reroutes the owner's state.
        """
        iov = frame(segments)
        sent = 0
        if len(iov) <= MAX_SENDMSG_SEGMENTS:
            try:
                sent = self._sock.sendmsg(iov)
            except BlockingIOError:
                pass
            except OSError as exc:
                # Queued whole; _fail drops and counts it.
                self._sender.push(segments)
                self._loop.call(lambda err=exc: self._fail(err))
                return
            if sent == FRAME_HEADER_BYTES + _FRAME_HEADER.unpack_from(
                    iov[0])[0]:
                if self._metrics is not None:
                    self._metrics.histogram("frames_per_syscall").observe(1)
                return
            self._sender.partial_writes += 1
        self._sender.push(segments, sent)
        self._loop.call(self._flush)

    def _pump(self) -> None:
        self._scheduled = False
        if self._failed or self._loop.closed:
            self._count_drops(self._drop_queued())
            return
        if self._sock is None:
            if not self._dialing:
                self._dialing = True
                self._loop.call_later(self._dial_deadline,
                                      self._dial_expired)
                self._dial_attempt()
            return  # _connected re-pumps once the dial lands
        self._drain_outbox()
        if self._write_registered:
            # Socket buffer full: frames queue in the sender and
            # _on_writable resumes the flush.
            return
        sender = self._sender
        if (sender.pending_bytes >= DEFAULT_MAX_BATCH_BYTES
                or sender.pending_frames >= _MAX_BATCH_FRAMES):
            # Budget hit: flush inline to bound queued memory.
            self._flush()
        else:
            # Flush at the loop's next quiescent point, not inline: the
            # rest of the burst (reads, operation bodies, later pumps)
            # runs first, and frames those queue ride the same vectored
            # write.  Latency cost is the burst remainder — the loop was
            # busy anyway — against one syscall per wakeup; this is
            # where the event loop gets the natural backpressure
            # batching of a blocking writer.
            self._loop.at_pass_end(self, self._flush)

    def _drain_outbox(self) -> None:
        """Move queued messages into the sender, in order."""
        sender = self._sender
        outbox = self._outbox
        shm = self._shm
        while outbox:
            message = outbox.popleft()
            if shm is not None:
                message = shm.rewrite(message)
            sender.push(message)

    def _flush(self) -> None:
        """Push the sender's queued frames to the socket."""
        if self._failed or self._sock is None or self._write_registered:
            return  # a pass-end hook may outlive a same-pass fail/detach
        try:
            drained = self._sender.pump(self._sock)
        except OSError as exc:
            self._fail(exc)
            return
        if drained:
            self._set_write_interest(False)
            self._report_partials()
            frames, syscalls = self._sender.take_episode()
            if self._metrics is not None:
                if frames:
                    self._metrics.histogram("frames_per_syscall") \
                        .observe(frames / max(1, syscalls))
                self._metrics.gauge("outbox_depth").set(0)
            if self._closing:
                self._report_flushed()
        else:
            self._set_write_interest(True)
            self._report_partials()
            if self._metrics is not None:
                # Write-blocked: surface the backlog as backpressure so
                # queue-depth dashboards see the stalled peer.
                self._metrics.gauge("outbox_depth").set(
                    self._sender.pending_frames + len(self._outbox))

    def _on_writable(self) -> None:
        self._drain_outbox()
        self._set_write_interest(False)
        self._flush()

    def _set_write_interest(self, on: bool) -> None:
        if on == self._write_registered or self._sock is None:
            return
        self._write_registered = on
        try:
            if on:
                self._loop._selector.register(
                    self._sock, selectors.EVENT_WRITE, self._on_writable)
            else:
                self._loop._selector.unregister(self._sock)
        except (KeyError, ValueError, OSError):  # pragma: no cover - teardown
            self._write_registered = False

    # -- the dial -----------------------------------------------------------
    def _dial_attempt(self) -> None:
        """Look the peer up and start a non-blocking connect to it."""
        if self._failed:
            return  # the deadline passed, or the peer was closed
        try:
            host, port, meta = self._ns.lookup_entry(self.peer_name)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        except (NameServerError, OSError) as exc:
            self._dial_failed(exc)
            return
        sock.setblocking(False)
        err = sock.connect_ex((host, port))
        if err in (0, errno.EINPROGRESS):
            self._loop._selector.register(
                sock, selectors.EVENT_WRITE,
                lambda: self._connected(sock, meta))
        else:
            sock.close()
            self._dial_failed(OSError(err, os.strerror(err)))

    def _connected(self, sock: socket.socket, meta: dict) -> None:
        """``EVENT_WRITE`` on the connecting socket: the connect is done."""
        self._loop._unregister(sock)
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err or self._failed:
            sock.close()
            if not self._failed:
                self._dial_failed(OSError(err, os.strerror(err)))
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        policy = self._transport
        if (policy.shm_enabled
                and meta.get("fingerprint") == host_fingerprint()):
            try:
                self._shm = ShmSender(policy.shm_arena_bytes,
                                      policy.shm_threshold,
                                      metrics=self._metrics)
            except (OSError, ValueError):
                pass  # no shm on this platform; the TCP lane works
            else:
                # Before the first descriptor frame: ahead of
                # everything in the outbox.
                self._sender.push(encode_control(
                    MSG_SHM_ATTACH, self._shm.name, self._shm.size))
        self._sock = sock
        self._pump()

    def _dial_failed(self, exc: Exception) -> None:
        """Not registered or not listening yet: retry after a backoff."""
        if not isinstance(exc, (UnknownKernel, ConnectionRefusedError)):
            self._fail(exc)
            return
        self._dial_error = exc
        self._loop.call_later(self._dial_delay, self._dial_attempt)
        self._dial_delay = min(2 * self._dial_delay, _DIAL_MAX_DELAY)

    def _dial_expired(self) -> None:
        if self._sock is None and not self._failed:
            exc = DialError(f"could not reach kernel {self.peer_name!r} "
                            f"within {self._dial_deadline}s")
            exc.__cause__ = self._dial_error
            self._fail(exc)

    # -- failure and close --------------------------------------------------
    def _fail(self, exc: Exception) -> None:
        if self._failed:
            return
        self._failed = True
        self._count_drops(self._drop_queued())
        if self._shm is not None:
            # The peer is gone, or will never see the descriptors just
            # dropped: take every block back.  Safe here — nothing is
            # placed or announced after a failure.
            self._shm.reclaim_all()
        self._set_write_interest(False)
        self._report_flushed()
        if not self._closing:
            self._on_error(self.peer_name, exc)

    def begin_close(self, on_flushed: Callable[[], None]) -> None:
        """Start flushing before a close: *on_flushed* runs once
        everything queued is on the wire or the peer has failed."""
        self._closing = True
        self._on_flushed = on_flushed
        if self._failed or not (self._outbox or self._sender.pending_frames):
            self._report_flushed()
        else:
            self._pump()  # dials if need be; _flush reports the drain

    def _report_flushed(self) -> None:
        on_flushed, self._on_flushed = self._on_flushed, None
        if on_flushed is not None:
            on_flushed()

    def close(self) -> None:
        """Release the socket and the shm arena now, flushed or not;
        later sends are counted drops."""
        self._closing = True
        self._failed = True  # late sends become counted drops
        self._set_write_interest(False)
        sock, self._sock = self._sock, None
        shm, self._shm = self._shm, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        if shm is not None:
            shm.destroy()

    # -- bookkeeping ----------------------------------------------------
    def _drop_queued(self) -> int:
        dropped = len(self._outbox)
        self._outbox.clear()
        dropped += self._sender.clear()
        return dropped

    def _report_partials(self) -> None:
        total = self._sender.partial_writes
        delta = total - self._partial_writes_reported
        if delta and self._metrics is not None:
            self._metrics.counter("partial_writes").inc(delta)
        self._partial_writes_reported = total

    def _count_drops(self, n: int) -> None:
        if not n:
            return
        if self._metrics is not None:
            self._metrics.counter("token_drops").inc(n)
        if self._trace is not None:
            self._trace("token_drop", peer=self.peer_name, dropped=n)

"""Distributed DPS kernel: the scheduler core on an I/O loop, over TCP.

One :class:`DistributedKernel` runs in each OS process and hosts the DPS
threads whose collections are mapped onto its node name (kernel names
*are* logical node names, matching the paper's "kernels are named so that
applications do not need to be aware of the machines they are running
on").  It is the third scheduler substrate (:mod:`repro.runtime.scheduler`),
built the way :class:`~repro.runtime.controller.SimController` is: a
hosted DPS thread is a handle — an inbox deque and the
``Scheduler.handle()`` generator of the item in progress — that the
kernel's :class:`~repro.net.eventloop.IOLoop` advances one inbox item at
a time up to the item's next wait, and a wait is resumed from a loop
callback (an admit gate opening, a ``call_later`` timer, a nested
activation's result).  No OS thread per DPS thread: a worker kernel is
one thread, its main thread turning the loop.  Activations, result
routing and failure surfacing come from
:class:`~repro.runtime.threaded_engine.ThreadedEngine`,
with the transport hooks overridden where the single-process engine
assumes shared memory:

====================  =================================================
hook                  distributed behaviour
====================  =================================================
``transmit``          envelopes for instances on another kernel are
                      protocol-encoded and queued on that peer's lazy
                      TCP connection (scatter-gather, zero-copy)
``send_ack``          merge→split acks travel to the group frame's
                      ``origin_node`` kernel
``send_group_total``  totals are broadcast to every kernel hosting
                      instances of the matching merge collection
``deliver_result`` / ``scatter_total``
                      depth-0 results, scatter outputs and scatter group
                      sizes are routed to the activation's
                      ``ctx_origin`` kernel
``_propagate_failure``  local body exceptions are broadcast so every
                      kernel's callers fail fast instead of hanging
====================  =================================================

Activation and group ids are made globally unique by starting each
kernel's counters at ``ordinal << 40`` — two kernels can never mint the
same id, which matters because group ids key merge state everywhere.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, \
    Tuple

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.ops import CallGraphRequest, ChargeRequest, PostRequest, \
    ScatterCallRequest, SleepRequest
from ..core.routing import RoutingPolicy
from ..core.threads import DpsThread, ThreadCollection
from ..runtime.base import DataEnvelope, GroupFrame, KernelFailure, \
    ScheduleError
from ..runtime.threaded_engine import ThreadedEngine
from ..serial import fastpath
from ..serial.token import Token
from ..serial.wire import WireError
from .connections import ConnectionPool, TransportPolicy
from .eventloop import IOLoop
from .framing import DEFAULT_RECV_BYTES
from .nameserver import NameServerClient
from .recovery import FaultPolicy, ReplayDedup, TokenJournal, apply_remap, \
    plan_rebalance, plan_remap
from .recovery import _unique_collections
from .shm import ShmReceiver, host_fingerprint
from . import protocol as P

__all__ = ["DistributedKernel", "CONSOLE_KERNEL", "KERNEL_ORDINAL_SHIFT",
           "run_kernel_process"]

#: The driver-process kernel: initiates runs, hosts no thread instances.
CONSOLE_KERNEL = "__driver__"

#: Per-kernel id-space partition for ctx and group counters.
KERNEL_ORDINAL_SHIFT = 40

#: With recovery on, journal entries un-acked for this long are
#: re-delivered (replay dedup makes duplicates harmless); this is what
#: turns injected frame drops into mere delays.
RESEND_AFTER = 1.0


class _ConnState:
    """Per-inbound-connection decode state (the peer's shm attachment)."""

    __slots__ = ("shm_rx",)

    def __init__(self) -> None:
        self.shm_rx: Optional[ShmReceiver] = None

    def close(self) -> None:
        shm_rx, self.shm_rx = self.shm_rx, None
        if shm_rx is not None:
            shm_rx.close()


class _LoopThread:
    """One hosted DPS thread: an inbox and the inbox item in progress,
    touched by the kernel's loop thread only."""

    __slots__ = ("collection", "index", "thread", "node_name", "inbox",
                 "steps", "scheduled")

    def __init__(self, collection: ThreadCollection, index: int,
                 thread: Optional[DpsThread] = None):
        self.collection = collection
        self.index = index
        self.thread = (thread if thread is not None
                       else collection.make_thread(index))
        self.node_name = collection.node_of(index)
        self.inbox: Deque[Any] = deque()
        #: ``Scheduler.handle()`` of the item in progress, running or
        #: parked at a wait; ``None`` while the thread is idle
        self.steps = None
        #: an ``_advance`` of this thread is queued on the loop
        self.scheduled = False

    def depth(self) -> int:
        return len(self.inbox)


class _Gate:
    """The admit gate of a stalled post, on the loop.

    As with ``threading.Event``, an opening that comes before the wait
    is not lost.  Both happen on the loop thread (``open_gate`` hands an
    opening over with ``IOLoop.call``); the waiter is the parked body's
    resume callback.
    """

    __slots__ = ("opened", "waiter")

    def __init__(self) -> None:
        self.opened = False
        self.waiter: Optional[Callable[[], None]] = None

    def open(self) -> None:
        self.opened = True
        waiter, self.waiter = self.waiter, None
        if waiter is not None:
            waiter()


class DistributedKernel(ThreadedEngine):
    """A kernel process's share of the schedule, run on its I/O loop.

    On a multiprocess kernel a body waits only through the requests it
    yields — a stalled post, ``sleep``, ``call_graph``, ``call_scatter``.
    Anything else it waits for (a blocking call, a long computation)
    holds the loop, and with it every socket and timer of the kernel:
    the heartbeat that renews the kernel's lease included.
    """

    def __init__(self, name: str, ordinal: int,
                 ns_address: Tuple[str, int],
                 peers: Iterable[str] = (),
                 policy: Optional[FlowControlPolicy] = None,
                 host: str = "127.0.0.1",
                 dial_deadline: float = 15.0,
                 tracer=None,
                 metrics=None,
                 transport: Optional[TransportPolicy] = None,
                 recover: bool = False,
                 faults: Optional[FaultPolicy] = None,
                 heartbeat_interval: float = 0.0,
                 routing: Optional[RoutingPolicy] = None,
                 stream: Optional[StreamPolicy] = None,
                 clock: Optional[Callable[[], float]] = None):
        super().__init__(policy=policy, tracer=tracer, metrics=metrics,
                         routing=routing, stream=stream)
        if clock is not None:
            #: Test seam: the substrate's ``now`` — journal ages and the
            #: I/O loop's timer deadlines all read this one clock.
            self.now = clock
        self.transport = transport if transport is not None \
            else TransportPolicy()
        if ordinal < 0:
            raise ValueError("kernel ordinal must be >= 0")
        self.name = name
        self.ordinal = ordinal
        self._origin_name = name
        #: Trace events recorded in this process carry the kernel name, so
        #: the merged console timeline keeps per-process identity.
        self._trace_pid = name
        # Partition the id spaces so no two kernels mint the same
        # activation or group id (group ids key merge state globally).
        self._ctx_counter = ordinal << KERNEL_ORDINAL_SHIFT
        self._group_counter = ordinal << KERNEL_ORDINAL_SHIFT
        #: Every kernel in the cluster (failure-broadcast fan-out).
        self._peer_names = [p for p in peers if p != name]
        self._shutdown_requested = threading.Event()
        # trace-merge barrier: collect_traces() waits here until every
        # polled peer has answered with its MSG_TRACE reply
        self._trace_cond = threading.Condition()
        self._trace_pending: set = set()

        # -- fault tolerance ------------------------------------------
        #: With recovery on, this kernel journals its windowed emissions
        #: (replayed after a remap) and dedups replayed frames at
        #: non-leaf inputs; see :mod:`repro.net.recovery`.
        self.recover = recover
        self.heartbeat_interval = heartbeat_interval
        # the member barrier's wait for the journal to drain (prune
        # notifies it under the engine lock it already holds)
        self._journal_drained = threading.Condition(self.lock)
        if recover:
            self.scheduler.journal = TokenJournal(
                on_drained=self._journal_drained.notify_all)
            self.scheduler.dedup = ReplayDedup()
        self._recovery_lock = threading.Lock()
        self._dead_kernels: set = set()
        self._recovered = False
        self._replayed_tokens = 0
        self._recovery_epoch = 0
        # remap/replay barrier (console side), same shape as the
        # trace-merge barrier above
        self._recovery_cond = threading.Condition()
        self._barrier_epoch = 0
        self._barrier_pending: set = set()
        self._replay_counts: Dict[str, int] = {}

        # -- elastic membership ---------------------------------------
        # Voluntary rebalances quiesce the console first: new
        # activations park on this gate while a membership barrier is in
        # flight, and the rebalance waits for in-flight activations to
        # drain.  A body's graph call starts its activation on the loop
        # and never passes the gate: the enclosing activation is already
        # counted.
        self._run_gate = threading.Condition()
        self._active_runs = 0
        self._rebalancing = False
        #: Peers that retired gracefully; their connections breaking is
        #: expected, not a failure (and not a kernel-down event).
        self._retired_peers: set = set()
        #: Migrated thread state received over MSG_THREAD_STATE, keyed
        #: ``(collection_name, index)`` → ``(epoch, thread_obj)``; the
        #: membership applier thread waits here for its expected gains.
        self._state_cond = threading.Condition()
        self._incoming_states: Dict[Tuple[str, int], Tuple[int, object]] = {}
        # cumulative elastic counters (console side), mirrored into
        # RunResult by the multiprocess engine
        self._rebalances = 0
        self._tokens_moved = 0
        self._rebalance_seconds = 0.0
        # deterministic chaos injection
        self.faults = faults if faults is not None else FaultPolicy()
        self._fault_rng = None
        self._kill_after_messages: Optional[int] = None
        if self.faults.drop_rate or self.faults.delay_ms:
            self._fault_rng = self.faults.rng_for(name)
        if self.faults.kills(name):
            self._kill_after_messages = self.faults.kill_after_messages
        self._data_message_counter = itertools.count(1)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        # I/O core: one selectors loop thread accepting on the listener
        # and multiplexing every peer socket, both directions; its timer
        # queue runs everything this kernel does "every so often".
        self._io_loop = IOLoop(name, metrics=metrics, clock=self.now)

        self._ns = NameServerClient(ns_address)
        self._pool = ConnectionPool(
            self._ns, loop=self._io_loop, hello_from=name,
            on_error=self._on_peer_error,
            dial_deadline=dial_deadline, transport=self.transport,
            metrics=metrics, trace=self.trace if tracer is not None else None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DistributedKernel":
        """:meth:`_open`, then turn the loop on a thread of its own; a
        worker process turns it on its main (:func:`run_kernel_process`)."""
        self._open()
        self._io_loop.start()
        return self

    def _open(self) -> None:
        """Register with the name server, accept peers, arm the timers."""
        self._ns.register(self.name, *self.address,
                          meta={"fingerprint": host_fingerprint(),
                                "kernel": True})
        self._io_loop.add_listener(self._listener, self._on_accept)
        if self.heartbeat_interval > 0:
            self._io_loop.call_later(self.heartbeat_interval, self._beat)
        if self.recover:
            self._io_loop.call_later(RESEND_AFTER / 2, self._resend_stale)
        if self.faults.kills(self.name) and self.faults.kill_after is not None:
            # Wall-clock kill; the message-count flavour lives in
            # _dispatch_message.  os._exit skips every finally/atexit —
            # as close to SIGKILL as the process can do to itself.
            self._io_loop.call_later(self.faults.kill_after,
                                     lambda: os._exit(137))

    def _beat(self) -> None:
        """Loop timer: renew the lease, reporting the tokens pending
        across this kernel's inboxes, then re-arm.  The beat is a
        one-way write: a wedged name server cannot stall this loop."""
        depth = self.queue_depth()
        if self.metrics is not None:
            self.metrics.gauge("queue_depth_total").set(depth)
        try:
            self._ns.heartbeat(self.name, load=depth)
        except Exception:
            return  # name server gone: the cluster is tearing down
        self._io_loop.call_later(self.heartbeat_interval, self._beat)

    # ------------------------------------------------------------------
    # run gate (quiesce point for voluntary rebalances)
    # ------------------------------------------------------------------
    def run(self, graph, token: Token, timeout: float = 60.0) -> Token:
        with self._run_gate:
            self._run_gate.wait_for(lambda: not self._rebalancing)
            self._active_runs += 1
        try:
            return super().run(graph, token, timeout=timeout)
        finally:
            with self._run_gate:
                self._active_runs -= 1
                self._run_gate.notify_all()

    def _resend_stale(self) -> None:
        """Loop timer: re-deliver journal entries un-acked for
        ``RESEND_AFTER``, then re-arm."""
        journal = self.scheduler.journal
        if len(journal):
            with self.lock:
                stale = journal.stale(RESEND_AFTER, self.now())
            for env in stale:
                self.transmit(env)
        self._io_loop.call_later(RESEND_AFTER / 2, self._resend_stale)

    def request_shutdown(self, peer: str) -> None:
        """Ask *peer* to shut down (part of the console's exit barrier)."""
        self._pool.send(peer, P.encode_shutdown())

    # ------------------------------------------------------------------
    # trace aggregation (console side)
    # ------------------------------------------------------------------
    def collect_traces(self, peers: Iterable[str],
                       timeout: float = 5.0) -> List[str]:
        """Pull every peer kernel's trace buffer and metrics into ours.

        Sends ``MSG_TRACE_FLUSH`` to each peer and blocks until all
        replies arrive (or *timeout* passes).  Merged events keep their
        originating kernel name in a ``pid`` field; metrics snapshots
        fold into this kernel's registry.  Returns the peers that did
        not answer in time (normally empty).
        """
        self._fold_codec_counters()
        peers = [p for p in peers if p != self.name]
        if not peers or (self.tracer is None and self.metrics is None):
            return []
        with self._trace_cond:
            self._trace_pending = set(peers)
        message = P.encode_trace_flush(self.name)
        for peer in peers:
            try:
                self._pool.send(peer, message)
            except Exception:
                with self._trace_cond:
                    self._trace_pending.discard(peer)
        with self._trace_cond:
            self._trace_cond.wait_for(
                lambda: not self._trace_pending, timeout=timeout)
            missing = sorted(self._trace_pending)
            self._trace_pending = set()
        return missing

    def _fold_codec_counters(self) -> None:
        """Fold the wire codec's fast-path tallies into the registry.

        The fastpath module keeps module-level counters (it sits below
        the metrics layer); draining them here, right before a snapshot
        leaves the process, surfaces ``codec_compiled_hits`` and
        ``codec_fallbacks`` in the merged console registry without a
        hot-path callback.
        """
        if self.metrics is None:
            return
        for key, value in fastpath.take_counters().items():
            if value:
                self.metrics.counter(key).inc(value)

    def _ship_trace(self, reply_to: str) -> None:
        """Answer a flush request with our buffered events and metrics."""
        self._fold_codec_counters()
        events = self.tracer.dump() if self.tracer is not None else []
        snapshot = self.metrics.snapshot() if self.metrics is not None else {}
        try:
            self._pool.send(reply_to, P.encode_trace(self.name, events,
                                                     snapshot))
        except Exception:
            return  # requester is gone; nothing useful to do
        # The buffer now lives at the requester; avoid re-shipping the
        # same events if another flush arrives.
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.clear()

    def shutdown(self) -> None:
        """:meth:`_stop` (a worker's ``MSG_SHUTDOWN`` ran it on its loop
        already), then close the loop and the rest."""
        if self._io_loop.closed:
            return
        self._stop()
        self._io_loop.close()
        # The loop closed the listener it adopted in start(); this
        # covers a kernel that was never started.
        self._listener.close()
        self._ns.close()
        self.scheduler.release_stalled()

    def _stop(self) -> None:
        """No body starts or resumes from here on; every peer channel is
        flushed and closed, then the loop stops."""
        with self.lock:
            self._closed = True
        self._shutdown_requested.set()
        self._pool.close_all()

    # ------------------------------------------------------------------
    # the loop substrate: hosted DPS threads run on the I/O loop
    # ------------------------------------------------------------------
    def _new_worker(self, collection: ThreadCollection, index: int,
                    thread: Optional[DpsThread] = None) -> _LoopThread:
        return _LoopThread(collection, index, thread)

    new_gate = _Gate

    def open_gate(self, gate: _Gate) -> None:
        # Any thread: release_stalled runs wherever a failure lands.
        self._io_loop.call(gate.open)

    def enqueue(self, handle: _LoopThread, item: Any) -> None:
        """Queue *item* for *handle*, any thread: a handle is the loop's
        alone, so another thread hands the item over with ``call``."""
        if not self._io_loop.on_loop_thread():
            if not self._io_loop.closed:
                self._io_loop.call(lambda: self.enqueue(handle, item))
            return
        handle.inbox.append(item)
        self._schedule(handle)

    def _schedule(self, handle: _LoopThread) -> None:
        """Queue an ``_advance`` for an idle handle with input."""
        if handle.inbox and handle.steps is None and not handle.scheduled:
            handle.scheduled = True
            self._io_loop.call(lambda: self._advance(handle))

    def _advance(self, handle: _LoopThread) -> None:
        """Loop callback: start *handle*'s next inbox item if it is idle."""
        handle.scheduled = False
        if handle.steps is not None or not handle.inbox or self._closed:
            return
        item = handle.inbox.popleft()
        if isinstance(item, threading.Event):  # _evict_thread's marker
            with self.lock:
                self._workers.pop((id(handle.collection), handle.index), None)
            item.set()
            return
        handle.steps = self.scheduler.handle(handle, item)
        self._step(handle, None)

    def _step(self, handle: _LoopThread, outcome: Any) -> None:
        """Run *handle*'s item in progress up to its next wait or its end
        (loop thread).  A wait is resumed by a callback; a raising body
        fails the engine."""
        steps = handle.steps
        try:
            while True:
                try:
                    body, step = steps.send(outcome)
                except StopIteration:
                    break
                outcome = None
                if isinstance(step, ChargeRequest):
                    continue  # virtual cost, meaningless on real threads
                resume = lambda value=None: self._resume(handle, value)
                if isinstance(step, _Gate):
                    if self._failure is not None or self._closed:
                        # released, not admitted: no ack is coming
                        handle.steps = None
                        return
                    if step.opened:
                        continue
                    step.waiter = resume
                elif isinstance(step, SleepRequest):
                    self._io_loop.call_later(step.seconds, resume)
                elif isinstance(step, CallGraphRequest):
                    self._call_graph(step, resume)
                else:
                    self._call_scatter(step, body, resume)
                return
        except BaseException as exc:
            handle.steps = None
            self._record_failure(exc)
            return
        # Done: an idle handle must not keep its last token (arrays
        # decoded in place hold a block of the sender's shm arena).
        handle.steps = None
        self._schedule(handle)

    def _resume(self, handle: _LoopThread, outcome: Any) -> None:
        """Continue *handle*'s parked item with *outcome* (loop thread).
        A body parked when the engine failed or shut down is dropped."""
        if self._failure is not None or self._closed:
            handle.steps = None
            return
        self._step(handle, outcome)

    def _on_loop(self, fn: Callable[[Any], None]) -> Callable[[Any], None]:
        """A result callback for any thread that runs *fn* on the loop."""
        return lambda item: self._io_loop.call(lambda: fn(item))

    def _retire(self, ctx_id: int, **fields: Any) -> None:
        """Forget a body's nested activation: what it still hands back
        (a duplicate queued behind its last item) is dropped."""
        with self.lock:
            self._results.pop(ctx_id, None)
        if self.tracer is not None:
            self.trace("activation_done", ctx=ctx_id, **fields)

    def _call_graph(self, step: CallGraphRequest,
                    resume: Callable[[Any], None]) -> None:
        """Start the activation a body's ``call_graph`` asks for; *resume*
        gets its result token (or the engine's failure)."""
        graph = self._resolve_entry(step.graph_name, step.token)

        def arrived(item: Any) -> None:
            if ctx_id in self._results:
                self._retire(ctx_id)
                resume(item)

        ctx_id = self._activate(graph, step.token, self._on_loop(arrived))

    def _call_scatter(self, step: ScatterCallRequest, body,
                      resume: Callable[[Any], None]) -> None:
        """Start a body's ``call_scatter``: each output is posted as
        *body*'s own as it arrives, and *resume* gets the group total
        once every output is in."""
        graph = self.graph(step.graph_name)
        if not graph.scatter:
            raise ScheduleError(
                f"graph {step.graph_name!r} is not a scatter graph")
        posted, total = 0, None

        def arrived(item: Any) -> None:
            nonlocal posted, total
            if ctx_id not in self._results:
                return
            if isinstance(item, BaseException):
                self._retire(ctx_id)
                resume(item)  # the engine failed: the body is dropped
                return
            if isinstance(item, Token):
                try:
                    self.scheduler.emit(body, PostRequest(item))
                except BaseException as exc:  # the body's post raised
                    self._retire(ctx_id)
                    self._record_failure(exc)
                    return
                posted += 1
            else:
                total = item
            if total is not None and posted >= total:
                self._retire(ctx_id, scatter=True)
                resume(total)

        ctx_id = self._activate(graph, step.token, self._on_loop(arrived))

    def _evict_thread(self, collection: ThreadCollection,
                      index: int) -> Optional[DpsThread]:
        """Detach instance *index* once what is queued for it has run;
        returns its thread object (``None`` if it never ran here).  Only
        valid while the cluster is quiesced."""
        with self.lock:
            handle = self._workers.get((id(collection), index))
        if handle is None:
            return None
        evicted = threading.Event()
        self.enqueue(handle, evicted)
        evicted.wait(timeout=10)
        return handle.thread

    # ------------------------------------------------------------------
    # sending side: the substrate's transport hooks
    # ------------------------------------------------------------------
    def transmit(self, env: DataEnvelope) -> None:
        node = env.graph.node(env.node_id)
        target = node.collection.node_of(env.instance)
        if target == self.name:
            self.enqueue(self._worker_for(node.collection, env.instance), env)
            return
        if self.tracer is None and self.metrics is None:
            segments = P.encode_data(env)
        else:
            t0 = time.monotonic()
            segments = P.encode_data(env)
            seconds = time.monotonic() - t0
            nbytes = sum(len(s) for s in segments)
            if self.tracer is not None:
                self.trace("serialize", node=self.name, seconds=seconds,
                           nbytes=nbytes)
                self.trace("token_send", src=self.name, dest=target,
                           nbytes=nbytes)
            if self.metrics is not None:
                self.metrics.counter("wire_messages").inc()
                self.metrics.counter("wire_bytes").inc(nbytes)
                self.metrics.histogram("serialize_seconds").observe(seconds)
        self._pool.send(target, segments)

    def send_ack(self, graph_name: str, frame: GroupFrame) -> None:
        origin_node = frame.origin_node
        if origin_node == self.name:
            super().send_ack(graph_name, frame)
            return
        # Never blocks — the caller holds the engine lock.
        self._pool.send(origin_node, P.encode_ack(
            graph_name, frame.opener, frame.opener_instance,
            frame.routed_instance, frame.group_id, frame.index))

    def send_group_total(self, graph: Flowgraph, merge_id: int,
                         group_id: int, total: int) -> None:
        # The opener cannot know which merge instance the group landed on,
        # so the total goes to every kernel hosting instances of the merge
        # collection; kernels that never see the group keep a placeholder
        # the scheduler prunes past MAX_STALE_GROUPS.
        message = None
        for kernel in set(graph.node(merge_id).collection.placements):
            if kernel == self.name:
                super().send_group_total(graph, merge_id, group_id, total)
            else:
                if message is None:
                    message = P.encode_group_total(group_id, total)
                self._pool.send(kernel, message)

    def deliver_result(self, body, token: Token, frame,
                       needs_ack: bool) -> None:
        origin = body.ctx_origin
        if origin is None or origin == self.name:
            super().deliver_result(body, token, frame, needs_ack)
            return
        if needs_ack:
            self.send_ack(body.graph.name, frame)
        kind = P.MSG_SCATTER_RESULT if body.graph.scatter else P.MSG_RESULT
        self._pool.send(origin, P.encode_result(kind, body.ctx_id, token))

    def scatter_total(self, body, total: int) -> None:
        origin = body.ctx_origin
        if origin is None or origin == self.name:
            super().scatter_total(body, total)
        else:
            self._pool.send(origin,
                            P.encode_scatter_total(body.ctx_id, total))

    def _propagate_failure(self, exc: BaseException) -> None:
        message = P.encode_failure(exc)
        for peer in self._peer_names:
            try:
                self._pool.send(peer, message)
            except Exception:
                pass  # best effort: the peer may already be gone

    def _on_peer_error(self, peer: str, exc: Exception) -> None:
        if self._shutdown_requested.is_set():
            return
        with self._recovery_lock:
            if peer in self._retired_peers:
                return  # a graceful leaver's connection breaking is expected
        if self.recover:
            # Dead-connection detection: the write side is the first to
            # see a broken pipe to a dead peer.  Declare the peer down
            # instead of poisoning the run.
            self.handle_kernel_down(peer, f"peer connection failed: {exc}")
            return
        self._record_failure(
            KernelFailure(f"kernel {self.name!r} lost peer {peer!r}: {exc}"))

    # ------------------------------------------------------------------
    # failure recovery (remap + split-boundary replay)
    # ------------------------------------------------------------------
    def handle_kernel_down(self, name: str, reason: str = "",
                           propagate: bool = True) -> None:
        """Declare kernel *name* dead (idempotent).

        Without recovery the run fails fast with
        :class:`~repro.runtime.controller.KernelFailure`.  With recovery
        on, the console kernel orchestrates remap + replay; worker
        kernels forward the observation to the console.
        """
        with self._recovery_lock:
            if name in self._dead_kernels:
                return
            if name in self._retired_peers:
                # Retire racing a heartbeat miss: the kernel already
                # handed its state off and left the placement maps; a
                # stale expiry observation must not trigger recovery.
                return
            self._dead_kernels.add(name)
        if self._shutdown_requested.is_set():
            return
        if self.tracer is not None:
            self.trace("kernel_down", kernel=name, reason=reason)
        if self.metrics is not None:
            self.metrics.counter("kernels_down").inc()
        if not self.recover:
            self._record_failure(KernelFailure(
                f"kernel process {name!r} died unexpectedly ({reason})"),
                propagate=propagate)
            return
        if self.name == CONSOLE_KERNEL:
            # Orchestrate off the calling thread: normally the I/O loop
            # (a peer error, a process sentinel, a liveness tick), and
            # recovery blocks on cluster-wide barriers.
            threading.Thread(target=self._recover_from_failure,
                             args=(name,),
                             name=f"dps-recover:{self.name}",
                             daemon=True).start()
        else:
            try:
                self._pool.send(CONSOLE_KERNEL,
                                P.encode_kernel_down(name, reason))
            except Exception:
                pass  # console's own liveness checks will catch it

    def _recover_from_failure(self, dead: str) -> None:
        """Console side: remap the dead kernel's instances, then replay.

        Two cluster-wide barriers, strictly ordered: every survivor must
        have applied the remap before *any* journal replays, or a
        replayed token could be routed to the dead kernel by a survivor
        still holding the old placements and be lost forever.
        """
        try:
            with self._recovery_lock:
                survivors = [p for p in self._peer_names
                             if p != dead and p not in self._dead_kernels]
                self._recovery_epoch += 1
                epoch = self._recovery_epoch
            with self.lock:
                graphs = list(self._graphs.values())
                mapping = plan_remap(graphs, dead, survivors)
                apply_remap(graphs, mapping)
            if self.tracer is not None:
                self.trace("remap", dead=dead,
                           collections=sorted(mapping), epoch=epoch)
            self._recovery_barrier("remap", epoch, survivors,
                                   P.encode_remap(epoch, mapping, dead))
            counts = self._recovery_barrier("replay", epoch, survivors,
                                            P.encode_replay(epoch))
            replayed = sum(counts.values()) + self._replay_local()
            with self._recovery_lock:
                self._recovered = True
                self._replayed_tokens += replayed
            if self.tracer is not None:
                self.trace("replay", epoch=epoch, tokens=replayed)
            if self.metrics is not None:
                self.metrics.counter("tokens_replayed").inc(replayed)
        except BaseException as exc:
            failure = exc if isinstance(exc, KernelFailure) else \
                KernelFailure(f"recovery from dead kernel {dead!r} "
                              f"failed: {exc}")
            self._record_failure(failure)

    def _recovery_barrier(self, kind: str, epoch: int, peers: List[str],
                          message, timeout: float = 10.0) -> Dict[str, int]:
        with self._recovery_cond:
            self._barrier_epoch = epoch
            self._barrier_pending = set(peers)
            self._replay_counts = {}
        for peer in peers:
            self._pool.send(peer, message)
        with self._recovery_cond:
            if not self._recovery_cond.wait_for(
                    lambda: not self._barrier_pending, timeout=timeout):
                raise KernelFailure(
                    f"recovery {kind} barrier timed out waiting for "
                    f"{sorted(self._barrier_pending)} (cascading failure?)")
            return dict(self._replay_counts)

    def _barrier_done(self, peer: str, epoch: int,
                      count: Optional[int] = None) -> None:
        with self._recovery_cond:
            if epoch != self._barrier_epoch:
                return
            if count is not None:
                self._replay_counts[peer] = count
            self._barrier_pending.discard(peer)
            self._recovery_cond.notify_all()

    def _apply_remote_remap(self, epoch: int, mapping: Dict[str, List[str]],
                            dead: str) -> None:
        with self._recovery_lock:
            self._dead_kernels.add(dead)
        with self.lock:
            apply_remap(self._graphs.values(), mapping)
        try:
            self._pool.send(CONSOLE_KERNEL,
                            P.encode_remap_ok(self.name, epoch))
        except Exception:
            pass

    def _replay_local(self) -> int:
        """Re-deliver every journaled (un-acked) emission; routing is
        recomputed from the post-remap placements in ``transmit``."""
        journal = self.scheduler.journal
        if journal is None:
            return 0
        with self.lock:
            envs = journal.replay_all(self.now())
        for env in envs:
            self.transmit(env)
        return len(envs)

    def recovery_snapshot(self) -> Tuple[bool, int]:
        """``(recovered, replayed_tokens)`` so far on this kernel."""
        with self._recovery_lock:
            return self._recovered, self._replayed_tokens

    # ------------------------------------------------------------------
    # elastic membership (voluntary join / retire)
    # ------------------------------------------------------------------
    def rebalance(self, joined: Iterable[str] = (),
                  retired: Iterable[str] = (),
                  depths: Optional[Dict[str, int]] = None,
                  timeout: float = 30.0) -> int:
        """Console side: admit *joined* kernels and/or drain *retired*.

        Quiesce-then-move, unlike the failure path: the console stops
        admitting activations, waits for in-flight ones to drain, plans
        a minimal-move rebalance over the new member set, and runs one
        **member barrier** — every kernel (old, joining and retiring)
        applies the new placements, ships the live thread state of
        instances it loses straight to their new owners, and replies
        ``MSG_REMAP_OK`` only once every instance it gains has arrived.
        Retiring kernels hand their state off before leaving, so there
        is no journal replay storm; a replay barrier still runs on joins
        as an exactly-once backstop (it replays ~0 tokens when
        quiesced).  Returns the number of thread instances moved.
        """
        joined = list(joined)
        retired = list(retired)
        t0 = time.monotonic()
        with self._run_gate:
            self._rebalancing = True
            if not self._run_gate.wait_for(lambda: self._active_runs == 0,
                                           timeout=timeout):
                self._rebalancing = False
                self._run_gate.notify_all()
                raise KernelFailure(
                    f"rebalance timed out waiting for {self._active_runs} "
                    f"active activation(s) to drain")
        try:
            with self._recovery_lock:
                current = [p for p in self._peer_names
                           if p not in self._dead_kernels]
                self._recovery_epoch += 1
                epoch = self._recovery_epoch
            members = sorted((set(current) | set(joined)) - set(retired)
                             - {self.name})
            if not members:
                raise KernelFailure(
                    "rebalance would leave no execution kernels")
            with self.lock:
                graphs = list(self._graphs.values())
                old_map = {coll.name: list(coll.placements)
                           for coll in _unique_collections(graphs)}
                mapping, moved = plan_rebalance(graphs, members,
                                                depths=depths, joined=joined)
            new_map = {name: list(mapping.get(name, places))
                       for name, places in old_map.items()}
            if self.tracer is not None:
                self.trace("rebalance", joined=sorted(joined),
                           retired=sorted(retired), epoch=epoch,
                           moved=moved, collections=sorted(mapping))
            # Everyone participates: retirees must hand their state off
            # and joiners must normalize their placements before the
            # first token flows.
            barrier_peers = sorted((set(current) | set(joined))
                                   - {self.name})
            self._recovery_barrier(
                "member", epoch, barrier_peers,
                P.encode_member(epoch, old_map, new_map, joined, retired),
                timeout=timeout)
            with self.lock:
                apply_remap(graphs, mapping)
            with self._recovery_lock:
                self._peer_names = list(members)
                self._retired_peers.update(retired)
            if joined:
                # Exactly-once backstop for the join path; quiesced
                # journals make this a ~0-token barrier.
                counts = self._recovery_barrier("replay", epoch, members,
                                                P.encode_replay(epoch))
                replayed = sum(counts.values()) + self._replay_local()
                with self._recovery_lock:
                    self._replayed_tokens += replayed
            with self._recovery_lock:
                self._rebalances += 1
                self._tokens_moved += moved
                self._rebalance_seconds += time.monotonic() - t0
            if self.metrics is not None:
                self.metrics.counter("rebalances").inc()
                self.metrics.counter("tokens_moved").inc(moved)
                self.metrics.histogram("rebalance_seconds").observe(
                    time.monotonic() - t0)
            return moved
        finally:
            with self._run_gate:
                self._rebalancing = False
                self._run_gate.notify_all()

    def _apply_membership(self, epoch: int, old_map: Dict[str, List[str]],
                          new_map: Dict[str, List[str]], joined: List[str],
                          retired: List[str]) -> None:
        """Worker side of the member barrier (runs on its own thread).

        The console has quiesced the cluster, so local inboxes drain to
        empty and the journal prunes to nothing; after that this kernel
        computes its losses and gains from the *shipped* placement maps
        (its local graphs may be stale — a CLI joiner rebuilt them from
        source), evicts and ships lost instances' thread objects, adopts
        gained ones, and only then acknowledges the barrier.
        """
        try:
            journal = self.scheduler.journal
            if journal is not None:
                with self._journal_drained:
                    self._journal_drained.wait_for(lambda: not len(journal),
                                                   timeout=5.0)
            with self.lock:
                colls = {coll.name: coll for coll in
                         _unique_collections(self._graphs.values())}
            losses: List[Tuple[str, int, str]] = []
            gains: set = set()
            for name, old_places in old_map.items():
                new_places = new_map.get(name, old_places)
                for i, (old, new) in enumerate(zip(old_places, new_places)):
                    if old == new:
                        continue
                    if old == self.name:
                        losses.append((name, i, new))
                    if new == self.name:
                        gains.add((name, i))
            with self._recovery_lock:
                self._retired_peers.update(retired)
                self._peer_names = sorted(
                    (set(self._peer_names) | set(joined)) - set(retired)
                    - {self.name})
            for name, index, target in losses:
                coll = colls.get(name)
                thread = self._evict_thread(coll, index) \
                    if coll is not None else None
                self._pool.send(target, P.encode_thread_state(
                    name, index, epoch, thread))
            with self.lock:
                apply_remap(self._graphs.values(), new_map)
            if gains:
                with self._state_cond:
                    arrived = self._state_cond.wait_for(
                        lambda: all(
                            key in self._incoming_states
                            and self._incoming_states[key][0] >= epoch
                            for key in gains),
                        timeout=20.0)
                    states = {key: self._incoming_states.pop(key)[1]
                              for key in gains
                              if key in self._incoming_states}
                if not arrived:
                    raise KernelFailure(
                        f"kernel {self.name!r} never received migrated "
                        f"state for {sorted(gains - set(states))} "
                        f"(donor died mid-rebalance?)")
                for (name, index), thread in states.items():
                    coll = colls.get(name)
                    if coll is not None:
                        self._adopt_thread(coll, index, thread)
            if self.tracer is not None:
                self.trace("member", epoch=epoch, lost=len(losses),
                           gained=len(gains))
            if self.metrics is not None and losses:
                self.metrics.counter("tokens_moved").inc(len(losses))
            self._pool.send(CONSOLE_KERNEL,
                            P.encode_remap_ok(self.name, epoch))
        except BaseException as exc:
            failure = exc if isinstance(exc, KernelFailure) else \
                KernelFailure(f"membership change failed on "
                              f"{self.name!r}: {exc}")
            self._record_failure(failure)

    def rebalance_snapshot(self) -> Tuple[int, int, float]:
        """``(rebalances, tokens_moved, rebalance_seconds)`` so far."""
        with self._recovery_lock:
            return (self._rebalances, self._tokens_moved,
                    self._rebalance_seconds)

    # ------------------------------------------------------------------
    # receiving side
    # ------------------------------------------------------------------
    def _on_accept(self, conn: socket.socket) -> None:
        state = _ConnState()
        self._io_loop.add_connection(
            conn, recv_bytes=DEFAULT_RECV_BYTES,
            on_frames=lambda frames: self._process_frames(state, frames),
            on_close=lambda exc: self._on_conn_close(state, exc))

    def _process_frames(self, state: _ConnState, frames) -> None:
        for payload in frames:
            kind, value = P.decode_message(payload, self._graphs)
            if kind == P.MSG_SHM_ATTACH:
                arena_name, size = value
                state.shm_rx = ShmReceiver(arena_name, size)
                continue
            if kind == P.MSG_SHM:
                if state.shm_rx is None:
                    raise WireError(
                        "shm descriptor frame before MSG_SHM_ATTACH")
                # Decoded in place: the token's arrays alias the arena
                # block, which goes back to the sender when they die.
                kind, value = P.decode_message(
                    state.shm_rx.borrow(*value), self._graphs)
            self._dispatch_message(kind, value)

    def _on_conn_close(self, state: _ConnState,
                       exc: Optional[Exception]) -> None:
        state.close()
        if exc is None or self._shutdown_requested.is_set():
            return
        if self.recover:
            # A broken inbound connection is anonymous (no peer name
            # here); liveness is owned by the heartbeat/sentinel
            # machinery and the named write-side _on_peer_error.
            return
        self._record_failure(KernelFailure(
            f"kernel {self.name!r} receive path failed: {exc}"))

    def _dispatch_message(self, kind: int, value) -> None:
        if kind == P.MSG_DATA:
            if self._kill_after_messages is not None:
                # Deterministic mid-phase death: die *before* processing
                # the Nth data message, so its token is provably lost and
                # must come back through journal replay.
                if next(self._data_message_counter) >= \
                        self._kill_after_messages:
                    os._exit(137)
            rng = self._fault_rng
            if rng is not None:
                # Injection applies to data frames only — dropping acks
                # or barrier messages would test the injector, not the
                # recovery protocol.
                if self.faults.drop_rate and \
                        rng.random() < self.faults.drop_rate:
                    if self.metrics is not None:
                        self.metrics.counter(
                            "frames_dropped_injected").inc()
                    return
                if self.faults.delay_ms:
                    time.sleep(rng.random() * self.faults.delay_ms / 1000.0)
            env: DataEnvelope = value
            node = env.graph.node(env.node_id)
            self.enqueue(self._worker_for(node.collection, env.instance), env)
        elif kind == P.MSG_ACK:
            self.scheduler.apply_ack(
                value.graph_name, value.opener, value.opener_instance,
                value.routed_instance, value.group_id, value.index)
        elif kind == P.MSG_GROUP_TOTAL:
            group_id, total = value
            self.scheduler.apply_group_total(group_id, total)
        elif kind in (P.MSG_RESULT, P.MSG_SCATTER_RESULT,
                      P.MSG_SCATTER_TOTAL):
            # A caller that gave up (timeout, failure) has left no
            # queue; its late arrivals are dropped, not an error here.
            self._result_arrived(*value, late_ok=True)
        elif kind == P.MSG_FAILURE:
            self._record_failure(value, propagate=False)
        elif kind == P.MSG_TRACE_FLUSH:
            self._ship_trace(value)
        elif kind == P.MSG_TRACE:
            kernel_name, events, snapshot = value
            if self.tracer is not None and events:
                self.tracer.merge(events, pid=kernel_name)
            if self.metrics is not None and snapshot:
                self.metrics.merge(snapshot)
            with self._trace_cond:
                self._trace_pending.discard(kernel_name)
                self._trace_cond.notify_all()
        elif kind == P.MSG_KERNEL_DOWN:
            name, reason = value
            self.handle_kernel_down(name, reason)
        elif kind == P.MSG_REMAP:
            epoch, mapping, dead = value
            self._apply_remote_remap(epoch, mapping, dead)
        elif kind == P.MSG_REPLAY:
            count = self._replay_local()
            try:
                self._pool.send(CONSOLE_KERNEL,
                                P.encode_replay_done(self.name, value, count))
            except Exception:
                pass  # console gone: barrier timeout handles it
        elif kind == P.MSG_REPLAY_DONE:
            name, epoch, count = value
            self._barrier_done(name, epoch, count)
        elif kind == P.MSG_REMAP_OK:
            name, epoch = value
            self._barrier_done(name, epoch)
        elif kind == P.MSG_MEMBER:
            epoch, old_map, new_map, joined, retired = value
            # Off the I/O loop: applying a membership change blocks
            # on journal drain and on migrated state from other kernels.
            threading.Thread(target=self._apply_membership,
                             args=(epoch, old_map, new_map, joined, retired),
                             name=f"dps-member:{self.name}",
                             daemon=True).start()
        elif kind == P.MSG_THREAD_STATE:
            cname, index, epoch, thread = value
            with self._state_cond:
                self._incoming_states[(cname, index)] = (epoch, thread)
                self._state_cond.notify_all()
        elif kind == P.MSG_SHUTDOWN:
            self._stop()
        elif kind == P.MSG_HELLO:
            pass  # informational; connections are identified lazily
        else:  # pragma: no cover - decode_message already validates
            raise WireError(f"unhandled message kind {kind}")


def run_kernel_process(name: str, ordinal: int,
                       ns_address: Tuple[str, int],
                       peers: List[str],
                       graphs: List[Flowgraph],
                       policy: Optional[FlowControlPolicy] = None,
                       ready=None,
                       trace: bool = False,
                       transport: Optional[TransportPolicy] = None,
                       recover: bool = False,
                       faults: Optional[FaultPolicy] = None,
                       heartbeat_interval: float = 0.0,
                       routing: Optional[RoutingPolicy] = None,
                       stream: Optional[StreamPolicy] = None) -> None:
    """Child-process main for one kernel (forked by MultiprocessEngine).

    The kernel's loop runs on this thread, the process's only one, until
    ``MSG_SHUTDOWN`` has flushed and closed every peer channel.  With
    *trace* set, the kernel records into a process-local tracer and
    metrics registry; the console pulls both through ``MSG_TRACE_FLUSH``
    before the shutdown barrier and merges them into one timeline.
    """
    tracer = metrics = None
    if trace:
        from ..trace import MetricsRegistry, Tracer
        tracer = Tracer()
        metrics = MetricsRegistry()
    kernel = DistributedKernel(
        name, ordinal, ns_address, peers,
        policy=policy if policy is not None else FlowControlPolicy(),
        tracer=tracer, metrics=metrics,
        transport=transport, recover=recover, faults=faults,
        heartbeat_interval=heartbeat_interval, routing=routing,
        stream=stream)
    for graph in graphs:
        kernel.register_graph(graph)
    kernel._open()
    if ready is not None:
        ready.set()
    try:
        kernel._io_loop.run()
    finally:
        kernel.shutdown()

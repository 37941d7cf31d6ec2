"""Distributed DPS kernel: the scheduler core on an I/O loop, over TCP.

One :class:`DistributedKernel` runs in each OS process and hosts the DPS
threads whose collections are mapped onto its node name (kernel names
*are* logical node names, matching the paper's "kernels are named so that
applications do not need to be aware of the machines they are running
on").  It is :class:`~repro.runtime.threaded_engine.ThreadedEngine`, the
loop substrate of the scheduler core, with a TCP transport: a worker
kernel is one thread, its main thread turning the loop that steps every
hosted DPS thread.  The recovery and member barriers are control
coroutines on that loop (``_drive``): each wait is a yield the matching
callback resumes, each deadline a ``call_later`` on the kernel's clock.

The kernel overrides these members of the engine:

====================  =================================================
member                distributed behaviour
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
``admit``             an instance leaving in a member change ends at
                      its ``_EVICT`` marker
``_start_run``        a caller's activation passes the run gate
``_stop``             shutdown flushes and closes every peer channel
====================  =================================================

Activation and group ids are made globally unique by starting each
kernel's counters at ``ordinal << 40`` — two kernels can never mint the
same id, which matters because group ids key merge state everywhere.
"""

from __future__ import annotations

import itertools
import os
import socket
import time
from collections import deque, namedtuple
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, \
    Tuple

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.routing import RoutingPolicy
from ..runtime.base import DataEnvelope, GroupFrame, KernelFailure, \
    RunResult, ScheduleError
from ..runtime.scheduler import ThreadHandle
from ..runtime.threaded_engine import ThreadedEngine
from ..serial.token import Token
from ..serial.wire import WireError, take_codec_counters
from .connections import CLOSE_DEADLINE, ConnectionPool, TransportPolicy
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


#: What a control coroutine yields: resume me once ``ready()`` holds, or
#: after *seconds* of the kernel's clock with ``expired()`` — an
#: exception raised at the yield, or ``None`` to carry on.
_Wait = namedtuple("_Wait", "ready seconds expired",
                   defaults=(lambda: None,))

#: The inbox marker of an instance leaving in a member change: ``admit``
#: reaches it once everything queued ahead of it has run.
_EVICT = object()


class DistributedKernel(ThreadedEngine):
    """A kernel process's share of the schedule, run on its I/O loop.

    A body that holds the loop (a blocking call, a long computation)
    holds every socket and timer of the kernel with it: the beat that
    tells the console it is alive included.
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
                 clock: Optional[Callable[[], float]] = None,
                 loop: Optional[IOLoop] = None,
                 ns: Optional[NameServerClient] = None):
        if ordinal < 0:
            raise ValueError("kernel ordinal must be >= 0")
        self.name = name
        if clock is not None:
            #: Test seam: the substrate's ``now`` — journal ages and the
            #: I/O loop's timer deadlines all read this one clock.
            self.now = clock
        if loop is not None:
            #: Seam: the loop to run on, made by the caller (the console
            #: shares its own with the directory it hosts).
            self._new_loop = lambda: loop
        super().__init__(policy=policy, tracer=tracer, metrics=metrics,
                         routing=routing, stream=stream)
        self.transport = transport if transport is not None \
            else TransportPolicy()
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
        #: a peer dropping is the cluster going down, not a failure
        self._shutdown_requested = False
        #: parked control coroutines → (their wait, done, deadline timer)
        self._waits: Dict[Any, tuple] = {}
        #: peers whose MSG_TRACE reply collect_traces() still waits for
        self._trace_pending: set = set()
        #: (console side) each kernel's last beat-reported queue depth,
        #: and who beat since the liveness tick last looked
        self._loads: Dict[str, int] = {}
        self._beaten: set = set()

        # -- fault tolerance ------------------------------------------
        #: With recovery on, this kernel journals its windowed emissions
        #: (replayed after a remap) and dedups replayed frames at
        #: non-leaf inputs; see :mod:`repro.net.recovery`.
        self.recover = recover
        self.heartbeat_interval = heartbeat_interval
        if recover:
            # A member change waits for the journal to drain, resumed
            # from a call of its own: the last prune is mid-apply_ack.
            self.scheduler.journal = TokenJournal(
                on_drained=lambda: self._waits
                and self._io_loop.call(self._recheck))
            self.scheduler.dedup = ReplayDedup()
        self._dead_kernels: set = set()
        self._recovered = False
        self._replayed_tokens = 0
        self._recovery_epoch = 0
        # the barrier in flight (console side): remap, replay or member
        self._barrier_epoch = 0
        self._barrier_pending: set = set()
        self._replay_counts: Dict[str, int] = {}

        # -- elastic membership ---------------------------------------
        # The run gate: while a rebalance holds it, callers' activations
        # park here, and it waits for the active ones to drain (a body's
        # graph call never passes the gate: its caller is counted).
        self._active_runs = 0
        self._rebalancing = False
        self._parked: Deque[Callable[[], None]] = deque()
        #: Peers that retired gracefully; their connections breaking is
        #: expected, not a failure (and not a kernel-down event).
        self._retired_peers: set = set()
        #: Migrated thread state received over MSG_THREAD_STATE, keyed
        #: ``(collection_name, index)`` → ``(epoch, thread_obj)``; the
        #: member change waits here for its expected gains.
        self._incoming_states: Dict[Tuple[str, int], Tuple[int, object]] = {}
        # cumulative elastic counters (console side), read into each
        # RunResult by run_result
        self._rebalances = 0
        self._tokens_moved = 0
        self._rebalance_seconds = 0.0
        # deterministic chaos injection
        self.faults = faults if faults is not None else FaultPolicy()
        self._fault_rng = None
        self._kill_after_messages: Optional[int] = None
        if self.faults.drop_rate:
            self._fault_rng = self.faults.rng_for(name)
        if self.faults.kills(name):
            self._kill_after_messages = self.faults.kill_after_messages
        self._data_message_counter = itertools.count(1)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        #: Seam: the name-service client (the console's is in process)
        self._ns = ns if ns is not None else NameServerClient(ns_address)
        self._pool = ConnectionPool(
            self._ns, loop=self._io_loop, on_error=self._on_peer_error,
            dial_deadline=dial_deadline, transport=self.transport,
            metrics=metrics, trace=self.trace if tracer is not None else None)

    def _new_loop(self) -> IOLoop:
        # One selectors loop accepting on the listener and multiplexing
        # every peer socket; start() turns it, or a worker's main thread.
        return IOLoop(self.name, metrics=self.metrics, clock=self.now)

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
        """Loop timer: tell the console this kernel is alive, with the
        tokens pending across its inboxes, then re-arm."""
        depth = self.queue_depth()
        if self.metrics is not None:
            self.metrics.gauge("queue_depth_total").set(depth)
        self._pool.send(CONSOLE_KERNEL,
                        P.encode_control(P.MSG_BEAT, self.name, depth))
        self._io_loop.call_later(self.heartbeat_interval, self._beat)

    def _resend_stale(self) -> None:
        """Loop timer: re-deliver journal entries un-acked for
        ``RESEND_AFTER``, then re-arm."""
        journal = self.scheduler.journal
        if len(journal):
            for env in journal.stale(RESEND_AFTER, self.now()):
                self.transmit(env)
        self._io_loop.call_later(RESEND_AFTER / 2, self._resend_stale)

    # ------------------------------------------------------------------
    # control coroutines: waits are continuations on the loop
    # ------------------------------------------------------------------
    def _drive(self, steps, done: Callable[[Any], None],
               exc: Optional[Exception] = None) -> None:
        """Run control coroutine *steps* to its next ``_Wait`` the way
        ``Scheduler.step`` runs a body.  A wait not ready yet parks it until
        :meth:`_recheck` finds it ready or its deadline passes.  *done*
        gets what it returns or the exception it raises."""
        while True:
            try:
                wait = next(steps) if exc is None else steps.throw(exc)
            except StopIteration as stop:
                done(stop.value)
                return
            except Exception as err:
                done(err)
                return
            exc = None
            if wait.ready():
                continue
            if self._closed:
                exc = ScheduleError("kernel is shut down")
                continue
            break

        def expire() -> None:
            if self._waits.pop(steps, None) is not None:
                self._drive(steps, done, wait.expired())

        self._waits[steps] = (wait, done,
                              self._io_loop.call_later(wait.seconds, expire))

    def _recheck(self) -> None:
        """Resume each parked control coroutine whose wait is now ready
        (called by what they wait on)."""
        for steps, (wait, done, timer) in list(self._waits.items()):
            if steps in self._waits and wait.ready():
                del self._waits[steps]
                timer.cancel()
                self._drive(steps, done)

    def _fails(self, what: str) -> Callable[[Any], None]:
        """*done* of a coroutine the kernel starts for itself: what it
        raises fails the engine, unless the kernel is shutting down."""
        def done(outcome: Any) -> None:
            if isinstance(outcome, Exception) and not self._closed:
                self._record_failure(
                    outcome if isinstance(outcome, KernelFailure)
                    else KernelFailure(f"{what}: {outcome}"))
        return done

    # ------------------------------------------------------------------
    # callers' activations, through the run gate
    # ------------------------------------------------------------------
    def run(self, graph, token: Token, timeout: float = 60.0) -> Token:
        self.last_result = result = self.run_result(graph, token, timeout)
        return result.token

    def run_result(self, graph, token: Token,
                   timeout: float = 60.0) -> RunResult:
        """Run one activation from a thread other than the loop's: it
        starts on the loop, and its outcome and the recovery and
        rebalance counters come back from one loop instant."""
        started = time.monotonic()

        def start(reply: Callable[[Any], None]) -> None:
            self._start_run(
                self._resolve_entry(graph, token), token, timeout,
                lambda outcome: reply(
                    outcome if isinstance(outcome, BaseException) else
                    RunResult(outcome, started, time.monotonic(),
                              recovered=self._recovered,
                              replayed_tokens=self._replayed_tokens,
                              rebalances=self._rebalances,
                              tokens_moved=self._tokens_moved)))

        return self._hand_over(start)

    def _start_run(self, graph: Flowgraph, token: Token, timeout: float,
                   finish: Callable[[Any], None]) -> None:
        """Start a caller's activation — ``run``'s, a service call's —
        through the run gate: parked while a rebalance holds it, and
        counted while it runs, so a rebalance can wait for it."""
        if self._rebalancing:
            self._parked.append(
                lambda: self._start_run(graph, token, timeout, finish))
            return

        def settled(outcome: Any) -> None:
            self._active_runs -= 1
            finish(outcome)
            if self._waits:  # a rebalance may wait for the runs to drain
                self._io_loop.call(self._recheck)

        self._active_runs += 1
        super()._start_run(graph, token, timeout, settled)

    def request_shutdown(self, peer: str) -> None:
        """Ask *peer* to shut down (part of the console's exit barrier;
        any thread)."""
        message = P.encode_control(P.MSG_SHUTDOWN)
        self._io_loop.call(lambda: self._pool.send(peer, message))

    # ------------------------------------------------------------------
    # trace aggregation (console side)
    # ------------------------------------------------------------------
    def collect_traces(self, peers: Iterable[str],
                       timeout: float = 5.0) -> List[str]:
        """Pull every peer kernel's trace buffer and metrics into ours.

        Sends ``MSG_TRACE_FLUSH`` to each peer and blocks until all
        replies arrive (or *timeout* of the kernel's clock passes).
        Merged events keep their originating kernel name in a ``pid``
        field; metrics snapshots fold into this kernel's registry.
        Returns the peers that did not answer in time (normally empty).
        """
        steps = self._collect([p for p in peers if p != self.name], timeout)
        return self._hand_over(lambda reply: self._drive(steps, reply))

    def _collect(self, peers: List[str], timeout: float):
        self._fold_codec_counters()
        if not peers or (self.tracer is None and self.metrics is None):
            return []
        self._trace_pending = set(peers)
        message = P.encode_control(P.MSG_TRACE_FLUSH, self.name)
        for peer in peers:
            self._pool.send(peer, message)
        yield _Wait(lambda: not self._trace_pending, timeout)
        missing, self._trace_pending = sorted(self._trace_pending), set()
        return missing

    def _fold_codec_counters(self) -> None:
        """Fold the wire codec's module-level fast-path tallies
        (``codec_compiled_hits``, ``codec_fallbacks``) into the registry
        right before a snapshot leaves the process: no hot-path callback."""
        if self.metrics is None:
            return
        for key, value in take_codec_counters().items():
            if value:
                self.metrics.counter(key).inc(value)

    def _ship_trace(self, reply_to: str) -> None:
        """Answer a flush request with our buffered events and metrics."""
        self._fold_codec_counters()
        events = self.tracer.dump() if self.tracer is not None else []
        snapshot = self.metrics.snapshot() if self.metrics is not None else {}
        self._pool.send(reply_to, P.encode_control(
            P.MSG_TRACE, self.name, events, snapshot))
        # The buffer now lives at the requester; avoid re-shipping the
        # same events if another flush arrives.
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.clear()

    def leaving(self) -> None:
        """From here on a peer's channel breaking or its process exiting
        is the cluster shutting down, not a failure (any thread)."""
        self._call(lambda: setattr(self, "_shutdown_requested", True))

    def shutdown(self) -> None:
        """:meth:`_stop` on the loop (a worker's ``MSG_SHUTDOWN`` ran it
        there already), wait for the loop to flush and stop, then close
        the loop and the rest."""
        loop = self._io_loop
        if loop.closed:
            return
        self._call(self._stop)
        loop.join(timeout=CLOSE_DEADLINE + 1.0)
        loop.close()
        # The loop closed the listener it adopted in start(); this
        # covers a kernel that was never started.
        self._listener.close()
        self._ns.close()

    def _stop(self) -> None:
        """The engine's stop, and then every control coroutine is let go
        with an error and every peer channel is flushed and closed; then
        the loop stops."""
        if self._closed:
            return
        self._shutdown_requested = True
        super()._stop()
        error = ScheduleError("kernel is shut down")
        waits, self._waits = self._waits, {}
        for steps, (_, done, _) in waits.items():
            self._drive(steps, done, error)  # its timer finds it gone
        self._pool.close_all()

    # ------------------------------------------------------------------
    # the loop substrate is ThreadedEngine's; a member change evicts
    # ------------------------------------------------------------------
    def admit(self, handle: ThreadHandle, item: Any) -> bool:
        """``_EVICT`` ends *handle* once everything queued ahead of it
        has run; any other item is the engine's to admit."""
        if item is _EVICT and not self._closed:
            self._workers.pop((id(handle.collection), handle.index), None)
            self._recheck()
            return False
        return super().admit(handle, item)

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
        self._pool.send(origin, P.encode_result(body.ctx_id, token))

    def scatter_total(self, body, total: int) -> None:
        origin = body.ctx_origin
        if origin is None or origin == self.name:
            super().scatter_total(body, total)
        else:
            self._pool.send(origin, P.encode_control(
                P.MSG_SCATTER_TOTAL, body.ctx_id, total))

    def _propagate_failure(self, exc: BaseException) -> None:
        message = P.encode_control(P.MSG_FAILURE, exc)
        for peer in self._peer_names:
            self._pool.send(peer, message)  # a gone peer: a counted drop

    def _on_peer_error(self, peer: str, exc: Exception) -> None:
        if self._shutdown_requested or peer in self._retired_peers:
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
        """Declare kernel *name* dead (idempotent; any thread).

        Without recovery the run fails fast with
        :class:`~repro.runtime.controller.KernelFailure`.  With recovery
        on, the console kernel orchestrates remap + replay; worker
        kernels forward the observation to the console.
        """
        def down() -> None:
            # A retiree has handed its state off already: a heartbeat
            # miss racing the retire must not trigger recovery.
            if name in self._dead_kernels or name in self._retired_peers:
                return
            self._dead_kernels.add(name)
            if self._shutdown_requested:
                return
            if self.tracer is not None:
                self.trace("kernel_down", kernel=name, reason=reason)
            if self.metrics is not None:
                self.metrics.counter("kernels_down").inc()
            if not self.recover:
                self._record_failure(KernelFailure(
                    f"kernel process {name!r} died unexpectedly ({reason})"),
                    propagate=propagate)
            elif self.name == CONSOLE_KERNEL:
                self._drive(self._recover_from_failure(name), self._fails(
                    f"recovery from dead kernel {name!r} failed"))
            else:
                self._pool.send(CONSOLE_KERNEL, P.encode_control(
                    P.MSG_KERNEL_DOWN, name, reason))

        self._call(down)

    def _recover_from_failure(self, dead: str):
        """Console side: remap the dead kernel's instances, then replay.

        Two cluster-wide barriers, strictly ordered: every survivor must
        have applied the remap before *any* journal replays, or a
        replayed token could be routed to the dead kernel by a survivor
        still holding the old placements and be lost forever.
        """
        survivors = [p for p in self._peer_names
                     if p != dead and p not in self._dead_kernels]
        self._recovery_epoch += 1
        epoch = self._recovery_epoch
        graphs = list(self._graphs.values())
        mapping = plan_remap(graphs, dead, survivors)
        apply_remap(graphs, mapping)
        if self.tracer is not None:
            self.trace("remap", dead=dead,
                       collections=sorted(mapping), epoch=epoch)
        yield from self._barrier("remap", epoch, survivors, P.encode_control(
            P.MSG_REMAP, epoch, mapping, dead))
        counts = yield from self._barrier(
            "replay", epoch, survivors, P.encode_control(P.MSG_REPLAY, epoch))
        replayed = sum(counts.values()) + self._replay_local()
        self._recovered = True
        self._replayed_tokens += replayed
        if self.tracer is not None:
            self.trace("replay", epoch=epoch, tokens=replayed)
        if self.metrics is not None:
            self.metrics.counter("tokens_replayed").inc(replayed)

    def _barrier(self, kind: str, epoch: int, peers: List[str], message,
                 timeout: float = 10.0):
        """Send *message* to *peers*, then wait for each one's
        ``MSG_REMAP_OK`` / ``MSG_REPLAY_DONE`` for *epoch*; returns the
        replay counts."""
        self._barrier_epoch = epoch
        self._barrier_pending = set(peers)
        self._replay_counts = {}
        for peer in peers:
            self._pool.send(peer, message)
        yield _Wait(lambda: not self._barrier_pending, timeout,
                    lambda: KernelFailure(
                        f"recovery {kind} barrier timed out waiting for "
                        f"{sorted(self._barrier_pending)} "
                        f"(cascading failure?)"))
        return dict(self._replay_counts)

    def _barrier_done(self, peer: str, epoch: int,
                      count: Optional[int] = None) -> None:
        if epoch != self._barrier_epoch:
            return
        if count is not None:
            self._replay_counts[peer] = count
        self._barrier_pending.discard(peer)
        self._recheck()

    def _apply_remote_remap(self, epoch: int, mapping: Dict[str, List[str]],
                            dead: str) -> None:
        self._dead_kernels.add(dead)
        apply_remap(self._graphs.values(), mapping)
        self._pool.send(CONSOLE_KERNEL, P.encode_control(
            P.MSG_REMAP_OK, self.name, epoch))

    def _replay_local(self) -> int:
        """Re-deliver every journaled (un-acked) emission; routing is
        recomputed from the post-remap placements in ``transmit``."""
        journal = self.scheduler.journal
        if journal is None:
            return 0
        envs = journal.replay_all(self.now())
        for env in envs:
            self.transmit(env)
        return len(envs)

    def recovery_snapshot(self) -> Tuple[bool, int]:
        """``(recovered, replayed_tokens)`` so far on this kernel."""
        return self._call(lambda: (self._recovered, self._replayed_tokens))

    # ------------------------------------------------------------------
    # elastic membership (voluntary join / retire)
    # ------------------------------------------------------------------
    def rebalance(self, joined: Iterable[str] = (),
                  retired: Iterable[str] = (),
                  depths: Optional[Dict[str, int]] = None,
                  timeout: float = 30.0) -> int:
        """Console side: admit *joined* kernels and/or drain *retired*.

        Quiesce-then-move: the run gate parks new activations until the
        active ones drain, then one **member barrier** — every kernel
        applies the minimal-move placements, ships the thread state of
        instances it loses to their new owners and answers once all it
        gains has arrived — and, on joins, a ~0-token replay barrier as
        the exactly-once backstop.  Returns the instances moved.
        """
        steps = self._rebalance(list(joined), list(retired), depths,
                                timeout)
        return self._hand_over(lambda reply: self._drive(steps, reply))

    def _rebalance(self, joined: Iterable[str] = (),
                   retired: Iterable[str] = (),
                   depths: Optional[Dict[str, int]] = None,
                   timeout: float = 30.0):
        t0 = time.monotonic()
        self._rebalancing = True
        try:
            yield _Wait(lambda: not self._active_runs, timeout, lambda:
                        KernelFailure(f"rebalance timed out waiting for "
                                      f"{self._active_runs} active "
                                      f"activation(s) to drain"))
            current = [p for p in self._peer_names
                       if p not in self._dead_kernels]
            self._recovery_epoch += 1
            epoch = self._recovery_epoch
            members = sorted((set(current) | set(joined)) - set(retired)
                             - {self.name})
            if not members:
                raise KernelFailure(
                    "rebalance would leave no execution kernels")
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
            yield from self._barrier(
                "member", epoch, barrier_peers,
                P.encode_control(P.MSG_MEMBER, epoch, old_map, new_map,
                                 list(joined), list(retired)),
                timeout=timeout)
            apply_remap(graphs, mapping)
            self._peer_names = list(members)
            self._retired_peers.update(retired)
            if joined:
                # Exactly-once backstop for the join path; quiesced
                # journals make this a ~0-token barrier.
                counts = yield from self._barrier(
                    "replay", epoch, members,
                    P.encode_control(P.MSG_REPLAY, epoch))
                self._replayed_tokens += sum(counts.values()) \
                    + self._replay_local()
            seconds = time.monotonic() - t0
            self._rebalances += 1
            self._tokens_moved += moved
            self._rebalance_seconds += seconds
            if self.metrics is not None:
                self.metrics.counter("rebalances").inc()
                self.metrics.counter("tokens_moved").inc(moved)
                self.metrics.histogram("rebalance_seconds").observe(seconds)
            return moved
        finally:
            self._rebalancing = False
            parked, self._parked = self._parked, deque()
            for start in parked:
                start()

    def _apply_membership(self, epoch: int, old_map: Dict[str, List[str]],
                          new_map: Dict[str, List[str]], joined: List[str],
                          retired: List[str]):
        """Worker side of the member barrier.

        The cluster is quiesced: once the journal drains, losses and
        gains come from the *shipped* maps (a CLI joiner's graphs may be
        stale); a lost instance is shipped once what is queued for it
        has run, and the barrier is answered once every gain arrived.
        """
        journal = self.scheduler.journal
        if journal is not None:
            yield _Wait(lambda: not len(journal), 5.0)
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
        self._retired_peers.update(retired)
        self._peer_names = sorted((set(self._peer_names) | set(joined))
                                  - set(retired) - {self.name})
        handles = {}
        for name, index, _ in losses:
            handle = self._workers.get((id(colls.get(name)), index))
            if handle is not None:
                self.enqueue(handle, _EVICT)
                handles[name, index] = handle

        def staying() -> List[str]:
            return [f"{name}[{index}]" for (name, index), handle
                    in handles.items() if self._workers.get(
                        (id(handle.collection), handle.index)) is handle]

        yield _Wait(lambda: not staying(), 10.0, lambda: KernelFailure(
            f"kernel {self.name!r} could not hand off {staying()}: what "
            f"is queued for them did not run within 10s"))
        for name, index, target in losses:
            handle = handles.get((name, index))
            self._pool.send(target, P.encode_control(
                P.MSG_THREAD_STATE, name, index, epoch,
                handle.thread if handle is not None else None))
        apply_remap(self._graphs.values(), new_map)

        def missing() -> List[Tuple[str, int]]:
            return sorted(key for key in gains
                          if self._incoming_states.get(key, (-1,))[0] < epoch)

        yield _Wait(lambda: not missing(), 20.0, lambda: KernelFailure(
            f"kernel {self.name!r} never received migrated state for "
            f"{missing()} (donor died mid-rebalance?)"))
        for name, index in gains:
            _, thread = self._incoming_states.pop((name, index))
            coll = colls.get(name)
            if coll is not None:
                self._adopt_thread(coll, index, thread)
        if self.tracer is not None:
            self.trace("member", epoch=epoch, lost=len(losses),
                       gained=len(gains))
        if self.metrics is not None and losses:
            self.metrics.counter("tokens_moved").inc(len(losses))
        self._pool.send(CONSOLE_KERNEL, P.encode_control(
            P.MSG_REMAP_OK, self.name, epoch))

    def rebalance_snapshot(self) -> Tuple[int, int, float]:
        """``(rebalances, tokens_moved, rebalance_seconds)`` so far."""
        return self._call(lambda: (self._rebalances, self._tokens_moved,
                                   self._rebalance_seconds))

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
        if exc is None or self._shutdown_requested:
            return
        if self.recover:
            # A broken inbound connection is anonymous (no peer name
            # here); liveness is owned by the beat/sentinel
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
            # Injection applies to data frames only — dropping acks or
            # barrier messages would test the injector, not the recovery
            # protocol.
            if rng is not None and rng.random() < self.faults.drop_rate:
                if self.metrics is not None:
                    self.metrics.counter("frames_dropped_injected").inc()
                return
            env: DataEnvelope = value
            node = env.graph.node(env.node_id)
            self.enqueue(self._worker_for(node.collection, env.instance), env)
        elif kind == P.MSG_ACK:
            self.scheduler.apply_ack(*value)
        elif kind == P.MSG_GROUP_TOTAL:
            group_id, total = value
            self.scheduler.apply_group_total(group_id, total)
        elif kind in (P.MSG_RESULT, P.MSG_SCATTER_TOTAL):
            # A caller that gave up (timeout, failure) has left no
            # queue; its late arrivals are dropped, not an error here.
            self._result_arrived(*value, late_ok=True)
        elif kind == P.MSG_FAILURE:
            self._record_failure(*value, propagate=False)
        elif kind == P.MSG_TRACE_FLUSH:
            self._ship_trace(*value)
        elif kind == P.MSG_TRACE:
            kernel_name, events, snapshot = value
            if self.tracer is not None and events:
                self.tracer.merge(events, pid=kernel_name)
            if self.metrics is not None and snapshot:
                self.metrics.merge(snapshot)
            self._trace_pending.discard(kernel_name)
            self._recheck()
        elif kind == P.MSG_KERNEL_DOWN:
            name, reason = value
            self.handle_kernel_down(name, reason)
        elif kind == P.MSG_REMAP:
            epoch, mapping, dead = value
            self._apply_remote_remap(epoch, mapping, dead)
        elif kind == P.MSG_REPLAY:
            (epoch,) = value
            count = self._replay_local()
            self._pool.send(CONSOLE_KERNEL, P.encode_control(
                P.MSG_REPLAY_DONE, self.name, epoch, count))
        elif kind == P.MSG_REPLAY_DONE:
            name, epoch, count = value
            self._barrier_done(name, epoch, count)
        elif kind == P.MSG_REMAP_OK:
            name, epoch = value
            self._barrier_done(name, epoch)
        elif kind == P.MSG_MEMBER:
            self._drive(self._apply_membership(*value), self._fails(
                f"membership change failed on {self.name!r}"))
        elif kind == P.MSG_THREAD_STATE:
            cname, index, epoch, thread = value
            self._incoming_states[(cname, index)] = (epoch, thread)
            self._recheck()
        elif kind == P.MSG_SHUTDOWN:
            self._stop()
        elif kind == P.MSG_BEAT:
            name, load = value
            self._loads[name] = load
            self._beaten.add(name)
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
    ``MSG_SHUTDOWN`` has flushed and closed every peer channel.  *ready*,
    the write end of a pipe, gets one message once the kernel has
    registered and is closed; end-of-file without it tells the parent
    the kernel exited first.  With
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
        ready.send_bytes(b"ready")
        ready.close()
    try:
        kernel._io_loop.run()
    finally:
        kernel.shutdown()

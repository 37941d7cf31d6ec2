"""In-process execution engine: the scheduler core on one I/O loop.

:class:`ThreadedEngine` runs the same operation/graph/routing code as the
simulated engine, in real time.  Each DPS thread it hosts is a
:class:`~repro.runtime.scheduler.ThreadHandle` stepped by
``Scheduler.step`` on one :class:`~repro.net.eventloop.IOLoop`, turned on
a ``dps-io:`` thread: as the paper's Controller sequences a node's DPS
threads, tokens queue at a thread and an operation runs as its data
arrives.  A multiprocess kernel (:mod:`repro.net.kernel`) is this engine
with a TCP transport.  "Nodes" are logical placement labels.  Tokens
moving between threads placed on *different* logical nodes are
serialized and deserialized through the real wire format, enforcing that
applications stay serializable (the same reason the paper runs multiple
kernels on one host "for debugging purposes ... it enforces the use of
the networking code").

Every table has one owner, the loop; a caller on another thread hands
over with ``IOLoop.call`` and waits on a ``queue.SimpleQueue``
(``_hand_over``).  A body waits only through the requests it yields —
a stalled post, ``sleep``, ``call_graph``, ``call_scatter``.  Anything
else it waits for (a blocking call, a long computation) holds the loop,
and with it every other DPS thread of the engine and the timer of a
run's timeout.
"""

from __future__ import annotations

import queue
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.ops import (
    CallGraphRequest,
    ChargeRequest,
    PostRequest,
    ScatterCallRequest,
    SleepRequest,
)
from ..core.routing import RoutingPolicy
from ..core.threads import DpsThread, ThreadCollection
from ..net.eventloop import IOLoop
from ..serial.token import Token
from ..serial.wire import decode, encode_segments, gather
from .base import DataEnvelope, Engine, RunResult, ScheduleError
from .scheduler import Scheduler, ThreadHandle

__all__ = ["ThreadedEngine"]


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


class ThreadedEngine(Engine):
    """Execute DPS schedules on one I/O loop, in real time.

    Only the loop thread reads or writes the engine's state; the public
    methods may be called from any other thread and hand over.
    """

    def __init__(self, policy: Optional[FlowControlPolicy] = None,
                 tracer: Optional[Any] = None,
                 metrics: Optional[Any] = None,
                 routing: Optional[RoutingPolicy] = None,
                 stream: Optional[StreamPolicy] = None):
        super().__init__(policy=policy, tracer=tracer, metrics=metrics,
                         stream=stream)
        #: Engine-wide routing policy: ``queue_depth`` substitutes the
        #: adaptive :class:`~repro.core.routing.QueueDepthRoute` for
        #: declared round-robin/load-balanced routing sites.
        self.routing = routing if routing is not None else RoutingPolicy()
        self.scheduler = Scheduler(self, self)
        self._workers: Dict[Tuple[int, int], ThreadHandle] = {}
        #: Node of the handle being stepped, the source of what it
        #: transmits; ``None`` while a caller's activation starts.
        self._here: Optional[str] = None
        self._group_counter = 0
        self._ctx_counter = 0
        #: ctx_id -> callable taking what the activation hands its caller:
        #: the result token of a graph call; every output token, then the
        #: group total, of a scatter call; an exception if the engine
        #: fails.
        self._results: Dict[int, Callable[[Any], None]] = {}
        self._failure: Optional[BaseException] = None
        self._closed = False
        #: Kernel name stamped on activations this engine starts; ``None``
        #: keeps results local (the multiprocess kernel overrides it).
        self._origin_name: Optional[str] = None
        self._io_loop = self._new_loop()

    def _new_loop(self) -> IOLoop:
        return IOLoop("threaded", metrics=self.metrics).start()

    # ------------------------------------------------------------------
    # lifecycle (registration comes from the shared Engine base)
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Let go of whoever still waits, then stop and close the loop
        (idempotent)."""
        loop = self._io_loop
        if loop.closed:
            return
        self._call(self._stop)
        loop.close()

    def _stop(self) -> None:
        """No body starts or resumes from here on, and whoever still
        waits is let go with an error."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.release_stalled()
        error = ScheduleError("engine is shut down")
        for on_result in list(self._results.values()):
            on_result(error)

    # ------------------------------------------------------------------
    # the loop's own: off-loop callers hand over
    # ------------------------------------------------------------------
    def _hand_over(self, start: Callable[[Callable], None]) -> Any:
        """Run ``start(reply)`` on the loop and wait for the one value it
        replies, then or from a later callback; an exception raised or
        replied is raised here.  With no other thread turning the loop,
        *start* runs at once and must reply at once."""
        reply: "queue.SimpleQueue" = queue.SimpleQueue()

        def step() -> None:
            try:
                start(reply.put)
            except Exception as exc:
                reply.put(exc)

        loop = self._io_loop
        if loop.running and not loop.on_loop_thread():
            loop.call(step)
        else:
            step()
            if reply.empty():
                raise ScheduleError("a kernel's loop cannot wait on itself")
        outcome = reply.get()
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def _call(self, fn: Callable[[], Any]) -> Any:
        """What *fn* returns, run on the loop (any thread)."""
        return self._hand_over(lambda reply: reply((fn(),)))[0]

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _activate(self, graph: Flowgraph, token: Token,
                  on_result: Callable[[Any], None]) -> int:
        """Register an activation and send its input token to the entry."""
        self._ctx_counter += 1
        ctx_id = self._ctx_counter
        self._results[ctx_id] = on_result
        instance = self.scheduler.entry_route(graph)(token)
        if self.tracer is not None:
            self.trace("activation_start", graph=graph.name,
                       driver=graph.node(graph.entry).collection
                       .node_of(instance))
        self.transmit(DataEnvelope(token, graph, graph.entry, instance,
                                   ctx_id, (), ctx_origin=self._origin_name))
        return ctx_id

    def run(self, graph: Union[Flowgraph, str], token: Token,
            timeout: float = 60.0) -> Token:
        """Run one activation to completion; returns the result token."""
        graph = self._resolve_entry(graph, token)
        failure = self._failure
        if failure is not None:
            # A body (or remote kernel) already failed; every subsequent
            # activation would wait out its timeout — fail fast instead.
            raise ScheduleError(
                "engine has failed; shut it down and create a new one"
            ) from failure
        started_at = time.monotonic()
        outcome = self._hand_over(
            lambda reply: self._start_run(graph, token, timeout, reply))
        self.last_result = RunResult(outcome, started_at, time.monotonic())
        return outcome

    def _start_run(self, graph: Flowgraph, token: Token, timeout: float,
                   finish: Callable[[Any], None]) -> None:
        """Start a caller's activation on the loop.  *finish* gets the
        first of its result, the engine's failure and a timeout, once."""
        if self._failure is not None or self._closed:
            error = ScheduleError("engine has failed or is shut down; "
                                  "create a new one")
            error.__cause__ = self._failure
            finish(error)
            return
        ctx_id = None

        def settle(outcome: Any) -> None:
            if ctx_id not in self._results:
                return  # settled already
            timer.cancel()
            self._retire(ctx_id)
            finish(outcome)

        timer = self._io_loop.call_later(timeout, lambda: settle(
            ScheduleError(f"graph {graph.name!r} did not complete within "
                          f"{timeout}s; likely a routing bug or "
                          f"flow-control deadlock")))
        self._here = None  # a caller's token comes from no node
        try:
            ctx_id = self._activate(graph, token, settle)
        except Exception as exc:
            timer.cancel()
            finish(exc)

    def _result_arrived(self, ctx_id: int, item: Any,
                        late_ok: bool = False) -> None:
        """Hand a result token, scatter output or scatter total to the
        activation's waiting caller."""
        on_result = self._results.get(ctx_id)
        if on_result is not None:
            on_result(item)
        elif not late_ok:
            raise ScheduleError(f"result for unknown activation {ctx_id}")

    def _record_failure(self, exc: BaseException,
                        propagate: bool = True) -> None:
        if self._failure is None:
            self._failure = exc
        # A body parked on an admit gate would wait for an ack the
        # failed run may never send: let it go (see wait).
        self.scheduler.release_stalled()
        for on_result in list(self._results.values()):
            on_result(exc)
        if propagate:
            self._propagate_failure(exc)

    def _propagate_failure(self, exc: BaseException) -> None:
        """Hook: forward a local failure to remote kernels (no-op here)."""

    # ------------------------------------------------------------------
    # thread instances
    # ------------------------------------------------------------------
    def _worker_for(self, collection: ThreadCollection,
                    index: int) -> ThreadHandle:
        key = (id(collection), index)
        worker = self._workers.get(key)
        if worker is None:
            worker = self._workers[key] = self._new_worker(collection, index)
        return worker

    def _new_worker(self, collection: ThreadCollection, index: int,
                    thread: Optional[DpsThread] = None) -> ThreadHandle:
        handle = ThreadHandle(collection, index, collection.node_of(index),
                              thread)
        self.scheduler.start(handle)
        return handle

    def thread(self, collection: ThreadCollection,
               index: int) -> Optional[DpsThread]:
        """The thread object of instance *index*, if it ever ran here."""
        worker = self._workers.get((id(collection), index))
        return worker.thread if worker is not None else None

    def _adopt_thread(self, collection: ThreadCollection, index: int,
                      thread: Optional[DpsThread]) -> None:
        """Install a migrated thread object as instance *index*.

        ``None`` means the donor never activated the instance; the worker
        is then created lazily with fresh state on first delivery, as
        usual.
        """
        if thread is None:
            return
        thread.node_name = collection.node_of(index)
        key = (id(collection), index)
        if key in self._workers:
            raise ScheduleError(
                f"instance {collection.name}[{index}] is already "
                f"hosted here; cannot adopt migrated state")
        self._workers[key] = self._new_worker(collection, index, thread)

    # ------------------------------------------------------------------
    # the loop substrate (see repro.runtime.scheduler): ``soon`` is an
    # ``IOLoop.call``, and ``wait`` arms the loop callback that resumes a
    # body.  The distributed kernel overrides the transport hooks —
    # transmit, send_ack, send_group_total, deliver_result,
    # scatter_total — and admit.
    # ------------------------------------------------------------------
    now = staticmethod(time.monotonic)
    new_gate = _Gate

    def next_group_id(self) -> int:
        self._group_counter += 1
        return self._group_counter

    def open_gate(self, gate: _Gate) -> None:
        # From a call of its own: the opening ack is mid-apply_ack.
        self._io_loop.call(gate.open)

    def enqueue(self, handle: ThreadHandle, item: Any) -> None:
        self.scheduler.post(handle, item)

    def soon(self, fn: Callable[..., None], *args: Any) -> None:
        self._io_loop.call(lambda: fn(*args))

    def admit(self, handle: ThreadHandle, item: Any) -> bool:
        """May *item* start on *handle*?  Nothing starts once the engine
        is shut down."""
        self._here = handle.node_name
        return not self._closed

    def wait(self, handle: ThreadHandle, body, step) -> bool:
        """Arm the loop callback that resumes *handle* after *step*: the
        gate's waiter, a ``call_later`` timer, a nested activation's
        result.  ``True``: go on at once."""
        if isinstance(step, ChargeRequest):
            return True  # virtual cost, meaningless on real threads
        resume = lambda value=None: self._resume(handle, value)
        if isinstance(step, _Gate):
            if self._failure is not None or self._closed:
                # released, not admitted: no ack is coming
                handle.steps = None
                return False
            if step.opened:
                return True
            step.waiter = resume
        elif isinstance(step, SleepRequest):
            self._io_loop.call_later(step.seconds, resume)
        elif isinstance(step, CallGraphRequest):
            self._call_graph(step, resume)
        else:
            self._call_scatter(step, body, resume)
        return False

    def _resume(self, handle: ThreadHandle, outcome: Any) -> None:
        """Continue *handle*'s parked item with *outcome*.  A body parked
        when the engine failed or shut down is dropped."""
        if self._failure is not None or self._closed:
            handle.steps = None
        else:
            self._here = handle.node_name
            self.scheduler.step(handle, outcome)

    def body_failed(self, exc: BaseException) -> None:
        self._record_failure(exc)

    def _on_loop(self, fn: Callable[[Any], None]) -> Callable[[Any], None]:
        """A result callback that runs *fn* from a loop call of its own:
        a local result lands in the middle of another handle's step."""
        return lambda item: self._io_loop.call(lambda: fn(item))

    def _retire(self, ctx_id: int, **fields: Any) -> None:
        """Forget an activation: what it still hands back (a duplicate
        queued behind its last item) is dropped."""
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
                self._here = body.thread.node_name
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

    def transmit(self, env: DataEnvelope) -> None:
        node = env.graph.node(env.node_id)
        worker = self._worker_for(node.collection, env.instance)
        src = self._here
        if worker.node_name != src:
            # Tokens crossing logical node boundaries always take the
            # wire format, as the DPS debugging kernels do ("enforces
            # the use of the networking code").  Single-buffer round
            # trip: scatter-gather encode into one owned buffer and let
            # the receiving thread borrow payloads from it (the buffer
            # is owned solely by the decoded token, so no defensive copy
            # is needed).
            observed = self.tracer is not None or self.metrics is not None
            t0 = time.monotonic() if observed else 0.0
            wire = gather(encode_segments(env.token))
            env.token = decode(wire, copy=False)
            if observed:
                seconds = time.monotonic() - t0
                if self.tracer is not None:
                    self.trace("serialize", node=src or "driver",
                               seconds=seconds, nbytes=len(wire))
                    self.trace("token_send", src=src or "driver",
                               dest=worker.node_name, nbytes=len(wire))
                if self.metrics is not None:
                    self.metrics.counter("wire_messages").inc()
                    self.metrics.counter("wire_bytes").inc(len(wire))
                    self.metrics.histogram("serialize_seconds").observe(seconds)
            env.wire_nbytes = None
        self.enqueue(worker, env)

    def send_ack(self, graph_name: str, frame) -> None:
        self.scheduler.apply_ack(graph_name, frame.opener,
                                 frame.opener_instance, frame.routed_instance,
                                 frame.group_id, frame.index)

    def send_group_total(self, graph: Flowgraph, merge_id: int,
                         group_id: int, total: int) -> None:
        self.scheduler.apply_group_total(group_id, total)

    def deliver_result(self, body, token: Token, frame,
                       needs_ack: bool) -> None:
        """Hand an exit token to the activation's caller."""
        if needs_ack:
            # The caller consumes scatter outputs as they arrive; return
            # the upstream window's credit at the exit.
            self.send_ack(body.graph.name, frame)
        self._result_arrived(body.ctx_id, token)

    def scatter_total(self, body, total: int) -> None:
        self._result_arrived(body.ctx_id, total)

    def queue_depth(self, collection: Optional[ThreadCollection] = None,
                    index: int = 0) -> int:
        """Inbox depth of one locally hosted instance (never-activated
        ones count as empty), or of all of them without arguments."""
        if collection is None:
            return sum(len(w.inbox) for w in self._workers.values())
        worker = self._workers.get((id(collection), index))
        return len(worker.inbox) if worker is not None else 0

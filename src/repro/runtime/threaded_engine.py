"""Real-thread execution engine.

:class:`ThreadedEngine` runs the same operation/graph/routing code as the
simulated engine, but on actual OS threads with blocking queues — each DPS
thread is mapped to one ``threading.Thread``, exactly as the C++ library
maps DPS threads to operating-system threads.  There is no virtual time
and no cluster model; "nodes" are logical placement labels.  Tokens moving
between threads placed on *different* logical nodes are serialized and
deserialized through the real wire format, enforcing that applications
stay serializable (the same reason the paper runs multiple kernels on one
host "for debugging purposes ... it enforces the use of the networking
code").

Use this engine for functional validation and interactive examples; use
:class:`~repro.runtime.sim_engine.SimEngine` for performance studies.
CPython's GIL limits true compute parallelism here, which is exactly why
the performance reproduction lives on the simulated engine (see
DESIGN.md §2).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.ops import (
    CallGraphRequest,
    PostRequest,
    ScatterCallRequest,
    SleepRequest,
)
from ..core.routing import RoutingPolicy
from ..core.threads import DpsThread, ThreadCollection
from ..serial.token import Token
from ..serial.wire import decode, encode_segments, gather
from .base import DataEnvelope, Engine, RunResult, ScheduleError
from .scheduler import Scheduler

__all__ = ["ThreadedEngine"]

_STOP = object()


class _Released(BaseException):
    """Unwinds a worker whose stalled post was released, not admitted:
    the engine failed or shut down and the body is abandoned."""


class _ThreadWorker:
    """One DPS thread: an OS thread draining an envelope queue."""

    def __init__(self, engine: "ThreadedEngine", collection: ThreadCollection,
                 index: int, thread: Optional[DpsThread] = None):
        self.engine = engine
        self.collection = collection
        self.index = index
        # An adopted thread object (live state migrated from another
        # kernel) replaces the freshly constructed one.
        self.thread = (thread if thread is not None
                       else collection.make_thread(index))
        #: Placement label, fixed for the worker's life (migration evicts
        #: the worker and adopts the thread object into a new one).
        self.node_name = collection.node_of(index)
        self.inbox: "queue.SimpleQueue" = queue.SimpleQueue()
        self.os_thread = threading.Thread(
            target=self._loop,
            name=f"dps:{collection.name}[{index}]",
            daemon=True,
        )
        self.os_thread.start()

    def _loop(self) -> None:
        engine = self.engine
        scheduler = engine.scheduler
        engine._here.node_name = self.node_name
        while True:
            item = self.inbox.get()
            if item is _STOP:
                return
            try:
                steps = scheduler.handle(self, item)
                outcome = None
                while True:
                    try:
                        body, step = steps.send(outcome)
                    except StopIteration:
                        break
                    outcome = engine.perform(body, step)
            except _Released:
                return
            except BaseException as exc:  # surface to the caller of run()
                engine._record_failure(exc)
                return
            # An idle worker must not keep its last token: arrays decoded
            # in place hold a block of the sender's shm arena.
            item = steps = body = step = outcome = None

    def depth(self) -> int:
        return self.inbox.qsize()


class ThreadedEngine(Engine):
    """Execute DPS schedules on real OS threads with blocking queues.

    The scheduler substrate for OS threads: steps that must wait block
    the worker's OS thread, and an ``RLock`` guards the scheduler's
    tables against the other workers.
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
        #: Guards the scheduler's tables and the engine's own.
        self.lock = threading.RLock()
        self.scheduler = Scheduler(self, self)
        self._workers: Dict[Tuple[int, int], _ThreadWorker] = {}
        #: ``node_name`` of the DPS worker running on the current OS
        #: thread (unset on every other thread).
        self._here = threading.local()
        self._group_counter = 0
        self._ctx_counter = 0
        #: ctx_id -> callable taking what the activation hands its caller:
        #: the result token of a graph call; every output token, then the
        #: group total, of a scatter call; an exception if the engine
        #: fails.  For a caller blocked on a queue it is ``queue.put``.
        self._results: Dict[int, Callable[[Any], None]] = {}
        self._failure: Optional[BaseException] = None
        self._closed = False
        #: Kernel name stamped on activations this engine starts; ``None``
        #: keeps results local (the multiprocess kernel overrides it).
        self._origin_name: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle (registration comes from the shared Engine base)
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop all worker threads (idempotent)."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        self.scheduler.release_stalled()
        for w in workers:
            w.inbox.put(_STOP)
        for w in workers:
            w.os_thread.join(timeout=5)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _activate(self, graph: Flowgraph, token: Token,
                  on_result: Callable[[Any], None]) -> int:
        """Register an activation and send its input token to the entry."""
        with self.lock:
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
            # A worker (or remote kernel) already died; every subsequent
            # activation would hang on its queue — fail fast instead.
            raise ScheduleError(
                "engine has failed; shut it down and create a new one"
            ) from failure
        result_q: "queue.SimpleQueue" = queue.SimpleQueue()
        started_at = time.monotonic()
        ctx_id = self._activate(graph, token, result_q.put)
        try:
            outcome = result_q.get(timeout=timeout)
        except queue.Empty:
            failure = self._failure
            if failure is not None:
                raise failure
            raise ScheduleError(
                f"graph {graph.name!r} did not complete within {timeout}s; "
                f"likely a routing bug or flow-control deadlock"
            ) from None
        finally:
            with self.lock:
                self._results.pop(ctx_id, None)
        if isinstance(outcome, BaseException):
            raise outcome
        if self.tracer is not None:
            self.trace("activation_done", ctx=ctx_id)
        self.last_result = RunResult(outcome, started_at, time.monotonic())
        return outcome

    def _run_scatter(self, request: ScatterCallRequest, body) -> int:
        """Run a remote scatter graph; its outputs become *body*'s posts."""
        graph = self.graph(request.graph_name)
        if not graph.scatter:
            raise ScheduleError(
                f"graph {request.graph_name!r} is not a scatter graph"
            )
        arrivals: "queue.SimpleQueue" = queue.SimpleQueue()
        ctx_id = self._activate(graph, request.token, arrivals.put)
        delivered, total = 0, None
        try:
            while total is None or delivered < total:
                item = arrivals.get(timeout=60)
                if isinstance(item, BaseException):
                    raise item
                if isinstance(item, Token):
                    self.scheduler.emit(body, PostRequest(item))
                    delivered += 1
                else:
                    total = item
        except queue.Empty:
            raise ScheduleError(
                f"scatter call {request.graph_name!r} did not complete"
            ) from None
        finally:
            with self.lock:
                self._results.pop(ctx_id, None)
        if self.tracer is not None:
            self.trace("activation_done", ctx=ctx_id, scatter=True)
        return total

    def _result_arrived(self, ctx_id: int, item: Any,
                        late_ok: bool = False) -> None:
        """Hand a result token, scatter output or scatter total to the
        activation's waiting caller."""
        with self.lock:
            on_result = self._results.get(ctx_id)
        if on_result is not None:
            on_result(item)
        elif not late_ok:
            raise ScheduleError(f"result for unknown activation {ctx_id}")

    def _record_failure(self, exc: BaseException,
                        propagate: bool = True) -> None:
        with self.lock:
            if self._failure is None:
                self._failure = exc
            callers = list(self._results.values())
        # A worker parked on an admit gate would wait for an ack the
        # failed run may never send: let it go (see perform).
        self.scheduler.release_stalled()
        for on_result in callers:
            on_result(exc)
        if propagate:
            self._propagate_failure(exc)

    def _propagate_failure(self, exc: BaseException) -> None:
        """Hook: forward a local failure to remote kernels (no-op here)."""

    # ------------------------------------------------------------------
    # thread instances
    # ------------------------------------------------------------------
    def _worker_for(self, collection: ThreadCollection, index: int) -> _ThreadWorker:
        with self.lock:
            key = (id(collection), index)
            worker = self._workers.get(key)
            if worker is None:
                worker = self._workers[key] = self._new_worker(collection,
                                                               index)
            return worker

    def _new_worker(self, collection: ThreadCollection, index: int,
                    thread: Optional[DpsThread] = None) -> _ThreadWorker:
        """A handle for hosted instance *index* (the substrate's kind)."""
        return _ThreadWorker(self, collection, index, thread)

    def thread(self, collection: ThreadCollection,
               index: int) -> Optional[DpsThread]:
        """The thread object of instance *index*, if it ever ran here."""
        with self.lock:
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
        with self.lock:
            key = (id(collection), index)
            if key in self._workers:
                raise ScheduleError(
                    f"instance {collection.name}[{index}] is already "
                    f"hosted here; cannot adopt migrated state")
            self._workers[key] = self._new_worker(collection, index, thread)

    # ------------------------------------------------------------------
    # scheduler substrate (see repro.runtime.scheduler); the distributed
    # kernel overrides the transport hooks — transmit, send_ack,
    # send_group_total, deliver_result, scatter_total
    # ------------------------------------------------------------------
    now = staticmethod(time.monotonic)
    #: the admit gate of a stalled post is a plain event
    new_gate = staticmethod(threading.Event)
    open_gate = staticmethod(threading.Event.set)

    def next_group_id(self) -> int:
        with self.lock:
            self._group_counter += 1
            return self._group_counter

    def enqueue(self, worker: _ThreadWorker, item: Any) -> None:
        worker.inbox.put(item)

    def perform(self, body, step) -> Any:
        """Wait out one scheduler step by blocking the worker thread."""
        if isinstance(step, threading.Event):
            # The admit gate of a stalled post.  _failure / _closed are
            # set before release_stalled opens the gates, so a post that
            # stalls on either side of that release sees one of the two.
            if self._failure is None and not self._closed:
                step.wait()
            if self._failure is not None or self._closed:
                raise _Released
        elif isinstance(step, SleepRequest):
            time.sleep(step.seconds)  # pacing delay: real wall-clock wait
        elif isinstance(step, CallGraphRequest):
            return self.run(step.graph_name, step.token)
        elif isinstance(step, ScatterCallRequest):
            return self._run_scatter(step, body)
        # ChargeRequest: virtual cost, meaningless on real threads
        return None

    def transmit(self, env: DataEnvelope) -> None:
        node = env.graph.node(env.node_id)
        worker = self._worker_for(node.collection, env.instance)
        src = getattr(self._here, "node_name", None)
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
        worker.inbox.put(env)

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
        with self.lock:
            if collection is None:
                return sum(w.depth() for w in self._workers.values())
            worker = self._workers.get((id(collection), index))
        return worker.depth() if worker is not None else 0

"""The resident service runtime: a DPS cluster that serves graph calls.

:class:`ServiceEngine` is the serving mode of
:class:`~repro.runtime.multiprocess_engine.MultiprocessEngine`: the
kernel cluster boots once, every exposed graph is published as a
*service record* (name + token-type signature) in the TCP name server,
and the console kernel then stays resident, accepting ``MSG_SVC_*``
graph calls from many concurrent external client processes instead of
running one job to completion.

The console-side protocol, implemented by :class:`ServiceKernel`:

1. A client registers its own listener in the name server and sends
   ``MSG_SVC_OPEN``; the console creates a *session* — an id plus a
   per-client :class:`~repro.core.flowcontrol.SplitWindow` bounding the
   client's in-flight calls — and answers ``MSG_SVC_OPEN_OK`` with the
   granted window.
2. Each ``MSG_SVC_CALL`` carries ``(client, request id, service name,
   token)``.  Request ids correlate replies out of order.  Admission
   runs *dedup first*: a resend of an already-admitted id (the client's
   lost-frame recovery) is dropped silently, never re-executed and
   never falsely shed.  Fresh requests are then shed with
   ``MSG_SVC_BUSY`` when the console is draining, the session window is
   full, or the bounded queue is at capacity — a shed burns the id, so
   busy retries arrive under a new one.
3. An admitted call is started as an activation on the console's I/O
   loop — at most ``max_concurrent`` in flight, later ones waiting in
   admission order — through the run gate and start path of
   ``DistributedKernel.run`` (so the fault-tolerance machinery —
   heartbeats, remap, split-boundary replay — applies to service
   traffic unchanged).  Its result callback answers ``MSG_SVC_REPLY``
   on success or ``MSG_SVC_ERROR`` with the pickled exception on
   failure or timeout.
4. ``drain_and_shutdown`` unpublishes the records, stops admitting
   (``draining`` sheds), waits for in-flight calls to finish, then
   tears the cluster down.

Sessions, admission and the counters are the console loop's alone, like
the rest of a kernel's state: the message plane runs on the loop, and
``expose_service``, ``svc_drain`` and ``svc_stats`` hand over to it.

Everything is observable: ``svc_calls`` / ``svc_shed`` /
``svc_duplicates`` counters, ``svc_sessions`` / ``svc_queue_depth`` /
``svc_inflight`` gauges and per-service ``svc_latency_seconds:<name>``
histograms land in the shared metrics registry; ``svc_call`` /
``svc_reply`` / ``svc_shed`` / ``svc_close`` events land in the trace
timeline.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.flowcontrol import SplitWindow
from ..core.graph import Flowgraph
from ..net import protocol as P
from ..net.kernel import CONSOLE_KERNEL, DistributedKernel, _Wait
from ..net.recovery import ReplayDedup
from ..runtime.controller import ScheduleError
from ..runtime.multiprocess_engine import MultiprocessEngine
from .admission import AdmissionPolicy
from .records import graph_signature

__all__ = ["ServiceEngine", "ServiceKernel"]


class _Session:
    """One client's session: id plus its in-flight window."""

    __slots__ = ("client", "session_id", "granted", "window")

    def __init__(self, client: str, session_id: int, granted: int):
        self.client = client
        self.session_id = session_id
        self.granted = granted
        # SplitWindow semantics at the session boundary: instance 0 is
        # the only "destination", in_flight is the client's open calls.
        self.window = SplitWindow(granted)


class ServiceKernel(DistributedKernel):
    """A console kernel that accepts service sessions and graph calls."""

    def __init__(self, *args, admission: Optional[AdmissionPolicy] = None,
                 call_timeout: float = 60.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.admission = admission if admission is not None \
            else AdmissionPolicy()
        self.call_timeout = call_timeout
        self._svc_graphs: Dict[str, Flowgraph] = {}
        self._sessions: Dict[str, _Session] = {}
        self._session_counter = 0
        #: Exactly-once admission keyed by (client, session, request id):
        #: the same machinery the data plane uses for replay dedup.
        self._svc_dedup = ReplayDedup()
        #: admitted calls not started yet, in admission order (loop thread)
        self._svc_waiting: Deque[tuple] = deque()
        #: activations in flight, at most ``admission.max_concurrent``
        self._svc_running = 0
        #: admitted and not yet answered: waiting + running
        self._svc_outstanding = 0
        self._svc_draining = False

    # ------------------------------------------------------------------
    # publication / lifecycle
    # ------------------------------------------------------------------
    def expose_service(self, public_name: str, graph: Flowgraph) -> None:
        """Publish *graph* as *public_name* in the directory the
        console's loop hosts, from that loop."""
        in_types, out_types = graph_signature(graph)

        def expose() -> None:
            self._svc_graphs[public_name] = graph
            self._ns.register_service(public_name, self.name,
                                      in_types, out_types)

        self._call(expose)

    def svc_drain(self, timeout: float = 30.0) -> bool:
        """Stop admitting, let in-flight calls finish; True when empty
        (*timeout* is on the kernel's clock)."""
        def drain() -> None:
            self._svc_draining = True
            for name in self._svc_graphs:
                self._ns.unregister_service(name)

        self._call(drain)
        steps = self._svc_drained(timeout)
        return self._hand_over(lambda reply: self._drive(steps, reply))

    def _svc_drained(self, timeout: float):
        yield _Wait(lambda: not self._svc_outstanding, timeout)
        return not self._svc_outstanding

    def svc_stats(self) -> Dict[str, object]:
        return self._call(lambda: {
            "services": sorted(self._svc_graphs),
            "sessions": len(self._sessions),
            "outstanding": self._svc_outstanding,
            "draining": self._svc_draining,
        })

    # ------------------------------------------------------------------
    # message plane
    # ------------------------------------------------------------------
    def _dispatch_message(self, kind: int, value) -> None:
        if kind == P.MSG_SVC_OPEN:
            client, requested = value
            self._svc_open(client, requested)
        elif kind == P.MSG_SVC_CALL:
            client, request_id, service, token = value
            self._svc_call(client, request_id, service, token)
        elif kind == P.MSG_SVC_CLOSE:
            self._svc_close(*value)
        else:
            super()._dispatch_message(kind, value)

    def _svc_open(self, client: str, requested: int) -> None:
        session = self._sessions.get(client)
        if session is None:
            self._session_counter += 1
            granted = self.admission.grant_window(requested)
            session = _Session(client, self._session_counter, granted)
            self._sessions[client] = session
        if self.metrics is not None:
            self.metrics.gauge("svc_sessions").set(len(self._sessions))
        # Re-opening is idempotent: the same session (and window grant)
        # answers a retried OPEN, so a lost OPEN_OK cannot fork state.
        self._pool.send(client, P.encode_control(
            P.MSG_SVC_OPEN_OK, session.granted, session.session_id))

    def _svc_call(self, client: str, request_id: int, service: str,
                  token) -> None:
        session = self._sessions.get(client)
        if session is None:
            self._pool.send(client, P.encode_control(
                P.MSG_SVC_ERROR, request_id,
                ScheduleError(f"no open session for client {client!r}; "
                              f"send MSG_SVC_OPEN first")))
            return
        # Dedup BEFORE any shed decision: a resend of an admitted id
        # must be dropped (its original is executing or already
        # answered), never re-executed and never answered BUSY.
        if not self._svc_dedup.fresh(client, session.session_id,
                                     request_id):
            if self.metrics is not None:
                self.metrics.counter("svc_duplicates").inc()
            return
        graph = self._svc_graphs.get(service)
        if graph is None:
            known = sorted(self._svc_graphs)
            self._pool.send(client, P.encode_control(
                P.MSG_SVC_ERROR, request_id,
                ScheduleError(f"unknown service {service!r}; "
                              f"registered: {known}")))
            return
        entry = graph.node(graph.entry)
        if not entry.op_class.accepts(type(token)):
            # Rejecting bad input here (not inside run()) keeps the
            # error on the cheap protocol path: an exception raised
            # by an operation poisons the whole run-to-completion
            # engine, a signature mismatch must not.
            self._pool.send(client, P.encode_control(
                P.MSG_SVC_ERROR, request_id,
                ScheduleError(
                    f"service {service!r} does not accept "
                    f"{type(token).__name__}")))
            return
        reason = None
        if self._svc_draining:
            reason = "draining"
        elif not session.window.can_send:
            reason = (f"session window full "
                      f"({session.window.in_flight}/{session.granted})")
        elif self._svc_outstanding >= self.admission.capacity:
            reason = (f"at capacity ({self._svc_outstanding}/"
                      f"{self.admission.capacity})")
        if reason is not None:
            session.window.on_stall()
            if self.metrics is not None:
                self.metrics.counter("svc_shed").inc()
            if self.tracer is not None:
                self.trace("svc_shed", client=client, request=request_id,
                           service=service, reason=reason)
            self._pool.send(client, P.encode_control(
                P.MSG_SVC_BUSY, request_id, reason))
            return
        session.window.on_post(0)
        self._svc_outstanding += 1
        if self.metrics is not None:
            self.metrics.counter("svc_calls").inc()
        self._svc_gauges()
        if self.tracer is not None:
            self.trace("svc_call", client=client, request=request_id,
                       service=service)
        self._svc_waiting.append((client, session, request_id, service, graph,
                                  token, time.monotonic()))
        self._svc_start()

    def _svc_gauges(self) -> None:
        if self.metrics is not None:
            limit = self.admission.max_concurrent
            self.metrics.gauge("svc_inflight").set(
                min(self._svc_outstanding, limit))
            self.metrics.gauge("svc_queue_depth").set(
                max(0, self._svc_outstanding - limit))

    def _svc_start(self) -> None:
        """Start waiting calls while fewer than ``max_concurrent`` run."""
        while self._svc_waiting \
                and self._svc_running < self.admission.max_concurrent:
            self._svc_running += 1
            self._svc_run(*self._svc_waiting.popleft())

    def _svc_run(self, client: str, session: _Session, request_id: int,
                 service: str, graph: Flowgraph, token, t0: float) -> None:
        """Start one admitted call's activation through the run gate.
        The first of its result, the engine's failure and
        ``call_timeout`` is the reply; then the next waiting call
        starts."""
        def finish(outcome: Any) -> None:
            if isinstance(outcome, BaseException):
                reply = P.encode_control(P.MSG_SVC_ERROR, request_id,
                                         outcome)
            else:
                try:
                    reply = P.encode_svc_reply(request_id, outcome)
                except Exception as exc:
                    reply = P.encode_control(P.MSG_SVC_ERROR,
                                             request_id, exc)
            elapsed = time.monotonic() - t0
            if self.metrics is not None:
                self.metrics.histogram(
                    f"svc_latency_seconds:{service}").observe(elapsed)
            if self.tracer is not None:
                self.trace("svc_reply", client=client, request=request_id,
                           service=service, seconds=elapsed)
            # The books are closed before the reply leaves: a client that
            # has its answer finds the call gone from the console's stats.
            self._svc_outstanding -= 1
            try:
                session.window.on_ack(0)
            except (RuntimeError, ValueError):
                pass  # session was dropped and replaced mid-call
            self._svc_gauges()
            if self._sessions.get(client) is session:
                # Not to a session closed meanwhile: its request ids
                # mean something else to a successor of the same name.
                self._pool.send(client, reply)
            self._svc_running -= 1
            self._svc_start()

        self._start_run(graph, token, self.call_timeout, finish)

    def _svc_close(self, client: str) -> None:
        dropped = self._sessions.pop(client, None)
        if self.metrics is not None:
            self.metrics.gauge("svc_sessions").set(len(self._sessions))
        # The channel is bound to this session's listener; a later
        # session under the same name listens somewhere else.
        self._pool.forget(client)
        if dropped is not None and self.tracer is not None:
            self.trace("svc_close", client=client)

    def _on_peer_error(self, peer: str, exc: Exception) -> None:
        # A broken client connection is a session drop, not a kernel
        # failure: it must never trigger cluster recovery or poison runs.
        if peer in self._sessions:
            self._svc_close(peer)
            return
        super()._on_peer_error(peer, exc)


class ServiceEngine(MultiprocessEngine):
    """A MultiprocessEngine that stays resident and serves graph calls.

    Usage::

        engine = ServiceEngine(admission=AdmissionPolicy(max_concurrent=4))
        engine.expose(graph, "gol.read")
        host, port = engine.serve()          # cluster is up, records live
        ...                                  # clients call via the port
        engine.drain_and_shutdown()

    ``recover`` defaults to *on* (unlike the batch engine's fail-fast
    default): a resident multi-tenant cluster should remap and replay
    around a dead kernel rather than fail every tenant.
    """

    def __init__(self, *args,
                 admission: Optional[AdmissionPolicy] = None,
                 call_timeout: float = 60.0,
                 recover: Optional[bool] = None,
                 **kwargs):
        super().__init__(*args,
                         recover=True if recover is None else recover,
                         **kwargs)
        self.admission = admission if admission is not None \
            else AdmissionPolicy()
        self.call_timeout = call_timeout
        self._exposed: Dict[str, Flowgraph] = {}
        self._serving = False

    def _make_console(self, ns_address, peers, loop,
                      ns) -> DistributedKernel:
        return ServiceKernel(
            CONSOLE_KERNEL, 0, ns_address, peers,
            policy=self.policy, dial_deadline=self.dial_deadline,
            tracer=self.tracer, metrics=self.metrics,
            transport=self.transport, recover=self.recover,
            routing=self.routing, loop=loop, ns=ns,
            admission=self.admission, call_timeout=self.call_timeout)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def expose(self, graph: Flowgraph, name: Optional[str] = None) -> str:
        """Publish *graph* as a callable service (default: its name)."""
        public = name or graph.name
        if graph.name not in self._graphs:
            self.register_graph(graph)
        self._exposed[public] = graph
        if self._serving and self._console is not None:
            self._console.expose_service(public, graph)
        return public

    def serve(self) -> Tuple[str, int]:
        """Boot the cluster and publish every exposed graph.

        Returns the name-server ``(host, port)`` clients connect to
        (fix it across restarts with the ``ns_port`` constructor
        argument).  Idempotent: calling again returns the same address.
        """
        if not self._exposed:
            raise ScheduleError("no services exposed; call expose() first")
        console = self._ensure_started()
        if not self._serving:
            for public, graph in self._exposed.items():
                console.expose_service(public, graph)
            self._serving = True
        assert self.ns_address is not None
        return self.ns_address

    @property
    def services(self) -> List[str]:
        return sorted(self._exposed)

    def service_stats(self) -> Dict[str, object]:
        console = self._console
        if console is None:
            return {"services": self.services, "sessions": 0,
                    "outstanding": 0, "draining": False}
        return console.svc_stats()

    def recovery_snapshot(self) -> Tuple[bool, int]:
        """``(recovered, replayed_tokens)`` observed by the console."""
        console = self._console
        if console is None:
            return False, 0
        return console.recovery_snapshot()

    def drain(self, timeout: float = 30.0) -> bool:
        """Unpublish, stop admitting, wait out in-flight calls."""
        self._serving = False
        console = self._console
        if console is None:
            return True
        return console.svc_drain(timeout)

    def drain_and_shutdown(self, timeout: float = 30.0) -> bool:
        """Graceful exit: drain, then tear the cluster down."""
        drained = self.drain(timeout)
        self.shutdown()
        return drained

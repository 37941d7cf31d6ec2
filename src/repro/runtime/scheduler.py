"""The scheduler core: the paper's Controller, written once.

The paper (§3): *"At the heart of the DPS library is the Controller
object, instantiated in each node and responsible for sequencing within
each node the program execution according to the flow graphs and thread
collections instantiated by the application."*

:class:`Scheduler` is that object.  It owns the merge-group table, the
flow-control windows with their deferred posts, and the routes, and it is
the only interpreter of the effect requests operation bodies yield
(:mod:`repro.core.ops`).  Clocks, queues, sockets and loops belong to a
**substrate** — :class:`~repro.runtime.controller.SimController`,
:class:`~repro.runtime.threaded_engine.ThreadedEngine` or
:class:`~repro.net.kernel.DistributedKernel` — reached through a dozen
members (DESIGN.md §3 tabulates what each one is on each engine):
``now()``, ``next_group_id()``, ``new_gate()`` / ``open_gate(gate)``
(the admit gate of one stalled post), ``enqueue(thread, group)``,
``transmit(env)``, ``send_ack(graph_name, frame)``,
``send_group_total(graph, merge_id, group_id, total)``,
``deliver_result(body, token, frame, needs_ack)``,
``scatter_total(body, total)`` and ``queue_depth(collection, index)``.
A substrate's tables have one owner, the simulator or the engine's I/O
loop, so the scheduler takes no lock.

A thread handle exposes ``collection``, ``index``, ``thread`` (the
:class:`DpsThread` object) and ``node_name`` (its placement), and every
item it dequeues goes to :meth:`Scheduler.handle`.  That is a generator
yielding ``(body, step)`` only where a body must *wait* — for the gate
of a stalled post, a ``ChargeRequest``, a ``SleepRequest``, a graph call
or a scatter call — and taking the step's outcome back.

Every substrate hosts a DPS thread as a :class:`ThreadHandle` that this
module steps (:meth:`Scheduler.start`, :meth:`~Scheduler.post`,
:meth:`~Scheduler.step`): an item leaves the inbox when it is
scheduled, runs up to its next wait, and is resumed from a callback.
A substrate supplies four more members for this: ``soon(fn, *args)``
(run later, in order), ``wait(handle, body, step)`` (arm the callback
that resumes the wait and return ``False``, or return ``True`` to go on
at once), ``admit(handle, item)`` (may this item start?) and
``body_failed(exc)``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core.flowcontrol import CreditWindow
from ..core.graph import Flowgraph
from ..core.ops import (
    CallGraphRequest,
    ChargeRequest,
    NextTokenRequest,
    OpKind,
    PostRequest,
    ScatterCallRequest,
    SleepRequest,
)
from ..core.routing import Route, RoutingContext
from ..core.streams import is_streaming_opener
from ..serial.token import Token
from .base import DataEnvelope, GroupFrame, ScheduleError

__all__ = ["Scheduler", "ThreadHandle", "MAX_STALE_GROUPS"]

#: Bound on remembered group totals for groups this scheduler never saw
#: (a total is broadcast to every host of the merge collection, the
#: group lands on one); the oldest untouched entries are pruned beyond it.
MAX_STALE_GROUPS = 10_000


class ThreadHandle:
    """One DPS thread hosted on a substrate: an inbox and the
    :meth:`Scheduler.handle` generator of the item in progress."""

    __slots__ = ("collection", "index", "thread", "node_name", "inbox",
                 "steps", "idle")

    def __init__(self, collection, index: int, node_name: str,
                 thread=None):
        self.collection = collection
        self.index = index
        # An adopted thread object (live state migrated from another
        # node) replaces a freshly constructed one.
        self.thread = (thread if thread is not None
                       else collection.make_thread(index))
        self.node_name = node_name
        #: items not scheduled yet
        self.inbox: Deque[Any] = deque()
        #: ``handle()`` of the item in progress, running or parked at a
        #: wait; ``None`` between items
        self.steps = None
        #: waiting for input: the next post is scheduled at once
        self.idle = False


class _Group:
    """Arrival bookkeeping for one merge/stream input group."""

    __slots__ = (
        "group_id", "buffer", "received", "consumed", "total", "instance",
        "node_id", "parent_frames", "thread", "body", "parked", "completed",
    )

    def __init__(self, group_id: int):
        self.group_id = group_id
        self.buffer: Deque[DataEnvelope] = deque()
        self.received = 0
        self.consumed = 0
        self.total: Optional[int] = None
        self.instance: Optional[int] = None
        self.node_id: Optional[int] = None
        self.parent_frames: Optional[Tuple[GroupFrame, ...]] = None
        #: handle of the thread the group landed on (None: only the
        #: broadcast total has been seen so far)
        self.thread: Any = None
        self.body: Optional["_Body"] = None
        self.parked = False
        self.completed = False


class _Body:
    """One executing operation body (an activation of execute())."""

    __slots__ = (
        "op", "gen", "graph", "node_id", "node", "thread", "ctx_id",
        "ctx_origin", "base_frames", "opens_group", "window_key",
        "out_group_id", "posted", "shed", "group", "started_at",
    )

    def __init__(self, op, env: DataEnvelope, node, thread,
                 group: Optional[_Group]):
        self.op = op
        #: the running ``execute()`` generator (None for plain bodies)
        self.gen: Any = None
        self.graph = env.graph
        self.node_id = env.node_id
        self.node = node
        self.thread = thread
        self.ctx_id = env.ctx_id
        #: Kernel owning the activation's result queue (multiprocess
        #: runtime); ``None`` on the single-process engines.
        self.ctx_origin = env.ctx_origin
        #: frames attached to outputs (before the opener's own frame):
        #: merge and stream outputs sit outside the consumed group.
        self.base_frames = env.frames if group is None else env.frames[:-1]
        self.opens_group = node.kind in (OpKind.SPLIT, OpKind.STREAM)
        #: key of this opener instance's flow-control window
        self.window_key = (env.graph.name, env.node_id, thread.index)
        self.out_group_id: Optional[int] = None
        self.posted = 0
        #: posts dropped by a lossy credit window; excluded from the
        #: announced group total so the merge still terminates exactly.
        self.shed = 0
        self.group = group
        self.started_at = 0.0


class Scheduler:
    """Sequences one node's (or one engine's) share of the schedule."""

    def __init__(self, engine, substrate):
        #: policy/stream/routing configuration and the tracer/metrics pair
        self.engine = engine
        self.sub = substrate
        self._groups: Dict[int, _Group] = {}
        self._stale_totals: Deque[int] = deque()
        self._windows: Dict[Tuple[str, int, int], CreditWindow] = {}
        #: posts queued behind their window: (body, request, succ, seq)
        self._pending: Dict[Tuple[str, int, int], Deque[tuple]] = {}
        self._routes: Dict[Tuple[str, int], Route] = {}
        #: window of the post being routed right now; load-balanced routes
        #: read their per-instance outstanding counts through it
        self._routing_window: Optional[CreditWindow] = None
        #: Split-boundary replay hooks, set only by the recovery-enabled
        #: distributed kernel: a :class:`~repro.net.recovery.TokenJournal`
        #: of un-acked windowed emissions and a
        #: :class:`~repro.net.recovery.ReplayDedup` admitting each
        #: (group, index) frame at non-leaf inputs once.
        self.journal = None
        self.dedup = None

    # ------------------------------------------------------------------
    # stepping a hosted thread
    # ------------------------------------------------------------------
    def start(self, handle: ThreadHandle) -> None:
        """Begin stepping *handle*: schedule its first item or wait for
        one."""
        self._take(handle)

    def post(self, handle: ThreadHandle, item: Any) -> None:
        """Give *handle* an item: scheduled at once if the thread waits
        for input, else queued behind what it has."""
        if handle.idle:
            handle.idle = False
            self.sub.soon(self._begin, handle, item)
        else:
            handle.inbox.append(item)

    def _take(self, handle: ThreadHandle) -> None:
        # Between items.  An idle handle must not keep its last token
        # (arrays decoded in place hold a block of the sender's shm
        # arena), and the next item leaves the inbox as it is scheduled.
        handle.steps = None
        if handle.inbox:
            self.sub.soon(self._begin, handle, handle.inbox.popleft())
        else:
            handle.idle = True

    def _begin(self, handle: ThreadHandle, item: Any) -> None:
        if self.sub.admit(handle, item):
            handle.steps = self.handle(handle, item)
            self.step(handle, None)

    def step(self, handle: ThreadHandle, outcome: Any) -> None:
        """Run *handle*'s item in progress up to its next wait, or to its
        end and on to the next item.  *outcome* is what the wait it was
        parked at gave back; the substrate's ``wait`` arms the callback
        that calls this again.  A raising body goes to ``body_failed``,
        and its thread takes no more items."""
        steps = handle.steps
        wait = self.sub.wait
        try:
            while True:
                try:
                    body, request = steps.send(outcome)
                except StopIteration:
                    break
                outcome = None
                if not wait(handle, body, request):
                    return
        except BaseException as exc:
            handle.steps = None
            self.sub.body_failed(exc)
            return
        self._take(handle)

    # ------------------------------------------------------------------
    # inbound: what a thread dequeued
    # ------------------------------------------------------------------
    def handle(self, thread, item):
        """Wait steps for one inbox item: a data envelope, or a parked
        group whose total arrived (see :meth:`apply_group_total`)."""
        if isinstance(item, DataEnvelope):
            return self.handle_data(thread, item)
        return self.poke_group(item)

    def handle_data(self, thread, env: DataEnvelope):
        """Leaf/split envelopes start a body and drive it to completion;
        merge/stream envelopes feed per-group state: the first token
        starts the body, later ones resume it when it is parked on
        ``next_token()``."""
        node = env.graph.node(env.node_id)
        engine = self.engine
        if engine.tracer is not None or engine.metrics is not None:
            depth = self.sub.queue_depth(thread.collection, thread.index)
            if engine.tracer is not None:
                engine.trace("token_recv", node=thread.node_name,
                             op=node.name, graph=env.graph.name, depth=depth)
            if engine.metrics is not None:
                engine.metrics.gauge("queue_depth").set(depth)
        if node.kind in (OpKind.LEAF, OpKind.SPLIT):
            # Replay dedup at the split's input: re-executing an
            # already-processed token here would mint a fresh inner
            # group and re-drive stateful merges downstream.  Leaf
            # inputs deliberately re-execute — they are stateless and
            # their outputs carry the same frame, so duplicates die at
            # the next non-leaf hop.
            if self.dedup is not None and node.kind == OpKind.SPLIT \
                    and env.frames and self._replayed(env):
                return
            yield from self.drive(self.make_body(env, node, thread),
                                  env.token)
            return
        frame = env.top_frame()
        if self.dedup is not None and self._replayed(env):
            return  # replayed duplicate; the original was acked
        group = self._groups.get(frame.group_id)
        if group is None:
            group = self._groups[frame.group_id] = _Group(frame.group_id)
        if group.instance is None:
            group.instance = env.instance
            group.node_id = env.node_id
            group.parent_frames = env.frames[:-1]
            group.thread = thread
        elif group.instance != env.instance \
                or group.node_id != env.node_id:
            raise ScheduleError(
                f"group {frame.group_id} routed to multiple merge "
                f"instances ({group.node_id}/{group.instance} and "
                f"{env.node_id}/{env.instance}); routing functions must "
                f"send all tokens of one group to the same thread"
            )
        elif group.parent_frames != env.frames[:-1]:
            raise ScheduleError(
                f"group {frame.group_id} tokens carry inconsistent "
                f"enclosing frames"
            )
        group.received += 1
        if group.body is None:
            group.consumed += 1
            self._ack(env, thread)
            group.body = self.make_body(env, node, thread, group)
            yield from self.drive(group.body, env.token)
        else:
            group.buffer.append(env)
            yield from self.poke_group(group)

    def _replayed(self, env: DataEnvelope) -> bool:
        frame = env.top_frame()
        return not self.dedup.fresh((env.graph.name, env.node_id),
                                    frame.group_id, frame.index)

    def poke_group(self, group: _Group):
        """Resume *group*'s merge/stream body if it is parked and can make
        progress (a token or the group total has just arrived)."""
        if not group.parked:
            return
        value = self._next_input(group)
        if group.parked:
            return
        yield from self.drive(group.body, value)

    def _next_input(self, group: _Group) -> Optional[Token]:
        """The group's next token, ``None`` once it is drained — or, with
        ``group.parked`` set, because nothing has arrived yet."""
        group.parked = False
        if group.buffer:
            env = group.buffer.popleft()
            group.consumed += 1
            self._ack(env, group.thread)
            self._check_in_type(group.body, env.token)
            return env.token
        if group.consumed == group.total:  # drained (total known)
            group.completed = True
        else:
            group.parked = True
        return None

    def make_body(self, env: DataEnvelope, node, thread,
                  group: Optional[_Group] = None) -> _Body:
        op_class = node.op_class
        if not isinstance(thread.thread, op_class.thread_type):
            raise ScheduleError(
                f"{op_class.__name__} requires thread type "
                f"{op_class.thread_type.__name__}, got "
                f"{type(thread.thread).__name__}"
            )
        body = _Body(op_class(), env, node, thread, group)
        if self.engine.tracer is not None:
            body.started_at = self.sub.now()
            self.engine.trace("op_start", node=thread.node_name,
                              op=node.name, graph=env.graph.name)
        body.op.bind(thread.thread, lambda req: self.emit(body, req),
                     now=self.sub.now)
        return body

    # ------------------------------------------------------------------
    # body driver
    # ------------------------------------------------------------------
    def drive(self, body: _Body, value: Optional[Token]):
        """Run an operation body, interpreting its effect requests.

        *value* is the input token that starts the body, or what its
        pending ``next_token()`` returns when it is resumed.  Runs inside
        the owning thread's step, so the DPS thread is busy for the
        duration (sequential thread semantics).  Returns when the body
        finishes or parks on ``next_token()``.
        """
        op = body.op
        group = body.group
        body_gen = body.gen
        to_send = value
        if body_gen is None:
            self._check_in_type(body, value)
            if not body.node.generator_body:
                if group is not None:
                    raise ScheduleError(
                        f"{type(op).__name__}.execute must be a generator "
                        f"(it needs `tok = yield self.next_token()` to "
                        f"consume its group)"
                    )
                # Plain body: charge the declared cost, then run atomically
                # (compute first, outputs leave when ready).
                if body.node.declares_cost:
                    charge = op.cost(value)
                    if charge.seconds or charge.flops:
                        yield body, charge
                op.execute(value)
                self.finish_body(body)
                return
            body_gen = body.gen = op.execute(value)
            to_send = None

        while True:
            try:
                request = body_gen.send(to_send)
            except StopIteration:
                self.finish_body(body)
                return
            to_send = None
            if isinstance(request, PostRequest):
                # Already emitted via the bare-call hook; yielding means
                # "wait until flow control admits it".
                gate = request._admit_event
                if gate is not None:
                    yield from self._stall(body, gate)
            elif isinstance(request, NextTokenRequest):
                if group is None:
                    raise ScheduleError(
                        "next_token() outside a merge/stream body")
                to_send = self._next_input(group)
                if group.parked:
                    return  # the thread takes its next item
            elif isinstance(request, (ChargeRequest, CallGraphRequest)):
                to_send = yield body, request
            elif isinstance(request, SleepRequest):
                # Pacing delay (stream sources): the thread idles, no
                # compute is charged against the node.
                if request.seconds > 0:
                    yield body, request
            elif isinstance(request, ScatterCallRequest):
                if not body.opens_group:
                    raise ScheduleError(
                        "call_scatter() outside a split/stream body")
                to_send = yield body, request
            else:
                raise ScheduleError(
                    f"{type(op).__name__} yielded {request!r}; operation "
                    f"bodies may yield post/charge/sleep/next_token/"
                    f"call_graph requests only"
                )

    def _stall(self, body: _Body, gate):
        """Wait at *gate* for flow control to admit a post (the paper's
        stalled split)."""
        engine = self.engine
        self._windows[body.window_key].on_stall()
        stalled_at = self.sub.now()
        if engine.tracer is not None:
            engine.trace("stall", node=body.thread.node_name,
                         graph=body.graph.name)
        if engine.metrics is not None:
            engine.metrics.counter("stalls").inc()
        yield body, gate
        waited = self.sub.now() - stalled_at
        if engine.tracer is not None:
            engine.trace("admit", node=body.thread.node_name,
                         graph=body.graph.name, waited=waited)
        if engine.metrics is not None:
            engine.metrics.histogram("stall_seconds").observe(waited)

    def _check_in_type(self, body: _Body, token: Token) -> None:
        if not body.op.accepts(type(token)):
            raise ScheduleError(
                f"{type(body.op).__name__} received "
                f"{type(token).__name__}, accepts "
                f"{[t.__name__ for t in body.op.in_types]}"
            )

    def finish_body(self, body: _Body) -> None:
        op_name = type(body.op).__name__
        if self.engine.tracer is not None:
            self.engine.trace(
                "op_end", node=body.thread.node_name, op=body.node.name,
                graph=body.graph.name,
                duration=self.sub.now() - body.started_at,
                posted=body.posted,
            )
        group = body.group
        if group is not None:
            if not group.completed:
                raise ScheduleError(
                    f"{op_name} returned before consuming its whole "
                    f"group (consumed {group.consumed} of "
                    f"{'unknown' if group.total is None else group.total})"
                )
            del self._groups[group.group_id]
        if body.opens_group:
            if body.posted == 0:
                raise ScheduleError(
                    f"{op_name} ({body.node.kind}) posted no tokens; a "
                    f"split/stream group must contain at least one"
                )
            if body.posted == body.shed:
                raise ScheduleError(
                    f"{op_name} ({body.node.kind}): the credit window shed "
                    f"every posted token ({body.shed}); the group would "
                    f"announce total 0 and hang its merge"
                )
            self.close_group(body)

    # ------------------------------------------------------------------
    # posting path
    # ------------------------------------------------------------------
    def emit(self, body: _Body, req: PostRequest) -> None:
        """Hand one posted token to flow control, routing and transport."""
        token = req.token
        op_class = body.node.op_class
        if self.engine.metrics is not None:
            self.engine.metrics.counter("tokens_posted").inc()
        if not isinstance(token, op_class.out_types):
            raise ScheduleError(
                f"{op_class.__name__} posted {type(token).__name__}, "
                f"declares out_types "
                f"{[t.__name__ for t in op_class.out_types]}"
            )
        succ = body.graph.dispatch(body.node_id, type(token))
        if succ is None:
            self._emit_result(body, token)
            return
        window = None
        if body.opens_group:
            if body.out_group_id is None:
                body.out_group_id = self.sub.next_group_id()
            window = self.window_for(body)
        seq = body.posted
        body.posted += 1
        if window is not None and (
                not window.can_send or self._pending.get(body.window_key)):
            # Routing is deferred until the window admits the token,
            # so feedback-driven routes see up-to-date counters — the
            # paper routes "to those processing nodes which have
            # previously posted data objects to the merge operation".
            self._defer(body, req, succ, seq, window)
            return
        env = self._route(body, token, succ, seq, window)
        self.sub.transmit(env)

    def _emit_result(self, body: _Body, token: Token) -> None:
        """A token with no successor leaves the graph through its exit."""
        frame = None
        if body.graph.scatter:
            # Scatter-graph exit: each token leaves towards the calling
            # application, carrying its group frame so the consumption
            # can be acknowledged for flow control.
            if body.opens_group:
                if body.out_group_id is None:
                    body.out_group_id = self.sub.next_group_id()
                frame = GroupFrame(
                    body.out_group_id, body.posted, body.node_id,
                    body.thread.index, body.thread.node_name, 0)
            elif body.base_frames:
                frame = body.base_frames[-1]
        elif body.base_frames and not body.opens_group:
            raise ScheduleError(
                "graph result posted from inside an open split-merge group")
        body.posted += 1
        # Acks apply only when the token went through an upstream
        # opener's flow-control window (leaf exit); a split exit emits
        # directly and is throttled by the caller instead.
        self.sub.deliver_result(
            body, token, frame,
            needs_ack=frame is not None and not body.opens_group)

    def _defer(self, body: _Body, req: PostRequest, succ: int, seq: int,
               window: CreditWindow) -> None:
        """Queue a post behind its saturated window, or shed it."""
        queue = self._pending.setdefault(body.window_key, deque())
        if window.shedding == "block":
            # Only a generator body can yield the post and wait at its
            # gate; a plain body's deferred post just queues.
            if body.node.generator_body:
                req._admit_event = self.sub.new_gate()
        elif len(queue) >= (window.window or 1):
            # Lossy modes never stall the poster: their requests carry no
            # gate and the queue is capped at the window size.
            oldest = None
            if window.shedding == "drop-oldest":
                oldest = next((e for e in queue if e[0] is body), None)
            self._record_shed(body, window)
            if oldest is None:
                # "shed" drops the incoming token; so does drop-oldest
                # when the live poster has nothing queued — dropping
                # another body's token would corrupt its announced total.
                return
            queue.remove(oldest)
        queue.append((body, req, succ, seq))

    def _record_shed(self, body: _Body, window: CreditWindow) -> None:
        window.on_shed()
        body.shed += 1
        if self.engine.tracer is not None:
            self.engine.trace("shed", node=body.thread.node_name,
                              graph=body.graph.name)
        if self.engine.metrics is not None:
            self.engine.metrics.counter("tokens_shed").inc()

    def _route(self, body: _Body, token: Token, succ: int, seq: int,
               window: Optional[CreditWindow]) -> DataEnvelope:
        """Route *token* to a thread instance and wrap it."""
        instance = self.route_for(body.graph, succ, window)(token)
        frames = body.base_frames
        if body.opens_group:
            frames = frames + (GroupFrame(
                body.out_group_id, seq, body.node_id, body.thread.index,
                body.thread.node_name, instance),)
        env = DataEnvelope(token, body.graph, succ, instance, body.ctx_id,
                           frames, ctx_origin=body.ctx_origin)
        if window is not None:
            window.on_post(instance)
            if self.journal is not None:
                # Journal every windowed emission for split-boundary
                # replay; pruned when the merge's ack arrives, so the
                # journal is bounded by the tokens in flight.
                self.journal.record(env, self.sub.now())
        return env

    def window_for(self, body: _Body) -> CreditWindow:
        key = body.window_key
        window = self._windows.get(key)
        if window is None:
            streaming = is_streaming_opener(body.node)
            stream = self.engine.stream
            window = self._windows[key] = CreditWindow(
                stream.window_for(body.node.name, streaming,
                                  self.engine.policy.window),
                shedding=stream.shedding_for(streaming),
            )
        return window

    def route_for(self, graph: Flowgraph, node_id: int,
                  window: Optional[CreditWindow]) -> Route:
        """The bound route into *node_id*, reading feedback from *window*."""
        key = (graph.name, node_id)
        route = self._routes.get(key)
        if route is None:
            node = graph.node(node_id)
            collection = node.collection
            queue_depth = self.sub.queue_depth

            def outstanding(i: int) -> int:
                w = self._routing_window
                return w.outstanding(i) if w is not None else 0

            route = self.engine.routing.route_class_for(node.route_class)()
            route.bind(RoutingContext(
                collection, outstanding,
                lambda i: queue_depth(collection, i)))
            self._routes[key] = route
        self._routing_window = window
        return route

    def entry_route(self, graph: Flowgraph) -> Route:
        """Route choosing the entry instance of a new activation."""
        return self.route_for(graph, graph.entry, None)

    # ------------------------------------------------------------------
    # feedback: acks and group totals
    # ------------------------------------------------------------------
    def _ack(self, env: DataEnvelope, thread) -> None:
        """Acknowledge one consumed token to its opener."""
        frame = env.top_frame()
        engine = self.engine
        if engine.tracer is not None:
            engine.trace("ack", node=thread.node_name, graph=env.graph.name,
                         opener=frame.opener, group=frame.group_id)
        if engine.metrics is not None:
            engine.metrics.counter("acks").inc()
        self.sub.send_ack(env.graph.name, frame)

    def apply_ack(self, graph_name: str, opener: int, opener_instance: int,
                  routed_instance: int, group_id: int = 0,
                  index: int = 0) -> None:
        """Feed an ack into the opener's window; release stalled posts.

        An ack for a window this scheduler does not hold (its opener
        lived on a kernel that has since been replaced) is dropped.
        """
        key = (graph_name, opener, opener_instance)
        if self.journal is not None and group_id:
            self.journal.prune(group_id, index)
        window = self._windows.get(key)
        if window is None:
            return
        window.on_ack(routed_instance)
        queue = self._pending.get(key)
        while queue and window.can_send:
            body, req, succ, seq = queue.popleft()
            self.sub.transmit(
                self._route(body, req.token, succ, seq, window))
            gate, req._admit_event = req._admit_event, None
            if gate is not None:
                self.sub.open_gate(gate)
        if queue is not None and not queue:
            del self._pending[key]

    def release_stalled(self) -> None:
        """Open the gate of every stalled post: the substrate has failed
        or is shutting down, and no ack will ever admit them."""
        for queue in self._pending.values():
            for _, req, _, _ in queue:
                if req._admit_event is not None:
                    self.sub.open_gate(req._admit_event)

    def close_group(self, body: _Body) -> None:
        """Announce how many tokens the group *body* opened contains."""
        graph = body.graph
        total = body.posted - body.shed
        if graph.scatter and body.node_id == graph.scatter_opener:
            # merged by the calling application: report the total to the
            # activation instead of broadcasting it to merge hosts
            self.sub.scatter_total(body, total)
        else:
            self.sub.send_group_total(
                graph, graph.matching_merge(body.node_id),
                body.out_group_id, total)

    def apply_group_total(self, group_id: int, total: int) -> None:
        """Record a group's total; wake its merge body if parked."""
        group = self._groups.get(group_id)
        if group is None:
            # no token has arrived yet (or never will, here): the
            # first token finds the total when it creates the body
            group = self._groups[group_id] = _Group(group_id)
            self._stale_totals.append(group_id)
            while len(self._stale_totals) > MAX_STALE_GROUPS:
                stale = self._groups.get(self._stale_totals.popleft())
                if stale is not None and stale.received == 0:
                    del self._groups[stale.group_id]
        group.total = total
        if group.parked:
            self.sub.enqueue(group.thread, group)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def open_groups(self) -> List[_Group]:
        """Unfinished merge groups that received at least one token."""
        return [g for g in self._groups.values() if g.received]

    def pending_posts(self) -> int:
        return sum(len(q) for q in self._pending.values())

    def window_stats(self) -> Dict[Tuple[str, int, int], CreditWindow]:
        return dict(self._windows)

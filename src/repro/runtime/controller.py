"""The simulated-cluster substrate: one :class:`SimController` per node.

Each controller hosts the DPS thread instances mapped to its node and
one :class:`~repro.runtime.scheduler.Scheduler` sequencing them.  A DPS
thread is a sequential event loop (one simulated process) draining an
inbox; the scheduler decides what each envelope means, this module says
what waiting costs in virtual time: compute charges occupy the node's
CPU resource, sleeps and stalled posts are simulation events, messages
cross the modelled network.  No locking is needed — the simulation
kernel runs one process at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.ops import (
    CallGraphRequest,
    ChargeRequest,
    PostRequest,
    SleepRequest,
)
from ..core.threads import DpsThread, ThreadCollection
from ..simkernel import Event, Interrupt, Store
from .base import (
    ACK_BYTES,
    GROUP_TOTAL_BYTES,
    AckMessage,
    DataEnvelope,
    GroupTotalMessage,
    KernelFailure,
    ScheduleError,
)
from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from .sim_engine import SimEngine

__all__ = ["SimController", "ScheduleError", "KernelFailure"]


class _ThreadState:
    """One DPS thread instance living on this controller's node."""

    __slots__ = ("collection", "index", "thread", "node_name", "inbox",
                 "proc")

    def __init__(self, controller: "SimController",
                 collection: ThreadCollection, index: int,
                 thread: Optional[DpsThread] = None):
        self.collection = collection
        self.index = index
        self.thread = thread if thread is not None \
            else collection.make_thread(index)
        self.node_name = controller.node_name
        self.inbox: Store = Store(controller.engine.sim,
                                  name=f"{collection.name}[{index}]")
        self.proc = controller.engine.sim.spawn(
            controller._thread_loop(self),
            name=f"{controller.node_name}:{collection.name}[{index}]",
        )


class SimController:
    """Scheduler substrate for one node of the simulated cluster."""

    #: the simulation kernel runs one process at a time
    lock = nullcontext()

    def __init__(self, engine: "SimEngine", node_name: str):
        self.engine = engine
        self.node_name = node_name
        self.node = engine.cluster.node(node_name)
        self.scheduler = Scheduler(engine, self)
        # group ids and admit gates come straight from the engine
        self.next_group_id = engine.next_group_id
        self.new_gate = engine.sim.event
        self._threads: Dict[Tuple[int, int], _ThreadState] = {}
        self._launched: set = set()
        self._launching: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def thread_state(self, collection: ThreadCollection,
                     index: int) -> _ThreadState:
        key = (id(collection), index)
        ts = self._threads.get(key)
        if ts is None:
            if collection.node_of(index) != self.node_name:
                raise ScheduleError(
                    f"thread {collection.name}[{index}] is mapped to "
                    f"{collection.node_of(index)}, not {self.node_name}"
                )
            ts = self._threads[key] = _ThreadState(self, collection, index)
        return ts

    def thread(self, collection: ThreadCollection,
               index: int) -> Optional[DpsThread]:
        """The thread object of instance *index*, if it ever ran here."""
        ts = self._threads.get((id(collection), index))
        return ts.thread if ts is not None else None

    def _thread_loop(self, ts: _ThreadState):
        scheduler = self.scheduler
        while True:
            try:
                item = yield ts.inbox.get()
            except Interrupt:
                return  # thread evicted (collection remapped)
            steps = scheduler.handle(ts, item)
            outcome = None
            while True:
                try:
                    body, step = steps.send(outcome)
                except StopIteration:
                    break
                outcome = yield from self.perform(body, step)

    def perform(self, body, step):
        """Wait out one scheduler step in virtual time."""
        if isinstance(step, ChargeRequest):
            seconds = step.seconds + (
                step.flops / self.node.spec.flops if step.flops else 0.0)
            if seconds > 0:
                yield from self.node.compute_seconds(seconds)
        elif isinstance(step, Event):
            yield step  # the admit gate of a stalled post
        elif isinstance(step, SleepRequest):
            yield self.engine.sim.timeout(step.seconds)
        elif isinstance(step, CallGraphRequest):
            return (yield self.engine.start_call(
                step.graph_name, step.token, self.node_name))
        else:  # ScatterCallRequest
            return (yield self.engine.start_scatter(
                step.graph_name, step.token, self.node_name,
                on_token=lambda tok: self.scheduler.emit(
                    body, PostRequest(tok))))

    # ------------------------------------------------------------------
    # dynamic remapping (runtime reshaping, paper §2/§6)
    # ------------------------------------------------------------------
    def evict_thread(self, collection: ThreadCollection, index: int):
        """Detach a quiescent thread for migration; returns the thread
        object, or None if it never ran here."""
        ts = self._threads.get((id(collection), index))
        if ts is None:
            return None
        if len(ts.inbox) or ts.inbox.waiting_putters:
            raise ScheduleError(
                f"cannot migrate {collection.name}[{index}]: envelopes "
                f"still queued; remap only quiescent schedules"
            )
        self.discard_thread(collection, index)
        return ts.thread

    def discard_thread(self, collection: ThreadCollection,
                       index: int) -> bool:
        """Drop instance *index* and whatever state it holds."""
        ts = self._threads.pop((id(collection), index), None)
        if ts is None:
            return False
        if ts.proc.is_alive:
            ts.proc.interrupt("discarded")
        return True

    def adopt_thread(self, collection: ThreadCollection, index: int,
                     thread) -> None:
        """Install a migrated thread object and start its loop here."""
        key = (id(collection), index)
        if key in self._threads:
            raise ScheduleError(
                f"{collection.name}[{index}] already lives on {self.node_name}"
            )
        thread.node_name = self.node_name
        self._threads[key] = _ThreadState(self, collection, index, thread)

    def fail(self) -> int:
        """Node crash: lose every thread and the launched applications."""
        lost = list(self._threads.values())
        for ts in lost:
            self.discard_thread(ts.collection, ts.index)
        self._launched.clear()
        return len(lost)

    # ------------------------------------------------------------------
    # inbound paths (called by the engine at message delivery time)
    # ------------------------------------------------------------------
    def prelaunch(self, apps) -> None:
        """Mark *apps* as already running here (no lazy-launch delay)."""
        self._launched.update(apps)

    def receive(self, message: Any) -> None:
        """Entry point for delivered messages (post-launch gate)."""
        app = self.engine.app_of(message) if isinstance(message, DataEnvelope) else None
        if app is not None and app not in self._launched:
            buffer = self._launching.get(app)
            if buffer is not None:
                buffer.append(message)
                return
            self._launching[app] = [message]
            self.engine.sim.spawn(
                self._launch(app), name=f"launch:{app}@{self.node_name}"
            )
            return
        self._dispatch(message)

    def _launch(self, app: str):
        yield self.engine.sim.timeout(self.node.spec.launch_delay)
        self._launched.add(app)
        buffered = self._launching.pop(app)
        for message in buffered:
            self._dispatch(message)

    def _dispatch(self, message: Any) -> None:
        if isinstance(message, DataEnvelope):
            node = message.graph.node(message.node_id)
            self.enqueue(self.thread_state(node.collection, message.instance),
                         message)
        elif isinstance(message, AckMessage):
            self.scheduler.apply_ack(message.graph_name, message.opener,
                                     message.opener_instance,
                                     message.routed_instance)
        elif isinstance(message, GroupTotalMessage):
            self.scheduler.apply_group_total(message.group_id, message.total)
        else:  # pragma: no cover - defensive
            raise ScheduleError(f"unknown message {message!r}")

    # ------------------------------------------------------------------
    # the rest of the substrate interface (see repro.runtime.scheduler)
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self.engine.sim.now

    open_gate = staticmethod(Event.succeed)

    def enqueue(self, ts: _ThreadState, item: Any) -> None:
        ts.inbox.put_nowait(item)

    def transmit(self, env: DataEnvelope) -> None:
        dest = env.graph.node(env.node_id).collection.node_of(env.instance)
        self.engine.transmit(env, self.node_name, dest)

    def send_ack(self, graph_name: str, frame) -> None:
        ack = AckMessage(graph_name, frame.opener, frame.opener_instance,
                         frame.group_id, frame.routed_instance)
        self.engine.send_control(self.node_name, frame.origin_node,
                                 ACK_BYTES, ack)

    def send_group_total(self, graph, merge_id: int, group_id: int,
                         total: int) -> None:
        # The opener cannot know which merge instance the group landed
        # on: one message per instance, as the C++ runtime sends them.
        collection = graph.node(merge_id).collection
        for instance in range(collection.thread_count):
            msg = GroupTotalMessage(graph.name, merge_id, instance,
                                    group_id, total)
            self.engine.send_control(self.node_name,
                                     collection.node_of(instance),
                                     GROUP_TOTAL_BYTES, msg)

    def deliver_result(self, body, token, frame, needs_ack: bool) -> None:
        self.engine.complete_activation(body.ctx_id, token, self.node_name,
                                        frame=frame, needs_ack=needs_ack)

    def scatter_total(self, body, total: int) -> None:
        self.engine.scatter_total(body.ctx_id, total)

    def queue_depth(self, collection: ThreadCollection, index: int) -> int:
        # Observed queue depth of the instance wherever it lives: the
        # simulator plays the role of the heartbeat-fed gauge the real
        # runtime consults.
        host = self.engine.controllers.get(collection.node_of(index))
        ts = host._threads.get((id(collection), index)) \
            if host is not None else None
        return len(ts.inbox) if ts is not None else 0

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def open_groups(self) -> List[str]:
        """Human-readable descriptions of unfinished merge groups."""
        return [
            f"group {group.group_id} at node {self.node_name}: received "
            f"{group.received}, consumed {group.consumed}, total "
            f"{group.total}"
            for group in self.scheduler.open_groups()
        ]

    def pending_posts(self) -> int:
        return self.scheduler.pending_posts()

    def window_stats(self):
        return self.scheduler.window_stats()

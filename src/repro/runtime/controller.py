"""The simulated-cluster substrate: one :class:`SimController` per node.

Each controller hosts the DPS thread instances mapped to its node and
one :class:`~repro.runtime.scheduler.Scheduler` sequencing them.  A DPS
thread is a :class:`~repro.runtime.scheduler.ThreadHandle` the scheduler
steps through its inbox; this module says what waiting costs in virtual
time: compute charges occupy the node's CPU resource, sleeps and stalled
posts are simulation events, messages cross the modelled network.  No
locking is needed — the simulation kernel runs one callback at a time —
and no process is spawned: a thread, a wait and a lazy launch are
callbacks on the event heap.

Why the virtual times are those of a generator process per thread
draining a simkernel store as its inbox (``yield inbox.get()``, then
the item's waits), entry for entry:

- the process's spawn bootstrap ran at ``(now, URGENT)``;
  ``sim.call(scheduler.start, handle)`` takes the same key;
- ``inbox.get()`` with stock succeeded at ``(now, NORMAL)`` and took the
  item then; :meth:`soon` pushes the same entry, a succeeded
  :class:`~repro.simkernel.Event`, and the scheduler pops the item then,
  so ``queue_depth`` reads what the store's length read;
- a put that handed its item to a parked get is ``Scheduler.post`` on
  an idle handle, with the same entry; a put to a busy thread created
  no entry, and an append creates none;
- ``yield ev`` is ``ev.add_callback``, which resumes at once if ``ev``
  was already processed, as the process did;
- :meth:`~repro.cluster.node.Node.compute` is the request → timeout →
  release chain ``compute_seconds`` waited through, and it releases the
  CPU before the body continues;
- a lazy launch's process waited on one timeout created in its
  bootstrap slot; ``sim.call`` then ``sim.timeout`` does the same;
- what disappears is an interrupt's ``_Resume`` and a finished
  process's completion, both unobserved; the interrupts came only at
  quiescence (``fail_node``, ``remap``), and ``seq`` is monotone, so
  every other entry keeps its order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..core.ops import (
    CallGraphRequest,
    ChargeRequest,
    PostRequest,
    SleepRequest,
)
from ..core.threads import DpsThread, ThreadCollection
from ..simkernel import Event
from .base import (
    ACK_BYTES,
    GROUP_TOTAL_BYTES,
    AckMessage,
    DataEnvelope,
    GroupTotalMessage,
    KernelFailure,
    ScheduleError,
)
from .scheduler import Scheduler, ThreadHandle

if TYPE_CHECKING:  # pragma: no cover
    from .sim_engine import SimEngine

__all__ = ["SimController", "ScheduleError", "KernelFailure"]


class SimController:
    """Scheduler substrate for one node of the simulated cluster."""

    def __init__(self, engine: "SimEngine", node_name: str):
        self.engine = engine
        self.node_name = node_name
        self.node = engine.cluster.node(node_name)
        self.scheduler = Scheduler(engine, self)
        # group ids and admit gates come straight from the engine
        self.next_group_id = engine.next_group_id
        self.new_gate = engine.sim.event
        self.enqueue = self.scheduler.post
        self._threads: Dict[Tuple[int, int], ThreadHandle] = {}
        self._launched: set = set()
        self._launching: Dict[str, List[Any]] = {}

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def thread_handle(self, collection: ThreadCollection,
                      index: int) -> ThreadHandle:
        key = (id(collection), index)
        handle = self._threads.get(key)
        if handle is None:
            if collection.node_of(index) != self.node_name:
                raise ScheduleError(
                    f"thread {collection.name}[{index}] is mapped to "
                    f"{collection.node_of(index)}, not {self.node_name}"
                )
            handle = self._threads[key] = self._host(collection, index)
        return handle

    def _host(self, collection: ThreadCollection, index: int,
              thread: Optional[DpsThread] = None) -> ThreadHandle:
        """A new hosted thread, started in the slot a spawned process
        would have started in."""
        handle = ThreadHandle(collection, index, self.node_name, thread)
        self.engine.sim.call(self.scheduler.start, handle)
        return handle

    def thread(self, collection: ThreadCollection,
               index: int) -> Optional[DpsThread]:
        """The thread object of instance *index*, if it ever ran here."""
        handle = self._threads.get((id(collection), index))
        return handle.thread if handle is not None else None

    # ------------------------------------------------------------------
    # dynamic remapping (runtime reshaping, paper §2/§6)
    # ------------------------------------------------------------------
    def evict_thread(self, collection: ThreadCollection, index: int):
        """Detach a quiescent thread for migration; returns the thread
        object, or None if it never ran here."""
        handle = self._threads.get((id(collection), index))
        if handle is None:
            return None
        if handle.inbox:
            raise ScheduleError(
                f"cannot migrate {collection.name}[{index}]: envelopes "
                f"still queued; remap only quiescent schedules"
            )
        self.discard_thread(collection, index)
        return handle.thread

    def discard_thread(self, collection: ThreadCollection,
                       index: int) -> bool:
        """Drop instance *index* and whatever state it holds."""
        return self._threads.pop((id(collection), index), None) is not None

    def adopt_thread(self, collection: ThreadCollection, index: int,
                     thread) -> None:
        """Install a migrated thread object and start stepping it here."""
        key = (id(collection), index)
        if key in self._threads:
            raise ScheduleError(
                f"{collection.name}[{index}] already lives on {self.node_name}"
            )
        thread.node_name = self.node_name
        self._threads[key] = self._host(collection, index, thread)

    def fail(self) -> int:
        """Node crash: lose every thread and the launched applications."""
        lost = len(self._threads)
        self._threads.clear()
        self._launched.clear()
        return lost

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
            self.engine.sim.call(self._launch, app)
            return
        self._dispatch(message)

    def _launch(self, app: str) -> None:
        """Start *app* here: what arrived for it is dispatched once the
        node's launch delay has passed."""
        self.engine.sim.timeout(self.node.spec.launch_delay, app) \
            .add_callback(self._launched_app)

    def _launched_app(self, ev: Event) -> None:
        app = ev.value
        self._launched.add(app)
        for message in self._launching.pop(app):
            self._dispatch(message)

    def _dispatch(self, message: Any) -> None:
        if isinstance(message, DataEnvelope):
            node = message.graph.node(message.node_id)
            self.enqueue(self.thread_handle(node.collection, message.instance),
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

    def soon(self, fn, *args) -> None:
        """Run ``fn(*args)`` at ``(now, NORMAL)``, the slot an inbox get
        with stock succeeded in."""
        self.engine.sim.event().succeed().add_callback(lambda _: fn(*args))

    def wait(self, handle: ThreadHandle, body, step) -> bool:
        """Arm the simulation event that resumes *handle* after *step*;
        ``True``: a charge of no time, go on at once."""
        resume = self.scheduler.step
        if isinstance(step, ChargeRequest):
            seconds = step.seconds + (
                step.flops / self.node.spec.flops if step.flops else 0.0)
            if seconds <= 0:
                return True
            self.node.compute(seconds, lambda: resume(handle, None))
            return False
        engine = self.engine
        if isinstance(step, Event):
            event = step  # the admit gate of a stalled post
        elif isinstance(step, SleepRequest):
            event = engine.sim.timeout(step.seconds)
        elif isinstance(step, CallGraphRequest):
            event = engine.start_call(step.graph_name, step.token,
                                      self.node_name)
        else:  # ScatterCallRequest
            event = engine.start_scatter(
                step.graph_name, step.token, self.node_name,
                on_token=lambda tok: self.scheduler.emit(
                    body, PostRequest(tok)))
        event.add_callback(lambda ev: resume(handle, ev.value))
        return False

    @staticmethod
    def admit(handle: ThreadHandle, item: Any) -> bool:
        return True  # a simulated thread refuses no item

    @staticmethod
    def body_failed(exc: BaseException) -> None:
        raise exc  # out of Simulator.run, as an unjoined process's did

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
        handle = host._threads.get((id(collection), index)) \
            if host is not None else None
        return len(handle.inbox) if handle is not None else 0

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

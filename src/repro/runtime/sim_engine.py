"""The simulated-cluster execution engine.

:class:`SimEngine` runs DPS applications on a modelled cluster
(:mod:`repro.cluster`) under virtual time.  Operations *really* execute —
tokens carry real payloads, routing/flow-control/merging is the real
mechanism — but computation is charged to node CPUs via cost models and
communication passes through the NIC/switch model, so overlap and
pipelining effects appear in the virtual clock exactly as they would on
the paper's testbed wall clock.

Typical use::

    engine = SimEngine(paper_cluster(4))
    workers = ThreadCollection(ComputeThread, "proc").map("node01*1 node02")
    ... build graph ...
    engine.register_graph(graph)
    result = engine.run(graph, input_token)
    print(result.makespan, engine.stats())

Concurrent activity (pipelined client loops, services) uses
:meth:`spawn` driver processes that ``yield engine.start(...)`` events.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Union

import dataclasses

from ..cluster.cluster import Cluster, ClusterSpec
from ..cluster.costs import dps_wire_overhead_seconds
from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.routing import RoutingPolicy
from ..net.recovery import _unique_collections, plan_rebalance
from ..serial.token import Token
from ..serial.wire import decode, encode_segments, gather, measure
from ..simkernel import Event, Simulator
from .base import (
    DATA_HEADER_BYTES,
    DataEnvelope,
    Engine,
    RunResult,
)
from .controller import ScheduleError, SimController

__all__ = ["SimEngine", "ScheduleError"]


@dataclass
class _Activation:
    ctx_id: int
    driver_node: str
    event: Event
    wrap_result: bool
    started_at: float
    done: bool = False
    # scatter-call machinery (inter-application split, paper §6)
    scatter: bool = False
    on_token: Optional[Any] = None
    received: int = 0
    delivered: int = 0
    total: Optional[int] = None
    graph_name: str = ""


class SimEngine(Engine):
    """Discrete-event execution engine over a modelled cluster."""

    def __init__(
        self,
        cluster: Union[Cluster, ClusterSpec],
        policy: Optional[FlowControlPolicy] = None,
        serialize_payloads: bool = True,
        charge_serialization: bool = True,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        routing: Optional[RoutingPolicy] = None,
        stream: Optional[StreamPolicy] = None,
    ):
        super().__init__(policy=policy, tracer=tracer, metrics=metrics,
                         stream=stream)
        #: Routing policy consulted when controllers build split routes;
        #: ``queue_depth`` substitutes adaptive routing for declared
        #: round-robin routes.
        self.routing = routing if routing is not None else RoutingPolicy()
        self.sim = Simulator()
        self.cluster = (
            cluster if isinstance(cluster, Cluster) else Cluster(self.sim, cluster)
        )
        #: Encode/decode token payloads on remote transfers (authoritative
        #: wire sizes, enforces serializability).  Disable for very large
        #: payload sweeps; sizes then come from Token.payload_nbytes().
        self.serialize_payloads = serialize_payloads
        #: Charge token (de)serialization to node CPUs.
        self.charge_serialization = charge_serialization
        self.controllers: Dict[str, SimController] = {
            name: SimController(self, name) for name in self.cluster.node_names
        }
        #: (app, src, dst) pairs with an established TCP connection
        self._connected: set = set()
        self._group_counter = itertools.count(1)
        self._ctx_counter = itertools.count(1)
        self._activations: Dict[int, _Activation] = {}
        #: Nodes eligible to host thread instances.  Starts as the whole
        #: cluster; ``add_kernel``/``retire_kernel`` edit it.  Retired
        #: machines stay in the cluster model (they may be re-admitted)
        #: but rebalancing never places threads on them.
        self._members: set = set(self.cluster.node_names)
        self._rebalances = 0
        self._tokens_moved = 0

    # ------------------------------------------------------------------
    # registration (shared Engine base; cluster placement validation)
    # ------------------------------------------------------------------
    def _validate_graph(self, graph: Flowgraph) -> None:
        for collection in graph.collections():
            for node_name in collection.placements:
                if node_name not in self.controllers:
                    raise ScheduleError(
                        f"collection {collection.name!r} maps thread(s) to "
                        f"{node_name!r}, which is not in the cluster "
                        f"{sorted(self.controllers)}"
                    )

    def app_of(self, env: DataEnvelope) -> str:
        return self._graph_app.get(env.graph.name, "app")

    def prelaunch(self) -> None:
        """Mark every application as already running on every node.

        Skips the lazy-launch delay — use for steady-state benchmarks.
        """
        apps = set(self._graph_app.values())
        names = list(self.controllers)
        for controller in self.controllers.values():
            controller.prelaunch(apps)
        for app in apps:
            for src in names:
                for dst in names:
                    self._connected.add((app, src, dst))

    # ------------------------------------------------------------------
    # identifiers
    # ------------------------------------------------------------------
    def next_group_id(self) -> int:
        return next(self._group_counter)

    def _now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # activations
    # ------------------------------------------------------------------
    def start(
        self,
        graph: Union[Flowgraph, str],
        token: Token,
        driver_node: Optional[str] = None,
    ) -> Event:
        """Begin one activation; the event succeeds with a RunResult."""
        return self._start(graph, token, driver_node, wrap_result=True)

    def start_call(
        self, graph_name: str, token: Token, caller_node: str
    ) -> Event:
        """Graph call from an operation body; succeeds with the result token."""
        return self._start(graph_name, token, caller_node, wrap_result=False)

    def start_scatter(
        self, graph_name: str, token: Token, caller_node: str, on_token
    ) -> Event:
        """Inter-application scatter call (paper §6 future work).

        Runs the named scatter graph; each of its depth-1 output tokens
        is transferred to *caller_node* and handed to *on_token* (the
        calling split posts it as its own).  The returned event succeeds
        with the token count once the remote group is fully delivered.
        """
        graph = self.graph(graph_name)
        if not graph.scatter:
            raise ScheduleError(
                f"graph {graph_name!r} is not a scatter graph; use "
                f"call_graph() for ordinary services"
            )
        event = self._start(graph, token, caller_node, wrap_result=False,
                            scatter=True, on_token=on_token)
        return event

    def _start(
        self,
        graph: Union[Flowgraph, str],
        token: Token,
        driver_node: Optional[str],
        wrap_result: bool,
        scatter: bool = False,
        on_token=None,
    ) -> Event:
        graph = self._resolve_entry(graph, token, scatter=scatter)
        entry_node = graph.node(graph.entry)
        driver = driver_node or entry_node.collection.node_of(0)
        if driver not in self.controllers:
            raise ScheduleError(f"driver node {driver!r} not in cluster")
        ctx_id = next(self._ctx_counter)
        event = self.sim.event()
        self._activations[ctx_id] = _Activation(
            ctx_id, driver, event, wrap_result, self.sim.now,
            scatter=scatter, on_token=on_token, graph_name=graph.name,
        )
        instance = self.controllers[driver].scheduler.entry_route(graph)(token)
        env = DataEnvelope(
            token=token,
            graph=graph,
            node_id=graph.entry,
            instance=instance,
            ctx_id=ctx_id,
            frames=(),
        )
        self.trace("activation_start", graph=graph.name, driver=driver)
        self.transmit(env, driver, entry_node.collection.node_of(instance))
        return event

    def complete_activation(self, ctx_id: int, token: Token,
                            from_node: str, frame=None,
                            needs_ack: bool = False) -> None:
        """Called by a controller when the exit node posts a result.

        Ordinary graphs produce exactly one result; scatter graphs call
        this once per depth-1 output token (*frame* identifies the remote
        group; *needs_ack* says the token was admitted through an
        upstream flow-control window that expects consumption feedback).
        """
        act = self._activations.get(ctx_id)
        if act is None or act.done:
            raise ScheduleError(f"result for unknown/finished activation {ctx_id}")

        if act.scatter:
            act.received += 1

            def deliver_one():
                if needs_ack:
                    # consumed at the caller: return the opener's credit
                    self.controllers[act.driver_node].send_ack(
                        act.graph_name, frame)
                act.on_token(token)
                act.delivered += 1
                self._maybe_finish_scatter(act)

            self.sim.call(self._carry_result, token, from_node,
                          act.driver_node, deliver_one)
            return

        act.done = True

        def deliver():
            self.trace("activation_done", ctx=ctx_id)
            if act.wrap_result:
                act.event.succeed(RunResult(token, act.started_at,
                                            self.sim.now))
            else:
                act.event.succeed(token)

        self.sim.call(self._carry_result, token, from_node, act.driver_node,
                      deliver)

    def _carry_result(self, token: Token, src: str, dest: str, then) -> None:
        """Move a result token back to its caller's node, then run *then*."""
        if src == dest:
            then()
            return
        nbytes = self._wire_size(token) + DATA_HEADER_BYTES
        self.cluster.network.transfer(
            self.cluster.node(src), self.cluster.node(dest), nbytes,
        ).add_callback(lambda _: then())

    def scatter_total(self, ctx_id: int, total: int) -> None:
        """The remote scatter opener announced its group size."""
        act = self._activations.get(ctx_id)
        if act is None or not act.scatter:
            raise ScheduleError(f"scatter total for unknown activation {ctx_id}")
        act.total = total
        self._maybe_finish_scatter(act)

    def _maybe_finish_scatter(self, act: _Activation) -> None:
        if act.done or act.total is None or act.delivered < act.total:
            return
        act.done = True
        self.trace("activation_done", ctx=act.ctx_id, scatter=True)
        act.event.succeed(act.total)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _wire_size(self, token: Token) -> int:
        if self.serialize_payloads:
            # Size-only visitor: O(fields) arithmetic, never serializes
            # the payload (a multi-MB Buffer costs the same to price as
            # a scalar token).
            return measure(token)
        return token.payload_nbytes()

    def transmit(self, env: DataEnvelope, src: str, dest: str) -> None:
        """Move a data envelope between controllers (or locally)."""
        src_node = self.cluster.node(src)
        dest_node = self.cluster.node(dest)
        if src == dest:
            # Zero-copy pointer pass (paper §4): negligible local cost.
            self.sim.call(self._send, src_node, dest_node, 0, dest, env)
            return

        if self.serialize_payloads:
            # Single-copy wire path: scatter-gather serialize into one
            # owned buffer (large ndarray payloads are borrowed views
            # until the gather) and let the receiver borrow payloads
            # straight out of it — no defensive copies anywhere.
            payload = gather(encode_segments(env.token))
            if env.wire_nbytes is None:
                env.wire_nbytes = len(payload)
        else:
            payload = None
            if env.wire_nbytes is None:
                env.wire_nbytes = env.token.payload_nbytes()
        nbytes = env.wire_nbytes + DATA_HEADER_BYTES
        # The DPS communication layer builds/parses control structures and
        # runs the (near-zero-copy) serializer inline on each side.
        extra = dps_wire_overhead_seconds(nbytes) if self.charge_serialization else 0.0
        if self.tracer is not None:
            self.trace("serialize", node=src, seconds=extra, nbytes=nbytes)
        if self.metrics is not None:
            self.metrics.counter("wire_messages").inc()
            self.metrics.counter("wire_bytes").inc(nbytes)
            self.metrics.histogram("serialize_seconds").observe(extra)
        # delayed connection establishment (paper §4): the first data
        # object between two application instances opens the TCP socket
        conn_key = (self.app_of(env), src, dest)
        connect = 0.0
        if conn_key not in self._connected:
            self._connected.add(conn_key)
            connect = self.cluster.network.spec.connect_overhead
        self.sim.call(self._send, src_node, dest_node, nbytes, dest, env,
                      extra + connect, extra, payload, src)

    def send_control(self, src: str, dest: str, nbytes: int, message: Any) -> None:
        """Move a small control message (ack / group total)."""
        self.sim.call(self._send, self.cluster.node(src),
                      self.cluster.node(dest), nbytes, dest, message)

    def _send(self, src_node, dest_node, nbytes: int, dest: str, message: Any,
              tx_extra: float = 0.0, rx_extra: float = 0.0, payload=None,
              src: Optional[str] = None) -> None:
        """Put *message* on the network; the controller of *dest* receives
        it when the transfer completes.  A data envelope sent remotely
        (*src* given) is traced and, when it travelled as *payload*
        bytes, decoded on arrival."""
        def arrived(_):
            if payload is not None:
                # The replacement token is a round-trip through this very
                # buffer, so the memoized wire size stays exact.
                message.token = decode(payload, copy=False)
            if src is not None and self.tracer is not None:
                self.trace("token_send", src=src, dest=dest, nbytes=nbytes)
            self.controllers[dest].receive(message)

        self.cluster.network.transfer(
            src_node, dest_node, nbytes, tx_extra=tx_extra, rx_extra=rx_extra,
        ).add_callback(arrived)

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "driver"):
        """Run a driver process alongside the schedule (client loops)."""
        return self.sim.spawn(gen, name=name)

    def run(
        self,
        graph: Union[Flowgraph, str],
        token: Token,
        driver_node: Optional[str] = None,
        until: Optional[float] = None,
    ) -> RunResult:
        """Run one activation to completion and return its result."""
        event = self.start(graph, token, driver_node)
        self.sim.run(until=until)
        if not event.triggered:
            self._raise_stuck()
        self.check_quiescent()
        result = event.value
        # Membership counters are engine-cumulative (same contract as
        # the multiprocess engine's recovery snapshot).
        result.rebalances = self._rebalances
        result.tokens_moved = self._tokens_moved
        self.last_result = result
        return result

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Advance the simulation until *event* triggers.

        Unlike :meth:`run`, this leaves other activity (client driver
        loops, concurrent activations) pending — it is the primitive for
        workloads with perpetual background processes.  Raises if the
        event queue drains or *limit* virtual seconds pass first.
        """
        while not event.triggered:
            if limit is not None and self.sim.now > limit:
                raise ScheduleError(
                    f"run_until() exceeded the virtual time limit {limit}"
                )
            if not self.sim.step():
                self._raise_stuck()
        if not event.ok:
            raise event.value
        return event.value

    def run_to_completion(self, until: Optional[float] = None) -> float:
        """Drain all pending activity; returns the final virtual time."""
        t = self.sim.run(until=until)
        self.check_quiescent()
        return t

    def _raise_stuck(self) -> None:
        details = []
        group_nodes: Dict[int, list] = {}
        for controller in self.controllers.values():
            details.extend(controller.open_groups())
            for group in controller.scheduler.open_groups():
                group_nodes.setdefault(group.group_id, []).append(
                    controller.node_name)
            pending = controller.pending_posts()
            if pending:
                details.append(
                    f"{pending} posts stuck behind flow control at "
                    f"{controller.node_name}"
                )
        for gid, nodes in group_nodes.items():
            if len(nodes) > 1:
                details.append(
                    f"group {gid} was routed to multiple merge instances on "
                    f"{nodes}; all tokens of one group must reach the same "
                    f"merge thread"
                )
        raise ScheduleError(
            "schedule did not complete; likely a routing bug (tokens of one "
            "group sent to different merge instances) or a flow-control "
            "deadlock. Diagnostics: " + ("; ".join(details) or "none")
        )

    def check_quiescent(self) -> None:
        """Verify no merge group or flow-control queue is left dangling."""
        problems = []
        for controller in self.controllers.values():
            problems.extend(controller.open_groups())
            if controller.pending_posts():
                problems.append(
                    f"pending posts at {controller.node_name}"
                )
        for act in self._activations.values():
            if not act.done:
                problems.append(f"activation {act.ctx_id} never completed")
        if problems:
            raise ScheduleError("non-quiescent schedule: " + "; ".join(problems))

    def fail_node(self, node_name: str) -> int:
        """Simulate a node crash: every DPS thread on it is lost.

        The machine itself stays in the cluster model (it may be
        rebooted / replaced); what disappears is the application state.
        Returns the number of threads lost.  The schedule must be
        quiescent — mid-flight failure in the simulated engine is beyond
        the paper's lightweight checkpointing approach (use
        MultiprocessEngine with ``recover=True`` for that).
        """
        self.check_quiescent()
        lost = self.controllers[node_name].fail()
        self.trace("node_failed", node=node_name, lost_threads=lost)
        return lost

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def members(self) -> tuple:
        """Nodes currently eligible to host thread instances (sorted)."""
        return tuple(sorted(self._members))

    def add_kernel(self, node_name: Optional[str] = None) -> str:
        """Grow the cluster by one node and rebalance onto it.

        A brand-new machine is modelled on the first node's spec (same
        CPU count and flop rate); a previously retired node is simply
        re-admitted.  The schedule must be quiescent; thread instances
        migrate (with state, priced by ``state_nbytes``) through the
        same :meth:`remap` machinery failure recovery uses.
        """
        if node_name is None:
            i = 1
            while f"node{i:02d}" in self.cluster.nodes:
                i += 1
            node_name = f"node{i:02d}"
        if node_name in self._members:
            raise ScheduleError(f"node {node_name!r} is already a member")
        if node_name not in self.cluster.nodes:
            template = self.cluster.spec.nodes[0]
            self.cluster.add_node(dataclasses.replace(template,
                                                      name=node_name))
            self.controllers[node_name] = SimController(self, node_name)
        self._members.add(node_name)
        self._rebalance(joined=(node_name,))
        return node_name

    def retire_kernel(self, node_name: str) -> int:
        """Drain *node_name* and remove it from membership.

        Thread instances (and the distributed data they hold) migrate
        off onto the remaining members; the machine stays in the cluster
        model so it can be re-admitted later.  Returns the number of
        thread placements moved.
        """
        if node_name not in self._members:
            raise ScheduleError(
                f"node {node_name!r} is not a member; members: "
                f"{sorted(self._members)}")
        if len(self._members) == 1:
            raise ScheduleError("cannot retire the last member node")
        self._members.discard(node_name)
        try:
            return self._rebalance(retired=(node_name,))
        except BaseException:
            self._members.add(node_name)  # roll back membership
            raise

    def _rebalance(self, joined=(), retired=()) -> int:
        """Voluntary rebalance: spread placements over the members."""
        self.check_quiescent()
        graphs = list(self._graphs.values())
        mapping, moved = plan_rebalance(graphs, sorted(self._members),
                                        joined=joined)
        colls = {c.name: c for c in _unique_collections(graphs)}
        for name, placements in mapping.items():
            self.remap(colls[name], list(placements))
        self._rebalances += 1
        self._tokens_moved += moved
        self.trace("rebalance", joined=list(joined), retired=list(retired),
                   moved=moved, members=sorted(self._members))
        if self.metrics is not None:
            self.metrics.counter("rebalances").inc()
            if moved:
                self.metrics.counter("tokens_moved").inc(moved)
        return moved

    # ------------------------------------------------------------------
    # dynamic reshaping
    # ------------------------------------------------------------------
    def remap(self, collection, mapping: str | list) -> Dict[str, Any]:
        """Remap a thread collection onto different nodes at runtime.

        The paper's dynamicity story (§2, §6): *"Dynamically created
        thread collections and mappings of threads to nodes also offer
        the potential for dynamically allocating computing and I/O
        resources according to the requirements of multiple concurrently
        running parallel applications."*

        The schedule must be quiescent (between activations).  Thread
        objects — and thus the distributed data they hold — migrate to
        their new nodes over the network, priced by
        :meth:`~repro.core.DpsThread.state_nbytes`.  The thread count
        must stay the same (redistribution across a different number of
        threads is application logic, not a runtime concern).

        Returns a report dict: migrated thread count, bytes moved and
        virtual migration time.
        """
        self.check_quiescent()
        old_placements = collection.placements
        if isinstance(mapping, str):
            collection.map(mapping)
        else:
            collection.map_nodes(mapping)
        new_placements = collection.placements
        if len(new_placements) != len(old_placements):
            collection.map_nodes(old_placements)  # roll back
            raise ScheduleError(
                f"remap cannot change the thread count "
                f"({len(old_placements)} -> {len(new_placements)}); "
                f"redistribute data at the application level instead"
            )
        self._validate_mapping_nodes(new_placements, collection)
        moves = [
            (i, old, new)
            for i, (old, new) in enumerate(zip(old_placements, new_placements))
            if old != new
        ]
        report = {"migrated": 0, "bytes": 0, "started_at": self.sim.now,
                  "duration": 0.0}

        def migrate():
            for index, old, new in moves:
                thread = self.controllers[old].evict_thread(collection, index)
                if thread is None:
                    # never instantiated: nothing to move, it will be
                    # created lazily on the new node
                    continue
                nbytes = thread.state_nbytes() + DATA_HEADER_BYTES
                yield self.cluster.network.transfer(
                    self.cluster.node(old), self.cluster.node(new), nbytes
                )
                self.controllers[new].adopt_thread(collection, index, thread)
                report["migrated"] += 1
                report["bytes"] += nbytes
                self.trace("thread_migrated", collection=collection.name,
                           index=index, src=old, dest=new, nbytes=nbytes)
            report["duration"] = self.sim.now - report["started_at"]

        proc = self.sim.spawn(migrate(), name=f"remap:{collection.name}")
        self.run_until(proc)
        return report

    def _validate_mapping_nodes(self, placements, collection) -> None:
        for node_name in placements:
            if node_name not in self.controllers:
                raise ScheduleError(
                    f"collection {collection.name!r} remapped to unknown "
                    f"node {node_name!r}"
                )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate run statistics (network, CPU, flow control).

        Formerly ``metrics()`` — renamed so ``metrics=`` can hold an
        attached :class:`~repro.trace.MetricsRegistry` uniformly across
        engines.
        """
        net = self.cluster.network
        per_node = {
            name: {
                "compute_time": node.compute_time,
                "cpu_utilization": node.cpu_utilization(),
            }
            for name, node in self.cluster.nodes.items()
        }
        stalls = 0
        posted = 0
        for controller in self.controllers.values():
            for window in controller.window_stats().values():
                stalls += window.stalls
                posted += window.total_posted
        return {
            "time": self.sim.now,
            "network_bytes": net.bytes_sent,
            "network_messages": net.messages_sent,
            "local_messages": net.local_messages,
            "nodes": per_node,
            "window_stalls": stalls,
            "tokens_posted": posted,
        }

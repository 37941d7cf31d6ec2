"""Multiprocess execution engine: real parallel DPS kernels over TCP.

:class:`MultiprocessEngine` is the third engine flavour (after the
simulated and threaded ones) and the closest to the C++ runtime the
paper describes: it forks **one OS process per logical node** named in
the thread-collection mappings, each running a
:class:`~repro.net.kernel.DistributedKernel` on its main thread — the
scheduler core, its operation bodies and every socket on the kernel's
one I/O loop — and nothing else.  Kernels find each other through the
name server and dial lazily, on their loops, on the first token they
ship; tokens travel in the zero-copy wire format over framed
scatter-gather sockets.

The driver process hosts a *console kernel* (``"__driver__"``) that owns
no thread instances; it only initiates activations and collects their
results, so ``engine.run(graph, token)`` behaves exactly like the other
engines and the example applications run unmodified.  The console's
state is its loop's: ``run`` hands the activation to the loop and waits
for its ``RunResult``, read there as the activation completes.  Joins,
retires and admissions are control coroutines on the same loop, one at
a time, so the process table is the loop's too.  So is the name
server's directory: the kernels and service clients reach it over TCP
at :attr:`ns_address`, the console by plain calls.

Because each kernel is a separate interpreter, CPython's GIL no longer
serializes compute: CPU-bound operations genuinely run in parallel
(see ``benchmarks/test_mp_throughput.py``).

Child processes are created with the ``fork`` start method so that
graphs, operation classes and thread classes defined anywhere (including
test function scopes) are inherited without pickling; the engine
therefore requires a platform with ``fork`` (Linux, macOS under the fork
method) and forks the first kernels *before* the console kernel starts
its I/O loop; a joiner is forked on that loop.  The engine starts no
thread: a child's ready pipe and exit sentinel are readers on that loop,
and liveness and autoscale decisions are timers there, reading one table
of the ``MSG_BEAT`` frames (name, queue depth) the kernels send the
console.  The name server is a directory only.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import socket
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.flowcontrol import FlowControlPolicy, StreamPolicy
from ..core.graph import Flowgraph
from ..core.routing import RoutingPolicy
from ..net.connections import TransportPolicy
from ..net.eventloop import IOLoop
from ..net.kernel import CONSOLE_KERNEL, DistributedKernel, _Wait, \
    run_kernel_process
from ..net.nameserver import NameServer, NameServerClient
from ..net.recovery import FaultPolicy
from ..serial.token import Token
from .base import Engine
from .controller import ScheduleError
from .scaling import ScalingPolicy

__all__ = ["MultiprocessEngine"]


def _reap_processes(procs: List[multiprocessing.process.BaseProcess]) -> None:
    """Kill any forked child still alive in *procs* (SIGKILL: a stopped
    process never acts on SIGTERM).

    Module-level (no reference back to the engine) so it can serve as a
    :func:`weakref.finalize` callback: it fires when the engine is
    garbage-collected without :meth:`MultiprocessEngine.shutdown` — e.g.
    a KeyboardInterrupt or an exception mid-startup — and again at
    interpreter exit, so an aborted run cannot orphan a kernel process,
    which holds the name-service listener it inherited and so the port.
    """
    for proc in procs:
        try:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2)
        except Exception:
            pass  # best-effort: reaping must never raise during teardown


def _once_readable(console: DistributedKernel, fd: int,
                   fn: Callable[[], None]) -> None:
    """Call *fn* on the console's loop the first time *fd* is readable,
    then resume the control coroutines whose wait that satisfied."""
    loop = console._io_loop

    def readable() -> None:
        loop.remove_reader(fd)
        fn()
        console._recheck()

    loop.add_reader(fd, readable)


class MultiprocessEngine(Engine):
    """Run DPS schedules on one OS process per logical node."""

    def __init__(self, policy: Optional[FlowControlPolicy] = None,
                 dial_deadline: float = 15.0,
                 startup_timeout: float = 30.0,
                 tracer: Optional[Any] = None,
                 metrics: Optional[Any] = None,
                 transport: Optional[TransportPolicy] = None,
                 recover: bool = False,
                 faults: Optional[FaultPolicy] = None,
                 heartbeat_interval: float = 0.25,
                 heartbeat_miss_limit: int = 4,
                 ns_port: int = 0,
                 routing: Optional[RoutingPolicy] = None,
                 scaling: Optional[ScalingPolicy] = None,
                 stream: Optional[StreamPolicy] = None):
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise ScheduleError(
                "MultiprocessEngine requires the 'fork' start method; "
                "use ThreadedEngine on this platform"
            ) from exc
        super().__init__(policy=policy, tracer=tracer, metrics=metrics,
                         stream=stream)
        #: Shared-memory lane tuning; every forked kernel gets the same
        #: policy.
        self.transport = transport if transport is not None \
            else TransportPolicy()
        #: Failure recovery (split-boundary replay) is opt-in: the
        #: default preserves fail-fast semantics — a dead kernel fails
        #: the caller with KernelFailure instead of being masked.
        self.recover = bool(recover)
        #: Deterministic chaos injection, shipped to every forked kernel.
        self.faults = faults if faults is not None else FaultPolicy()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_limit = heartbeat_miss_limit
        self.dial_deadline = dial_deadline
        self.startup_timeout = startup_timeout
        #: Engine-wide routing policy (``round_robin``/``queue_depth``),
        #: shipped to every forked kernel.
        self.routing = routing if routing is not None else RoutingPolicy()
        #: Autoscaling policy driving spawn/retire decisions from the
        #: heartbeat-reported queue depths.  With ``scaling=None``
        #: autoscaling stays off and membership changes only happen
        #: through explicit :meth:`add_kernel`/:meth:`retire_kernel`.
        self.scaling = scaling
        # Membership bookkeeping and the process table are the console
        # loop's once it runs.  One membership operation at a time:
        self._member_busy = False
        self._last_scale_change = 0.0
        self._next_ordinal = 1
        self._retired: set = set()
        #: Kernels the autoscaler added — the only ones it may retire
        #: (seed kernels and user-added ones are never scaled away).
        self._elastic_kernels: List[str] = []
        #: CLI joiners: kernels that beat to our console from outside
        #: this process (no local Process handle).
        self._external_kernels: set = set()
        #: member -> liveness ticks in a row that saw no beat from it
        self._misses: Dict[str, int] = {}
        #: Requested name-server port; 0 picks an ephemeral one.  The
        #: resolved ``(host, port)`` lands in :attr:`ns_address` once the
        #: cluster is up, so external clients can be pointed at it.
        self.ns_port = ns_port
        self.ns_address: Optional[Tuple[str, int]] = None
        self._console: Optional[DistributedKernel] = None
        self._kernel_procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._closed = False
        # Every forked child is appended here; the finalizer reaps
        # whatever shutdown() did not get to (GC after an exception,
        # interpreter exit after SIGINT) so no orphan keeps the port.
        self._orphans: List[multiprocessing.process.BaseProcess] = []
        self._reaper = weakref.finalize(self, _reap_processes, self._orphans)

    # ------------------------------------------------------------------
    # registration (shared Engine base + fork-time freeze)
    # ------------------------------------------------------------------
    def _register(self, graph: Flowgraph, app_name: str, name: str) -> None:
        if self._console is not None:
            raise ScheduleError(
                "cannot register graphs after the kernel processes have "
                "been forked; register everything before the first run()"
            )
        super()._register(graph, app_name, name)

    @property
    def kernel_names(self) -> List[str]:
        """Logical node names the registered graphs are mapped onto."""
        names = set()
        for graph in self._graphs.values():
            for collection in graph.collections():
                names.update(collection.placements)
        return sorted(names)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> DistributedKernel:
        if self._closed:
            raise ScheduleError("engine has been shut down")
        if self._console is not None:
            return self._console
        if not self._graphs:
            raise ScheduleError("no graphs registered")
        kernels = self.kernel_names
        if not kernels:
            raise ScheduleError("registered graphs map no thread collections")

        ns_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        ns_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        ns_sock.bind(("127.0.0.1", self.ns_port))
        ns_sock.listen(64)
        # Bound before any kernel forks: the kernels know where to
        # register, and wait in the backlog until the console's loop
        # turns and answers them.
        self.ns_address = ns_sock.getsockname()[:2]

        # From here on any failure — a kernel that never comes up, a
        # KeyboardInterrupt while waiting, a console that cannot dial —
        # must tear down what was already forked: a kernel inherits the
        # listener, so one left over keeps the port.
        loop = None
        try:
            peers = [CONSOLE_KERNEL, *kernels]
            # Fork the kernels BEFORE the console kernel spins up its
            # I/O loop — forking a multi-threaded parent is where the
            # dragons live.  Ordinal 0 is the console; workers start
            # at 1.
            self._next_ordinal = len(kernels) + 1
            forked = [(name, self._fork_kernel(name, ordinal, peers))
                      for ordinal, name in enumerate(kernels, start=1)]

            # The directory is answered on the console's loop, which
            # adopts the listener (and closes it when it closes).
            loop = IOLoop(CONSOLE_KERNEL, metrics=self.metrics)
            directory = NameServer(ns_sock, loop=loop)
            console = self._make_console(self.ns_address, peers,
                                         loop=loop, ns=directory.client())
            for graph in self._graphs.values():
                console.register_graph(graph)
            console.start()
            self._console = console
            # A kernel is ready once it registered, through that loop.
            for name, (proc, ready) in forked:
                ready.poll(self.startup_timeout)
                console._call(lambda: self._check_ready(console, name,
                                                        proc, ready))
        except BaseException:
            if loop is None:
                ns_sock.close()
            elif self._console is None:
                loop.close()
            self.shutdown()
            raise

        if self.heartbeat_interval > 0:
            console._io_loop.call_later(self.heartbeat_interval,
                                        self._liveness_tick)
        if self.scaling is not None:
            self._last_scale_change = time.monotonic()
            console._io_loop.call_later(max(self.heartbeat_interval, 0.05),
                                        self._autoscale_tick)
        return console

    def _fork_kernel(self, name: str, ordinal: int, peers: List[str]):
        """Fork one kernel process; returns it with the read end of its
        ready pipe, which the kernel writes once it has registered.  It
        becomes a member once :meth:`_check_ready` has seen that."""
        ready, ready_w = self._mp.Pipe(duplex=False)
        proc = self._mp.Process(
            target=run_kernel_process,
            args=(name, ordinal, self.ns_address, peers,
                  list(self._graphs.values()), self.policy, ready_w,
                  self.tracer is not None or self.metrics is not None,
                  self.transport, self.recover, self.faults,
                  self.heartbeat_interval, self.routing, self.stream),
            name=f"dps-kernel:{name}", daemon=True)
        proc.start()
        ready_w.close()  # the child's now: end-of-file means it exited
        self._orphans.append(proc)
        return proc, ready

    def _check_ready(self, console: DistributedKernel, name: str, proc,
                     ready) -> None:
        """Enter *proc* as a member, watched, if it said it is ready on
        *ready*, which by now is readable or has timed out; raise
        otherwise, once it is reaped.  On the console's loop."""
        try:
            if ready.poll():
                ready.recv_bytes()
                self._kernel_procs[name] = proc
                self._watch(console, name, proc)
                return
            problem = f"failed to start within {self.startup_timeout}s"
        except EOFError:
            problem = "exited before it was ready"
        finally:
            ready.close()
        _reap_processes([proc])
        raise ScheduleError(f"kernel process {name!r} {problem} "
                            f"(exitcode {proc.exitcode})")

    def _make_console(self, ns_address, peers, loop: IOLoop,
                      ns: NameServerClient) -> DistributedKernel:
        """Build the driver-side console kernel on *loop*, reaching the
        directory that loop hosts through *ns* (ServiceEngine overrides
        this to substitute its session-aware subclass).

        The console records straight into the engine-level tracer and
        metrics registry; worker-kernel buffers merge into the same
        objects at collect_traces() time.
        """
        return DistributedKernel(
            CONSOLE_KERNEL, 0, ns_address, peers,
            policy=self.policy, dial_deadline=self.dial_deadline,
            tracer=self.tracer, metrics=self.metrics,
            transport=self.transport, recover=self.recover,
            routing=self.routing, stream=self.stream, loop=loop, ns=ns)

    def _watch(self, console: DistributedKernel, name: str, proc) -> None:
        """Report *proc*'s exit to the console (a retire waits for it)."""
        def exited() -> None:
            if name not in self._retired and not self._closed:
                console.handle_kernel_down(
                    name, f"exitcode {proc.exitcode}", propagate=False)

        _once_readable(console, proc.sentinel, exited)

    def _liveness_tick(self) -> None:
        """Console-loop timer: a member that no beat reached for
        ``heartbeat_miss_limit`` ticks in a row is declared down.

        Exit sentinels catch dead kernels; this catches *hung* ones,
        which keep their sockets open.  Misses are ticks, not seconds: a
        console loop held up (by a joiner's fork, say) is not charged to
        the kernels.
        """
        console = self._console
        if console is None or self._closed:
            return
        beaten, console._beaten = console._beaten, set()
        self._admit_external(console)
        misses: Dict[str, int] = {}
        for name in self._members():
            if name in beaten or name in console._dead_kernels:
                continue
            misses[name] = missed = self._misses.get(name, 0) + 1
            if missed == self.heartbeat_miss_limit:
                if self.metrics is not None:
                    self.metrics.counter("heartbeats_missed").inc(missed)
                console.handle_kernel_down(
                    name, f"no beat in {missed} liveness ticks",
                    propagate=False)
        self._misses = misses
        console._io_loop.call_later(self.heartbeat_interval,
                                    self._liveness_tick)

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def _poll_depths(self) -> Dict[str, int]:
        """The queue depth each live kernel last beat to the console."""
        console = self._console
        return {name: load for name, load in console._loads.items()
                if name not in self._retired
                and name not in console._dead_kernels}

    def _start_membership(self, console: DistributedKernel, steps) -> None:
        """Drive what a tick decided on, unless a membership operation is
        in flight: then a later tick decides again.  What it raises is
        dropped (mid-recovery or teardown; a later tick retries)."""
        if not self._member_busy:
            console._drive(self._in_turn(console, steps),
                           lambda outcome: None)

    def _in_turn(self, console: DistributedKernel, steps):
        """Run membership coroutine *steps* once no other one is in
        flight: two at once would share the console's member barrier."""
        while self._member_busy:  # that one's own deadlines bound it
            yield _Wait(lambda: not self._member_busy, 1.0)
        self._member_busy = True
        try:
            return (yield from steps)
        finally:
            self._member_busy = False
            console._io_loop.call(console._recheck)

    def _membership(self, op: Callable, *args) -> Any:
        """Run ``op(console, *args)`` on the console's loop after any
        membership operation in flight, and wait for its outcome.  A
        join's fork holds that loop while it lasts; a call from the
        loop's own thread is refused."""
        console = self._ensure_started()
        if console._io_loop.on_loop_thread():
            raise ScheduleError("a membership operation cannot be called "
                                "from the console's own loop")
        steps = self._in_turn(console, op(console, *args))
        return console._hand_over(lambda reply: console._drive(steps, reply))

    def _admit_external(self, console: DistributedKernel) -> None:
        """Admit CLI joiners: any kernel beating to the console that
        this engine did not fork (``repro.cli join --ns ...``).

        Admission runs the same voluntary rebalance as
        :meth:`add_kernel`; it is skipped while a rebalance or failure
        recovery is already in flight and retried on the next liveness
        tick — a kernel beating mid-barrier simply waits a tick for
        membership.
        """
        strangers = sorted(set(console._loads) - set(self._kernel_procs)
                           - self._external_kernels - self._retired)
        if strangers and not (console._rebalancing or console._dead_kernels):
            self._start_membership(console, self._admit(console, strangers))

    def _admit(self, console: DistributedKernel, strangers: List[str]):
        for name in strangers:
            try:
                yield from console._rebalance(joined=[name],
                                              depths=self._poll_depths())
            except Exception:
                # Not admitted: forgotten, unless it beats again.
                console._loads.pop(name, None)
                continue
            self._external_kernels.add(name)

    def members(self) -> Tuple[str, ...]:
        """Live kernel names (sorted), excluding the console."""
        if self._console is None:
            return tuple(self.kernel_names)
        return self._console._call(self._members)

    def _members(self) -> Tuple[str, ...]:
        live = (set(self._kernel_procs) | self._external_kernels) \
            - self._retired
        return tuple(sorted(live))

    def add_kernel(self, node_name: Optional[str] = None) -> str:
        """Fork a new kernel process and rebalance thread instances onto
        it mid-run.

        The joiner registers with the name server, the console quiesces
        in-flight activations, ships the migrating thread instances (and
        their state) over, and replays journaled split boundaries — the
        next :meth:`run` produces bit-identical results on the grown
        cluster.  Returns the new kernel's name.  Waits for any
        membership operation in flight (see :meth:`_membership`).
        """
        return self._membership(self._join, node_name)

    def _join(self, console: DistributedKernel, node_name: Optional[str]):
        if node_name is None:
            i = 1
            used = set(self._kernel_procs) | self._external_kernels \
                | self._retired | set(self.kernel_names)
            while f"node{i:02d}" in used:
                i += 1
            node_name = f"node{i:02d}"
        elif (node_name in self._kernel_procs
                or node_name in self._external_kernels):
            raise ValueError(f"kernel {node_name!r} is already a member")
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        proc, ready = self._fork_kernel(
            node_name, ordinal, [CONSOLE_KERNEL, *self._members(), node_name])
        # Ready or exited, the pipe turns readable; it may close only
        # once its reader has fired (or was removed: timed out).
        fired: List[bool] = []
        _once_readable(console, ready.fileno(), lambda: fired.append(True))
        yield _Wait(lambda: bool(fired), self.startup_timeout)
        if not fired:
            console._io_loop.remove_reader(ready.fileno())
        self._check_ready(console, node_name, proc, ready)
        yield from console._rebalance(joined=[node_name],
                                      depths=self._poll_depths())
        return node_name

    def retire_kernel(self, node_name: str) -> int:
        """Gracefully drain *node_name* and remove it from the cluster.

        The console quiesces, migrates the kernel's thread instances
        (with state) onto the survivors, and only then orders the
        process to exit — no journal replay, no recovery storm.  Returns
        the number of thread instances that moved off.  Waits for any
        membership operation in flight (see :meth:`_membership`).
        """
        return self._membership(self._retire, node_name)

    def _retire(self, console: DistributedKernel, node_name: str):
        proc = self._kernel_procs.get(node_name)
        if proc is None and node_name not in self._external_kernels:
            raise ValueError(
                f"unknown kernel {node_name!r}; members: "
                f"{list(self._members())}")
        moved = yield from console._rebalance(retired=[node_name],
                                              depths=self._poll_depths())
        # Mark retired BEFORE ordering shutdown so the exit sentinel and
        # the liveness tick treat the exit as voluntary, not a failure.
        self._retired.add(node_name)
        self._external_kernels.discard(node_name)
        console.request_shutdown(node_name)
        if proc is not None:  # woken by the exit sentinel's reader
            yield _Wait(lambda: bool(multiprocessing.connection.wait(
                [proc.sentinel], 0)), 10.0)
            _reap_processes([proc])  # still there after 10 s: killed
            self._kernel_procs.pop(node_name, None)
        return moved

    def _autoscale_tick(self) -> None:
        """Console-loop timer: drive :class:`ScalingPolicy` from the
        beat-reported queue depths.

        Growth forks fresh kernels; shrink retires only kernels the
        autoscaler added (never seed kernels or explicit
        :meth:`add_kernel` joins), so autoscaling can always fall back
        to the user's topology.
        """
        console = self._console
        if console is None or self._closed:
            return
        depths = self._poll_depths()
        shrink_candidates = [k for k in self._elastic_kernels
                             if k in self._kernel_procs
                             and k not in self._retired]
        decision = self.scaling.decide(len(self._members()), depths,
                                       self._last_scale_change,
                                       time.monotonic())
        # (a no-op while an earlier operation is still in flight)
        if decision == "grow":
            self._start_membership(console, self._grow(console))
        elif decision == "shrink" and shrink_candidates:
            self._start_membership(
                console, self._shrink(console, shrink_candidates[-1]))
        console._io_loop.call_later(max(self.heartbeat_interval, 0.05),
                                    self._autoscale_tick)

    def _grow(self, console: DistributedKernel):
        name = yield from self._join(console, None)
        self._elastic_kernels.append(name)
        self._last_scale_change = time.monotonic()

    def _shrink(self, console: DistributedKernel, name: str):
        yield from self._retire(console, name)
        if name in self._elastic_kernels:
            self._elastic_kernels.remove(name)
        self._last_scale_change = time.monotonic()

    def collect_traces(self, timeout: float = 5.0) -> List[str]:
        """Merge every kernel's trace buffer/metrics into this engine's.

        Runs automatically during :meth:`shutdown`; call it earlier to
        inspect a mid-run timeline.  Returns kernels that failed to
        answer (normally empty).
        """
        console = self._console
        if console is None:
            return []
        return console.collect_traces(list(self._answering(console)),
                                      timeout=timeout)

    def _answering(self, console: DistributedKernel) -> Dict[str, Any]:
        """Kernels that can still answer the console: running and not
        declared down.  Asking one that exited or hangs makes the
        console dial a name nobody holds and wait out a timeout.  A copy
        made on the console's loop, where a join or retire resizes the
        table."""
        return console._call(lambda: {
            name: proc for name, proc in self._kernel_procs.items()
            if proc.is_alive() and name not in console._dead_kernels})

    def _procs(self) -> Dict[str, multiprocessing.process.BaseProcess]:
        """A copy of the process table, made on the console's loop once
        there is one."""
        console = self._console
        if console is None:
            return dict(self._kernel_procs)
        return console._call(lambda: dict(self._kernel_procs))

    def shutdown(self) -> None:
        """Tear the cluster down: shutdown barrier, then the processes."""
        if self._closed:
            return
        self._closed = True
        console = self._console
        asked = {}
        if console is not None:
            asked = self._answering(console)
            # CLI joiners have no Process handle here, but are members
            # all the same: left unasked, one outlives the cluster.
            joiners = console._call(lambda: sorted(
                self._external_kernels - self._retired
                - console._dead_kernels))
            if self.tracer is not None or self.metrics is not None:
                # Pull per-kernel trace buffers into the engine tracer
                # BEFORE ordering shutdown, while every peer still answers.
                try:
                    console.collect_traces(list(asked))
                except Exception:
                    pass  # observability must never block teardown
            # Stop treating peer errors as failures; we are leaving anyway.
            console.leaving()
            for name in [*asked, *joiners]:
                try:
                    console.request_shutdown(name)
                except Exception:
                    pass
        deadline = time.monotonic() + 5.0
        for proc in asked.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        # Whoever is left was never asked (no console; exited or hung)
        # or is deaf to it.
        _reap_processes(list(self._procs().values()))
        if console is not None:
            console.shutdown()
            self._console = None
        # A kernel that never became a member (a joiner not ready yet, a
        # seed of a failed start) is left; once it is reaped the GC/exit
        # finalizer has nothing to do.
        _reap_processes(self._orphans)
        self._orphans.clear()

    def __enter__(self) -> "MultiprocessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_node(self, node_name: str) -> int:
        """Kill the kernel process hosting *node_name* (SIGKILL).

        An in-flight run observes the death through the process
        sentinel: with ``recover=True`` the console remaps the dead
        kernel's thread instances onto survivors and replays un-acked
        tokens; otherwise the caller fails fast with
        :class:`~repro.runtime.controller.KernelFailure`.  Returns the
        number of thread instances that lived on the killed kernel.
        """
        procs = self._procs()
        proc = procs.get(node_name)
        if proc is None:
            raise ValueError(
                f"unknown kernel {node_name!r}; running kernels: "
                f"{sorted(procs)}")
        lost = 0
        seen = set()
        for graph in self._graphs.values():
            for collection in graph.collections():
                if id(collection) in seen:
                    continue
                seen.add(id(collection))
                lost += collection.placements.count(node_name)
        proc.kill()
        proc.join(timeout=5)
        return lost

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, graph: Union[Flowgraph, str], token: Token,
            timeout: float = 60.0) -> Token:
        """Run one activation across the kernel cluster; returns the
        result token delivered back to the console kernel."""
        if isinstance(graph, str):
            graph = self.graph(graph)
        elif graph.name not in self._graphs:
            self.register_graph(graph)
        console = self._ensure_started()
        self.last_result = result = console.run_result(graph, token, timeout)
        return result.token

"""The seven workloads.

Each workload builds its engine through the program's public API with
default settings only, generates its inputs from the seed, and checks
every output.  One *lifetime* is ``open()`` (construct the engine and
get a first, verified 4-token result) ... ``rep()`` any number of
times ... ``close()``.  Sizes are per rep and fixed; ``scale`` exists
for the self-test only.

Hazards found while sizing are worked around here rather than in
``src/`` (bench/README.md, "Hazards", has the details):

* the stream sink gets its own thread collection (``build_stream_graph``
  shares one thread between source and sink, which deadlocks past 8
  windows);
* service sessions stay open across reps and carry unique names
  (re-opening a used name times out);
* the warm-up (``bench.run``) lasts a full rep and at least 2 s, past
  the fast phase a machine shows after it has been idle;
* every lifetime sweeps the shared-memory arenas the program leaks from
  the second lifetime in a process on.
"""

from __future__ import annotations

import collections
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    ArrivalProcess,
    Buffer,
    ConstantRoute,
    Flowgraph,
    FlowgraphNode,
    MultiprocessEngine,
    RoundRobinRoute,
    ServiceClient,
    ServiceEngine,
    ThreadCollection,
    ThreadedEngine,
    paper_cluster,
)
from repro.apps import gol_service, ring, stream_pipeline, strings

from .measure import shm_segments, sweep_shm

RING_NODES = ["node01", "node02", "node03", "node04"]
#: The default flow-control window; only used to turn throughput into
#: a token's in-flight time (Little's law), never passed to an engine.
DEFAULT_WINDOW = 8


class BenchError(RuntimeError):
    """The benchmark could not set a workload up."""


@dataclass
class Rep:
    """One repetition: operations attempted, how many were wrong or
    missing, wall seconds, and per-operation timings where the workload
    has operations smaller than the rep."""

    tokens: int
    failed: int
    seconds: float
    #: ``(start, end)`` on the monotonic clock, one per operation
    ops: List[Tuple[float, float]] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _scaled(n: int, scale: float, multiple: int = 1) -> int:
    return max(multiple, int(n * scale) // multiple * multiple)


class Workload:
    """Base: name, documentation and the lifetime protocol."""

    name = ""
    #: tokens in flight in the closed loop, where a window closes it
    window: Optional[int] = None
    #: process boundaries one token crosses
    wire_hops = 0
    #: operation classes whose bodies do the token's own work
    leaf_ops: Tuple[str, ...] = ()
    #: runs in virtual time on the simulated cluster
    simulated = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.engine = None
        self._shm_before = shm_segments()

    def open(self, tracer=None, metrics=None) -> None:
        raise NotImplementedError

    def rep(self) -> Rep:
        raise NotImplementedError

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None
            sweep_shm(self._shm_before)

    def build_graph(self):
        """The flow graph, where the workload builds it itself."""
        return None

    def sample_token(self):
        """A token of the kind this workload ships most, for the codec,
        framing and protocol probes."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# the paper's Fig. 6 ring on four kernel processes
# ---------------------------------------------------------------------------

class _Ring(Workload):
    window = DEFAULT_WINDOW
    wire_hops = len(RING_NODES)
    leaf_ops = ("RingForward",)
    block_bytes = 512
    blocks = 0

    def build_graph(self):
        return ring.build_ring_graph(RING_NODES)

    def open(self, tracer=None, metrics=None) -> None:
        self.engine = MultiprocessEngine(tracer=tracer, metrics=metrics)
        self.graph = self.build_graph()
        self.engine.register_graph(self.graph)
        if self._transfer(4) != 0:
            raise BenchError(f"{self.name}: first ring result is wrong")

    def _transfer(self, blocks: int) -> int:
        """Run one ring job; returns how many blocks were lost."""
        done = self.engine.run(
            self.graph, ring.RingJobToken(self.block_bytes, blocks),
            timeout=120)
        if (done.blocks == blocks
                and done.received_bytes == blocks * self.block_bytes):
            return 0
        return blocks

    def rep(self) -> Rep:
        blocks = _scaled(self.blocks, self.scale)
        start = time.perf_counter()
        failed = self._transfer(blocks)
        return Rep(blocks, failed, time.perf_counter() - start)

    def sample_token(self):
        payload = np.zeros(self.block_bytes, dtype=np.uint8)
        return ring.RingBlockToken(Buffer(payload), 3, 9)


class RingSmall(_Ring):
    """Per-message cost dominates: codec, framing, event loop and kernel
    do nearly all the work."""

    name = "ring_small"
    blocks = 2000


class RingLarge(_Ring):
    """The same layers moving bytes, not messages (shm lane, borrowed
    segments): a small-token win must not cost bulk transfer."""

    name = "ring_large"
    block_bytes = 1 << 20
    blocks = 500


class RingCall(_Ring):
    """Unloaded latency of one activation, one in flight: batching,
    flush timers and ack aggregation can only hurt it."""

    name = "ring_call"
    window = 1
    blocks = 3000

    def rep(self) -> Rep:
        calls = _scaled(self.blocks, self.scale)
        ops, failed = [], 0
        start = time.perf_counter()
        for _ in range(calls):
            t0 = time.monotonic()
            failed += self._transfer(1)
            ops.append((t0, time.monotonic()))
        return Rep(calls, failed, time.perf_counter() - start, ops)


# ---------------------------------------------------------------------------
# scheduler core only: empty operations on OS threads
# ---------------------------------------------------------------------------

class ThreadedFanout(Workload):
    """Empty operations and in-process delivery: what the scheduler core
    and flow control cost per token, with no network."""

    name = "threaded_fanout"
    window = DEFAULT_WINDOW
    leaf_ops = ("ToUpperCase",)
    chars = 20_000

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.text = "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz")
            for _ in range(_scaled(self.chars, scale)))

    def build_graph(self):
        return strings.build_uppercase_graph("node01", "node02*2 node03*2")[0]

    def open(self, tracer=None, metrics=None) -> None:
        self.engine = ThreadedEngine(tracer=tracer, metrics=metrics)
        self.graph = self.build_graph()
        self.engine.register_graph(self.graph)
        if self.engine.run(self.graph, strings.StringToken("abcd")).text != "ABCD":
            raise BenchError(f"{self.name}: first result is wrong")

    def rep(self) -> Rep:
        start = time.perf_counter()
        result = self.engine.run(
            self.graph, strings.StringToken(self.text), timeout=120)
        seconds = time.perf_counter() - start
        expected = self.text.upper()
        if len(result.text) != len(expected):
            failed = len(expected)
        else:
            failed = sum(a != b for a, b in zip(result.text, expected))
        return Rep(len(expected), failed, seconds)

    def sample_token(self):
        return strings.CharToken("q", 7, len(self.text))


# ---------------------------------------------------------------------------
# the simulated cluster, virtual time
# ---------------------------------------------------------------------------

class SimRing(Workload):
    """Simulation kernel, controller and network model only: guards sim
    speed and the bit-identical virtual time."""

    name = "sim_ring"
    simulated = True
    block_bytes = 1000
    blocks = 10_000

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.tracer = None
        self.virtual_s: Optional[float] = None

    def open(self, tracer=None, metrics=None) -> None:
        # run_dps_ring builds, runs and drops its own SimEngine; it takes
        # a tracer but no registry, so the ledger reads the trace alone
        self.tracer = tracer
        result = ring.run_dps_ring(paper_cluster(4), self.block_bytes,
                                   4 * self.block_bytes, tracer=tracer)
        if result.total_bytes != 4 * self.block_bytes:
            raise BenchError(f"{self.name}: first result is wrong")

    def rep(self) -> Rep:
        blocks = _scaled(self.blocks, self.scale)
        start = time.perf_counter()
        result = ring.run_dps_ring(paper_cluster(4), self.block_bytes,
                                   blocks * self.block_bytes,
                                   tracer=self.tracer)
        seconds = time.perf_counter() - start
        if self.virtual_s is None:
            self.virtual_s = result.elapsed
        ok = (result.total_bytes == blocks * self.block_bytes
              and result.elapsed == self.virtual_s)
        return Rep(blocks, 0 if ok else blocks, seconds,
                   extra={"virtual_s": result.elapsed})

    def close(self) -> None:
        pass

    def build_graph(self):
        return ring.build_ring_graph(RING_NODES)

    def sample_token(self):
        payload = np.zeros(self.block_bytes, dtype=np.uint8)
        return ring.RingBlockToken(Buffer(payload), 3, 9)


# ---------------------------------------------------------------------------
# the resident service tier under a closed client loop
# ---------------------------------------------------------------------------

class ServiceClosed(Workload):
    """Service admission, session and reply path with scalar tokens: two
    sessions each keep four calls in flight, every reply verified."""

    name = "service_closed"
    leaf_ops = ("GolReadPart",)
    world_shape = (256, 256)
    block = 8
    sessions = 2
    in_flight = 4
    reads = 6000
    #: a lifetime counter keeps client names unique within the process
    _lifetimes = 0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.world = (np.random.RandomState(seed).rand(*self.world_shape)
                      < 0.35).astype(np.uint8)
        self.origins = random.Random(seed)
        self.clients: List[ServiceClient] = []

    def open(self, tracer=None, metrics=None) -> None:
        self.engine = ServiceEngine(tracer=tracer, metrics=metrics)
        gol = gol_service.GameOfLifeService(
            self.engine, self.world, ["node01", "node02"])
        self.engine.expose(gol.read_graph, "gol.read")
        address = self.engine.serve()
        gol.load()
        ServiceClosed._lifetimes += 1
        for i in range(self.sessions):
            client = ServiceClient(
                address,
                name=f"bench-{os.getpid()}-{ServiceClosed._lifetimes}-{i}")
            client.open()
            self.clients.append(client)
        for _ in range(4):
            row, col = self._origin()
            token = self.clients[0].call("gol.read", self._request(row, col))
            if not self._verify(token, row, col):
                raise BenchError(f"{self.name}: first reply is wrong")

    def _origin(self) -> Tuple[int, int]:
        return (self.origins.randrange(self.world_shape[0] - self.block),
                self.origins.randrange(self.world_shape[1] - self.block))

    def _request(self, row: int, col: int):
        return gol_service.GolReadRequest(row, col, self.block, self.block)

    def _verify(self, token, row: int, col: int) -> bool:
        expected = self.world[row:row + self.block, col:col + self.block]
        return np.array_equal(token.data.array, expected)

    def _session(self, client: ServiceClient, origins, out: list) -> None:
        """Keep ``in_flight`` calls open until *origins* is used up.

        Replies are awaited in issue order, so a reply that overtakes an
        earlier one is timed when its turn comes.
        """
        pending = collections.deque()
        ops, failed = [], 0
        todo = iter(origins)

        def issue() -> None:
            origin = next(todo, None)
            if origin is not None:
                pending.append((origin, time.monotonic(), client.call_async(
                    "gol.read", self._request(*origin))))

        for _ in range(self.in_flight):
            issue()
        while pending:
            origin, issued, call = pending.popleft()
            try:
                token = call.result(timeout=60)
                good = self._verify(token, *origin)
            except Exception:
                good = False
            ops.append((issued, time.monotonic()))
            failed += not good
            issue()
        out.append((ops, failed))

    def rep(self) -> Rep:
        per_session = _scaled(self.reads, self.scale) // self.sessions
        out: list = []
        threads = [
            threading.Thread(
                target=self._session,
                args=(client, [self._origin() for _ in range(per_session)], out))
            for client in self.clients]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        ops = [op for session_ops, _ in out for op in session_ops]
        failed = sum(session_failed for _, session_failed in out)
        retries = sum(c.busy_retries + c.failure_retries for c in self.clients)
        return Rep(per_session * self.sessions, failed, seconds, ops,
                   extra={"busy_retries": retries})

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.engine is not None:
            self.engine.drain()
        super().close()

    def sample_token(self):
        return self._request(0, 0)


# ---------------------------------------------------------------------------
# the bursty windowed stream, offered above capacity
# ---------------------------------------------------------------------------

class StreamBursty(Workload):
    """Streams, windows and credit acks under an open-loop seeded
    schedule offered above capacity; the digest must match the oracle."""

    name = "stream_bursty"
    leaf_ops = ("StreamTransform",)
    items = 8192
    window_items = 8

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.job = self._job(_scaled(self.items, scale, self.window_items))
        self.oracle = stream_pipeline.oracle_digest(self.job)
        #: seconds the arrival schedule takes when nothing pushes back
        self.scheduled_s = sum(delay for _, delay in ArrivalProcess(
            rate=self.job.rate, burst=self.job.burst, gap=self.job.gap,
            items=self.job.items, seed=self.job.seed).schedule())

    def _job(self, items: int):
        return stream_pipeline.StreamJob(
            items=items, rate=1e5, burst=16, gap=0.002, seed=self.seed,
            window=self.window_items, work=1e-4)

    def build_graph(self):
        sp = stream_pipeline
        main = ThreadCollection(sp.StreamMainThread, "bench-src").map("node01")
        work = ThreadCollection(sp.StreamWorkThread, "bench-work") \
            .map_nodes(["node02", "node03"])
        agg = ThreadCollection(sp.StreamAggThread, "bench-agg").map("node04")
        sink = ThreadCollection(sp.StreamMainThread, "bench-sink").map("node01")
        return Flowgraph(
            FlowgraphNode(sp.StreamIngest, main)
            >> FlowgraphNode(sp.StreamTransform, work, RoundRobinRoute)
            >> FlowgraphNode(sp.StreamWindowAgg, agg, ConstantRoute)
            >> FlowgraphNode(sp.StreamSummarize, sink),
            "bench-stream")

    def open(self, tracer=None, metrics=None) -> None:
        self.graph = self.build_graph()
        self.engine = MultiprocessEngine(tracer=tracer, metrics=metrics)
        self.engine.register_graph(self.graph)
        first = self._job(4 * self.window_items)
        summary = self.engine.run(self.graph, first.token(), timeout=120)
        if summary.digest != stream_pipeline.oracle_digest(first).digest:
            raise BenchError(f"{self.name}: first digest is wrong")

    def rep(self) -> Rep:
        items = self.job.items
        start = time.perf_counter()
        summary = self.engine.run(self.graph, self.job.token(), timeout=120)
        seconds = time.perf_counter() - start
        ok = (summary.digest == self.oracle.digest
              and summary.windows == items // self.window_items
              and summary.items == items)
        return Rep(items, 0 if ok else items, seconds, extra={
            "window_p99_s": summary.p99_latency,
            "windows": summary.windows,
            # how far behind its schedule the in-program generator ended
            "source_lag_s": seconds - self.scheduled_s,
        })

    def sample_token(self):
        return stream_pipeline.StreamItemToken(
            5, 12345, self.window_items, 0, 1e-4)


WORKLOADS = {cls.name: cls for cls in (
    RingSmall, RingLarge, RingCall, ThreadedFanout, SimRing,
    ServiceClosed, StreamBursty)}

"""Elastic membership on the multiprocess engine.

The acceptance scenario of the elasticity work: kernels join and retire
**mid-run** while real applications keep producing results bit-identical
to a static cluster — the member barrier ships live thread state to the
new owners, retirees drain before exiting (no replay storm), and the
RunResult counters report what moved.

The liveness edge cases ride along: admission deferred while a barrier
is in flight, a joiner that dies before it acknowledges the remap, a
retire racing a declared heartbeat miss, and the console's miss count
itself — ticks of its own loop, from the moment a kernel is ready.
"""

import itertools
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.apps import gameoflife
from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.apps.gol_service import GameOfLifeService
from repro.apps.ring import RingJobToken, build_ring_graph
from repro.net import protocol as P
from repro.net.framing import send_messages
from repro.net.kernel import CONSOLE_KERNEL
from repro.net.nameserver import NameServerClient
from repro.runtime import KernelFailure, MultiprocessEngine, ScheduleError
from repro.runtime import multiprocess_engine
from repro.trace import MetricsRegistry

RING_NODES = ["node01", "node02", "node03", "node04"]
BLOCK_BYTES = 1024
N_BLOCKS = 16
GOL_STEPS_PER_PHASE = 2


def _gol_world():
    return (np.random.RandomState(3).rand(24, 16) < 0.35).astype(np.uint8)


def _gol_reference(steps):
    world = _gol_world()
    for _ in range(steps):
        world = life_step(world)
    return world


def test_gol_scale_up_down_bit_identical():
    """Grow 3 -> 4 kernels mid-run, then retire the joiner: every phase
    must keep the world bit-identical to the sequential reference, and
    the run result must count both rebalances and the moved instances."""
    reference = _gol_reference(3 * GOL_STEPS_PER_PHASE)

    with MultiprocessEngine(startup_timeout=60) as engine:
        game = DistributedGameOfLife(engine, _gol_world(),
                                     ["node01", "node02"],
                                     compute_nodes=["node05"])
        game.load()
        for _ in range(GOL_STEPS_PER_PHASE):
            game.step(improved=True)

        joiner = engine.add_kernel()
        assert joiner in engine.members()
        for _ in range(GOL_STEPS_PER_PHASE):
            game.step(improved=True)

        moved = engine.retire_kernel(joiner)
        assert moved >= 1
        assert joiner not in engine.members()
        for _ in range(GOL_STEPS_PER_PHASE):
            game.step(improved=True)

        final = game.gather()
        result = engine.last_result

    assert np.array_equal(final, reference)
    assert result.rebalances == 2
    assert result.tokens_moved >= 2


def test_ring_join_and_retire_bit_identical():
    """The ring's forwarding hops are pinned single-instance
    collections: a join moves nothing (minimal-move), retiring a
    hop-hosting kernel must evacuate its hop — and every run still
    counts each block exactly once."""
    graph = build_ring_graph(RING_NODES)
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        baseline = engine.run(graph, RingJobToken(BLOCK_BYTES, N_BLOCKS),
                              timeout=120)

        engine.add_kernel()  # joins, but the pinned hops stay put
        grown = engine.run(graph, RingJobToken(BLOCK_BYTES, N_BLOCKS),
                           timeout=120)

        moved = engine.retire_kernel("node03")
        assert moved >= 1  # the node03 hop had to move off
        shrunk = engine.run(graph, RingJobToken(BLOCK_BYTES, N_BLOCKS),
                            timeout=120)
        result = engine.last_result

    for done in (baseline, grown, shrunk):
        assert done.blocks == N_BLOCKS
        assert done.received_bytes == N_BLOCKS * BLOCK_BYTES
    assert result.rebalances == 2
    assert result.tokens_moved >= 1
    assert result.recovered is False  # drain, not a replay storm


def test_membership_argument_errors():
    graph = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        with pytest.raises(ValueError, match="already a member"):
            engine.add_kernel("node01")
        with pytest.raises(ValueError, match="unknown kernel"):
            engine.retire_kernel("node99")


def test_a_kernel_that_exits_before_it_is_ready_fails_at_once(monkeypatch):
    """A kernel that exits before it registers closes its ready pipe:
    the first start and a join both fail at once with its exit code,
    not after ``startup_timeout`` (30 s by default)."""
    real = multiprocess_engine.run_kernel_process
    doomed = {"node02"}

    def run_or_exit(name, *args, **kwargs):
        if name in doomed:
            raise SystemExit(3)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(multiprocess_engine, "run_kernel_process",
                        run_or_exit)
    graph = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        t0 = time.monotonic()
        with pytest.raises(ScheduleError, match=r"'node02' exited before "
                           r"it was ready \(exitcode 3\)"):
            engine.run(graph, RingJobToken(256, 2), timeout=60)
        assert time.monotonic() - t0 < 2.0

    doomed = {"node03"}
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        t0 = time.monotonic()
        with pytest.raises(ScheduleError, match=r"'node03' exited before "
                           r"it was ready \(exitcode 3\)"):
            engine.add_kernel("node03")
        assert time.monotonic() - t0 < 2.0
        assert engine.members() == ("node01", "node02")
        assert engine.run(graph, RingJobToken(256, 2), timeout=60).blocks == 2


def test_overlapping_retires_do_not_share_a_member_barrier():
    """Two retires called while a run is in flight take their turns on
    the console's loop: neither barrier's replies are dropped as stale
    (the second would otherwise restart the barrier the first waits
    on), and the run keeps every block."""
    graph = build_ring_graph(RING_NODES)
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 4), timeout=60)
        console = engine._console
        replies, dropped = [], []
        barrier_done = console._barrier_done

        def spy(peer, epoch, count=None):  # runs on the console's loop
            replies.append(peer)
            if epoch != console._barrier_epoch:
                dropped.append((peer, epoch))
            barrier_done(peer, epoch, count)

        console._call(lambda: setattr(console, "_barrier_done", spy))
        outcomes = {}

        def call(key, fn, *args):
            outcomes[key] = fn(*args)

        run = threading.Thread(target=call, args=(
            "run", engine.run, graph, RingJobToken(256, 3000), 120))
        run.start()
        while not console._call(lambda: console._active_runs):
            time.sleep(0.001)
        retires = [threading.Thread(target=call, args=(
            name, engine.retire_kernel, name)) for name in
            ("node03", "node04")]
        for thread in retires:
            thread.start()
        for thread in (run, *retires):
            thread.join(timeout=120)
            assert not thread.is_alive()

        assert replies and not dropped
        assert outcomes["run"].blocks == 3000
        assert outcomes["node03"] >= 1 and outcomes["node04"] >= 1
        assert engine.members() == ("node01", "node02")


# ---------------------------------------------------------------------------
# liveness edge cases
# ---------------------------------------------------------------------------

class _GhostKernel:
    """A name-server registration and one beat to the console, with a
    listener that never speaks the kernel protocol: the shape of a
    joiner that wedges (or dies) between making itself known and
    acknowledging the member barrier."""

    def __init__(self, ns_address, name="ghost"):
        self.name = name
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self._accepted = []
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True)
        self._thread.start()
        self._ns = NameServerClient(ns_address)
        host, port = self._listener.getsockname()
        self._ns.register(name, host, port, meta={"kernel": True})
        # A kernel makes itself known by beating to the console.
        self._beat = socket.create_connection(self._ns.lookup(CONSOLE_KERNEL))
        send_messages(self._beat, [P.encode_control(P.MSG_BEAT, name, 0)])

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._accepted.append(conn)  # accept, then stay silent

    def close(self):
        # Closing the name-server client drops the name.
        for resource in (self._ns, self._beat, self._listener):
            try:
                resource.close()
            except Exception:
                pass
        for conn in self._accepted:
            try:
                conn.close()
            except Exception:
                pass


def test_admission_deferred_while_barrier_in_flight():
    """A kernel registering while a rebalance (or recovery) barrier is
    in flight must not be admitted on that tick — admission retries on
    the next liveness pass once the barrier clears."""
    graph = build_ring_graph(["node01", "node02"])
    # heartbeat_interval=0: no liveness tick, the test drives
    # _admit_external by hand with a recorded rebalance.
    with MultiprocessEngine(heartbeat_interval=0) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        console = engine._console
        ghost = _GhostKernel(engine.ns_address)

        def on_console(fn):  # the console's state is its loop's
            return console._call(fn)

        deadline = time.monotonic() + 10
        while not on_console(lambda: ghost.name in console._loads):
            assert time.monotonic() < deadline, "the beat never arrived"
            time.sleep(0.01)

        def tick():
            on_console(lambda: engine._admit_external(console))

        def gate(held):
            on_console(lambda: setattr(console, "_rebalancing", held))

        try:
            calls, threads = [], []

            def moved_nothing():
                return 0
                yield

            def recorded(joined=(), retired=(), depths=None, timeout=30.0):
                # where the rebalance is made; the coroutine moves nothing
                calls.append({"joined": joined, "retired": retired})
                threads.append(threading.current_thread().name)
                return moved_nothing()

            console._rebalance = recorded

            gate(True)
            tick()
            assert not calls  # deferred: nothing started
            assert ghost.name not in engine._external_kernels

            # The tick decides, and the admission runs on the console's
            # loop, as a coroutine its tick drives.
            gate(False)
            tick()
            assert threads == ["dps-io:__driver__"]
            assert [c["joined"] for c in calls] == [[ghost.name]]
            assert ghost.name in on_console(
                lambda: set(engine._external_kernels))

            # an admitted member is not a stranger: no double admission
            tick()
            assert len(calls) == 1
        finally:
            del console._rebalance  # restore the real method
            on_console(lambda: engine._retired.add(ghost.name))  # quiet
            ghost.close()


def test_joiner_that_never_acks_fails_the_barrier_not_the_cluster():
    """A joiner whose lease registers but who never answers
    ``MSG_MEMBER`` (died before ``MSG_REMAP_OK``) must fail the
    admission with :class:`KernelFailure` after the barrier timeout —
    and leave the cluster fully operational, placements unchanged."""
    graph = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine(heartbeat_interval=0) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        console = engine._console
        ghost = _GhostKernel(engine.ns_address)
        try:
            with pytest.raises(KernelFailure, match="barrier timed out"):
                console.rebalance(joined=[ghost.name], timeout=2.0)
        finally:
            ghost.close()
        # the failed admission must not poison the survivors
        done = engine.run(graph, RingJobToken(256, 4), timeout=60)
        assert done.blocks == 4
        assert engine.last_result.recovered is False


def test_retire_racing_heartbeat_miss_does_not_trigger_recovery():
    """The liveness loop may observe a retiree's lease expiring after
    the drain already completed; the stale observation must be a no-op
    (``_retired_peers`` guard), not a recovery storm."""
    graph = build_ring_graph(RING_NODES)
    with MultiprocessEngine() as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 4), timeout=60)
        console = engine._console
        engine.retire_kernel("node04")

        # the race, delivered by hand: a heartbeat-expiry observation
        # for the kernel that just retired gracefully (handed to the
        # console's loop, like every read of its state below)
        console.handle_kernel_down("node04", "heartbeat lease expired")

        assert console._call(lambda: "node04" not in console._dead_kernels)
        done = engine.run(graph, RingJobToken(256, 4), timeout=60)
        result = engine.last_result
        assert done.blocks == 4
    assert result.recovered is False
    assert result.replayed_tokens == 0


def test_a_member_silent_for_the_miss_limit_is_declared_down_once():
    """The console's liveness tick counts, per member, the ticks in a row
    that saw no beat: the ``heartbeat_miss_limit``-th declares the
    member down, once; one beat starts the count over; dead and retired
    kernels are not counted, and their depths are not read."""
    metrics = MetricsRegistry()
    graph = build_ring_graph(RING_NODES)
    # heartbeat_interval=0: no kernel beats and no tick runs but the
    # test's own, driven on the console's loop with injected beats.
    with MultiprocessEngine(heartbeat_interval=0, heartbeat_miss_limit=3,
                            metrics=metrics) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        engine.heartbeat_interval = 3600.0  # a tick re-arms; none comes due
        console = engine._console
        down = []
        declare = console.handle_kernel_down

        def recording(name, *args, **kwargs):
            down.append(name)
            declare(name, *args, **kwargs)

        console.handle_kernel_down = recording

        def tick(*beating):
            def on_loop():
                for name in beating:
                    console._dispatch_message(P.MSG_BEAT, (name, 0))
                engine._liveness_tick()
                return list(down)
            return console._call(on_loop)

        console._call(lambda: (console._dead_kernels.add("node03"),
                               engine._retired.add("node04")))
        assert tick("node02", "node03", "node04") == []
        # the depths feed rebalancing and the autoscaler: live kernels'
        assert console._call(engine._poll_depths) == {"node02": 0}
        assert tick("node02") == []
        assert tick() == ["node01"]  # the third silent tick
        assert tick("node02") == ["node01"]  # once: it is dead now
        assert tick() == ["node01"]
        assert tick("node02") == ["node01"]  # one beat starts over
        assert tick() == ["node01"]
        assert tick() == ["node01"]
        assert tick() == ["node01", "node02"]
        assert tick() == ["node01", "node02"]
        assert metrics.counter("heartbeats_missed").value == 6


def test_a_slow_joiner_is_not_declared_down_before_it_is_ready(
        monkeypatch):
    """A joiner becomes a member when it says it is ready, not when it
    is forked: a child that takes 1 s to start is not counted by the
    liveness tick meanwhile (0.05 s x 4 ticks would declare it down),
    and the next run recovers nothing."""
    real = multiprocess_engine.run_kernel_process

    def slow_start(name, *args, **kwargs):
        if name == "node05":
            time.sleep(1.0)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(multiprocess_engine, "run_kernel_process",
                        slow_start)
    graph = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine(recover=True, heartbeat_interval=0.05,
                            heartbeat_miss_limit=4) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        assert engine.add_kernel("node05") == "node05"
        done = engine.run(graph, RingJobToken(256, 4), timeout=60)
        result = engine.last_result
        console = engine._console
        dead = console._call(lambda: set(console._dead_kernels))
    assert done.blocks == 4
    assert result.recovered is False
    assert dead == set()


def test_a_held_console_does_not_count_its_own_delay():
    """Misses are ticks of the console's loop, not seconds: a console
    held for 1 s (0.05 s x 4 of wall clock, four times over) fires one
    late tick, and no kernel is declared down for the console's own
    delay."""
    metrics = MetricsRegistry()
    graph = build_ring_graph(["node01", "node02"])
    with MultiprocessEngine(recover=True, heartbeat_interval=0.05,
                            heartbeat_miss_limit=4,
                            metrics=metrics) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)
        engine._console._call(lambda: time.sleep(1.0))
        done = engine.run(graph, RingJobToken(256, 4), timeout=60)
        result = engine.last_result
    assert done.blocks == 4
    assert result.recovered is False
    assert metrics.counter("kernels_down").value == 0


def test_a_cli_joiner_exits_when_the_cluster_shuts_down(monkeypatch):
    """A ``repro.cli join`` kernel has no Process handle in the engine it
    joined; ``shutdown()`` must still ask it to stop, or it outlives the
    cluster."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rows, cols, workers, seed = 16, 16, 2, 7
    world = np.random.default_rng(seed).integers(
        0, 2, size=(rows, cols), dtype=np.uint8)
    # The joiner rebuilds the service in a fresh interpreter, as its
    # first: number this one the same, whatever this process built.
    monkeypatch.setattr(gameoflife, "_instance_counter", itertools.count(1))
    engine = MultiprocessEngine(ns_port=port)
    gol = GameOfLifeService(engine, world,
                            [f"node{i + 1:02d}" for i in range(workers)])
    joiner = None
    try:
        gol.load()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        joiner = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "join", "--ns-port",
             str(port), "--name", "node05", "--world", str(rows), str(cols),
             "--workers", str(workers), "--seed", str(seed)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 30.0
        while "node05" not in engine.members():
            assert joiner.poll() is None, joiner.stderr.read().decode()
            assert time.monotonic() < deadline, "node05 never admitted"
            time.sleep(0.05)
        assert np.array_equal(gol.read_block(0, 0, rows, cols), world)
    finally:
        engine.shutdown()
        if joiner is not None:
            try:
                code = joiner.wait(timeout=10)
            finally:
                joiner.kill()  # a no-op once it has exited
                joiner.wait()
                joiner.stderr.close()
    assert code == 0

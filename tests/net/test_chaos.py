"""End-to-end failure recovery on the multiprocess engine.

The acceptance scenario of the fault-tolerance work: run a real
application, kill one kernel process mid-phase with a deterministic
:class:`~repro.net.recovery.FaultPolicy`, and require the run to finish
with results **bit-identical** to the fault-free run — the journal
replays exactly the lost tokens, the merge-side dedup drops exactly the
duplicated ones.

Both applications are chosen so the dead kernel hosts only stateless
leaf instances (the documented recovery contract):

- ring: ``node03`` hosts one forwarding hop; split and merge live on
  ``node01``.
- Game of Life: the stateless compute threads are mapped onto a
  dedicated ``node05`` kernel via ``compute_nodes=``; the band-owning
  exchange threads stay on the surviving workers.
"""

import os
import signal

import numpy as np

from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.apps.ring import RingJobToken, build_ring_graph
from repro.net.recovery import FaultPolicy
from repro.runtime import MultiprocessEngine, create_engine
from repro.trace import MetricsRegistry

RING_NODES = ["node01", "node02", "node03", "node04"]
BLOCK_BYTES = 2048
N_BLOCKS = 24


def _run_ring(faults=None, recover=False):
    """One complete ring run on a fresh engine; returns (done, result)."""
    graph = build_ring_graph(RING_NODES)
    with MultiprocessEngine(recover=recover, faults=faults) as engine:
        engine.register_graph(graph)
        done = engine.run(graph, RingJobToken(BLOCK_BYTES, N_BLOCKS),
                          timeout=120)
        result = engine.last_result
    return done, result


def test_ring_survives_kernel_kill_bit_identical():
    """Kill the node03 hop before its 5th block: the journal at the
    node01 split must replay the lost blocks onto the remapped hop and
    the sink must still count each block exactly once.
    """
    baseline, base_result = _run_ring()
    assert base_result.recovered is False
    assert base_result.replayed_tokens == 0

    faults = FaultPolicy(kill_kernel="node03", kill_after_messages=5)
    done, result = _run_ring(faults=faults, recover=True)

    assert (done.blocks, done.received_bytes) == \
        (baseline.blocks, baseline.received_bytes)
    assert done.blocks == N_BLOCKS
    assert done.received_bytes == N_BLOCKS * BLOCK_BYTES
    assert result.recovered is True
    assert result.replayed_tokens > 0


def test_ring_fault_free_run_reports_no_recovery():
    """With recovery armed but no fault injected, the journal/dedup
    machinery must be invisible in the result."""
    done, result = _run_ring(recover=True)
    assert done.blocks == N_BLOCKS
    assert result.recovered is False
    assert result.replayed_tokens == 0


def test_hung_kernel_is_declared_down_by_lease_expiry():
    """SIGSTOP node03: the process keeps its sockets and its name-server
    registration, so neither a broken connection nor an exit sentinel
    reports it — only its heartbeat lease running out does.  The run
    recovers to the oracle's result and shutdown() reaps the stopped
    process (SIGKILL; it would never act on a SIGTERM)."""
    oracle = create_engine("sim", nodes=4).run(
        build_ring_graph(RING_NODES),
        RingJobToken(BLOCK_BYTES, N_BLOCKS)).token
    metrics = MetricsRegistry()
    graph = build_ring_graph(RING_NODES)
    engine = MultiprocessEngine(recover=True, heartbeat_interval=0.05,
                                metrics=metrics)
    engine.register_graph(graph)
    try:
        engine.run(graph, RingJobToken(BLOCK_BYTES, 2), timeout=60)
        hung = engine._kernel_procs["node03"]
        os.kill(hung.pid, signal.SIGSTOP)
        done = engine.run(graph, RingJobToken(BLOCK_BYTES, N_BLOCKS),
                          timeout=120)
        result = engine.last_result
    finally:
        engine.shutdown()
    assert (done.blocks, done.received_bytes) == \
        (oracle.blocks, oracle.received_bytes) == \
        (N_BLOCKS, N_BLOCKS * BLOCK_BYTES)
    assert result.recovered is True
    assert metrics.counter("heartbeats_missed").value > 0
    assert not hung.is_alive()


GOL_STEPS = 4


def _gol_world():
    rng = np.random.RandomState(42)
    return (rng.rand(24, 16) < 0.35).astype(np.uint8)


def _reference_world(world, steps):
    for _ in range(steps):
        world = life_step(world)
    return world


def _run_gol(faults=None, recover=False):
    """Four improved-graph iterations; returns (final_world, result)."""
    with MultiprocessEngine(recover=recover, faults=faults) as engine:
        game = DistributedGameOfLife(
            engine, _gol_world(), ["node01", "node02"],
            compute_nodes=["node05"])
        game.load()
        for _ in range(GOL_STEPS):
            game.step(improved=True)
        final = game.gather()
        result = engine.last_result
    return final, result


def test_gameoflife_survives_compute_kernel_kill():
    """Kill the dedicated compute kernel mid-step-2 (it has processed 2
    center commands, dies before the 3rd).  The exchange threads' merges
    are mid-group at that point; replay must re-drive only the lost
    center computation and the final world must match the sequential
    reference bit for bit."""
    reference = _reference_world(_gol_world(), GOL_STEPS)

    faults = FaultPolicy(kill_kernel="node05", kill_after_messages=3)
    final, result = _run_gol(faults=faults, recover=True)

    assert np.array_equal(final, reference)
    assert result.recovered is True
    assert result.replayed_tokens > 0


def test_gameoflife_fault_free_matches_reference_with_recovery_on():
    reference = _reference_world(_gol_world(), GOL_STEPS)
    final, result = _run_gol(recover=True)
    assert np.array_equal(final, reference)
    assert result.recovered is False
    assert result.replayed_tokens == 0

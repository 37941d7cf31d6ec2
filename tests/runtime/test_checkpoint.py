"""Tests for checkpointing and node-failure recovery (paper §6)."""

import numpy as np
import pytest

from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.cluster import paper_cluster
from repro.runtime import ScheduleError, SimEngine
from repro.runtime.checkpoint import CheckpointManager


def make_gol(n_workers=2, rows=24, cols=16, seed=8, n_nodes=4):
    rng = np.random.default_rng(seed)
    world = (rng.random((rows, cols)) < 0.4).astype(np.uint8)
    engine = SimEngine(paper_cluster(n_nodes))
    gol = DistributedGameOfLife(
        engine, world, engine.cluster.node_names[:n_workers]
    )
    gol.load()
    return engine, gol, world


def test_checkpoint_counts_state():
    engine, gol, world = make_gol()
    mgr = CheckpointManager(engine)
    ckpt = mgr.checkpoint(gol._exchange)
    assert ckpt.thread_count == 2
    # each shard holds a ~12x16-cell band plus ghosts and headers
    assert ckpt.nbytes > 2 * 12 * 16
    assert ckpt.taken_at >= 0


def test_checkpoint_takes_virtual_time():
    engine, gol, world = make_gol()
    mgr = CheckpointManager(engine)
    t0 = engine.sim.now
    mgr.checkpoint(gol._exchange)
    assert engine.sim.now > t0  # disk writes and transfers were charged


def test_restore_rolls_state_back():
    engine, gol, world = make_gol()
    mgr = CheckpointManager(engine)
    ckpt = mgr.checkpoint(gol._exchange)

    gol.step(improved=True)
    gol.step(improved=True)
    assert not np.array_equal(gol.gather(), world)

    mgr.restore(ckpt)
    assert np.array_equal(gol.gather(), world)  # back to checkpoint state


def test_failure_recovery_end_to_end():
    """The paper's graceful-degradation story: checkpoint, lose a node,
    remap the collections, restore, replay — results stay correct."""
    engine, gol, world = make_gol(n_workers=2, n_nodes=4)
    mgr = CheckpointManager(engine, storage_nodes=["node03", "node04"])

    gol.step(improved=True)
    ckpt = mgr.checkpoint(gol._exchange, gol._compute)
    done_at_ckpt = gol.iteration

    gol.step(improved=True)  # progress that will be lost

    lost = engine.fail_node("node02")
    assert lost > 0

    # reshape away from the dead node, restore, replay
    engine.remap(gol._exchange, "node01 node03")
    engine.remap(gol._compute, "node01 node03")
    report = mgr.restore(ckpt)
    assert report["restored"] == ckpt.thread_count

    gol.step(improved=True)  # replay the lost iteration
    expected = world
    for _ in range(done_at_ckpt + 1):
        expected = life_step(expected)
    assert np.array_equal(gol.gather(), expected)


def test_fail_node_requires_quiescence_and_traces():
    engine, gol, world = make_gol()
    lost = engine.fail_node("node01")
    assert lost >= 1
    # failing an empty node is fine (0 threads lost)
    assert engine.fail_node("node04") == 0


def test_checkpoint_requires_collections():
    engine, gol, world = make_gol()
    mgr = CheckpointManager(engine)
    with pytest.raises(ValueError, match="nothing to checkpoint"):
        mgr.checkpoint()


def test_unknown_storage_node_rejected():
    engine, gol, world = make_gol()
    with pytest.raises(ValueError, match="unknown storage node"):
        CheckpointManager(engine, storage_nodes=["node09"])


def test_checkpoint_skips_uninstantiated_threads():
    engine, gol, world = make_gol(n_workers=2)
    mgr = CheckpointManager(engine)
    # the compute threads only materialize during a step; before any step
    # they have no state to save
    ckpt = mgr.checkpoint(gol._compute)
    assert ckpt.thread_count == 0

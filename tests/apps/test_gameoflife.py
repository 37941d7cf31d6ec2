"""Tests for the distributed Game of Life (Fig. 7–9 application)."""

import threading
import time

import numpy as np
import pytest

from repro.apps import gameoflife as gol_module
from repro.apps.gameoflife import DistributedGameOfLife, life_step
from repro.cluster import paper_cluster
from repro.runtime import SimEngine, ThreadedEngine


def random_world(rows, cols, seed=3, density=0.35):
    rng = np.random.default_rng(seed)
    return (rng.random((rows, cols)) < density).astype(np.uint8)


def make_gol(world, n_workers, n_nodes=None):
    n_nodes = n_nodes or n_workers
    engine = SimEngine(paper_cluster(n_nodes))
    nodes = engine.cluster.node_names[:n_workers]
    gol = DistributedGameOfLife(engine, world, nodes)
    return engine, gol


# ---------------------------------------------------------------------------
# reference stencil
# ---------------------------------------------------------------------------

def test_life_step_blinker():
    world = np.zeros((5, 5), np.uint8)
    world[2, 1:4] = 1  # horizontal blinker
    stepped = life_step(world)
    expected = np.zeros((5, 5), np.uint8)
    expected[1:4, 2] = 1  # vertical blinker
    assert np.array_equal(stepped, expected)


def test_life_step_block_still_life():
    world = np.zeros((4, 4), np.uint8)
    world[1:3, 1:3] = 1
    assert np.array_equal(life_step(world), world)


def test_life_step_dead_world_stays_dead():
    world = np.zeros((8, 8), np.uint8)
    assert life_step(world).sum() == 0


def test_life_step_borders_are_dead():
    world = np.ones((3, 3), np.uint8)
    stepped = life_step(world)
    # corners have 3 neighbours -> alive; centre has 8 -> dies
    assert stepped[1, 1] == 0


# ---------------------------------------------------------------------------
# distributed equivalence with the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
@pytest.mark.parametrize("improved", [False, True])
def test_distributed_matches_reference(n_workers, improved):
    world = random_world(24, 16)
    engine, gol = make_gol(world, n_workers)
    gol.load()
    expected = world
    for _ in range(3):
        gol.step(improved=improved)
        expected = life_step(expected)
    assert np.array_equal(gol.gather(), expected)


def test_uneven_band_sizes():
    world = random_world(25, 10)  # 25 rows over 3 workers: 9/8/8
    engine, gol = make_gol(world, 3)
    gol.load()
    gol.step(improved=True)
    assert np.array_equal(gol.gather(), life_step(world))


def test_two_row_bands():
    world = random_world(8, 12)
    engine, gol = make_gol(world, 4)  # 2 rows per band: no interior
    gol.load()
    gol.step(improved=True)
    assert np.array_equal(gol.gather(), life_step(world))


def test_variants_agree_with_each_other():
    world = random_world(20, 20, seed=11)
    engine1, gol1 = make_gol(world, 2)
    engine2, gol2 = make_gol(world, 2)
    gol1.load()
    gol2.load()
    for _ in range(4):
        gol1.step(improved=False)
        gol2.step(improved=True)
    assert np.array_equal(gol1.gather(), gol2.gather())


def test_improved_graph_serves_a_late_neighbour_the_old_border(monkeypatch):
    """The improved graph has no barrier between exchange and commit, so
    on real threads a band can finish its iteration before a neighbour
    has even asked for its border.  The late request must still be
    answered from the generation being stepped, not the committed next
    one (seen as wrong border rows in 1 of 10 two-step runs on the
    multiprocess engine, 4 of 10 once idle-peer sends got faster)."""
    split = gol_module.GolStdIterSplit.execute
    collect = gol_module.GolImpCollect.execute
    collected = threading.Event()

    def staggered_split(self, tok):
        # band 1 starts only after band 0 has finished the iteration;
        # the split waits without holding the engine's loop
        self.post(gol_module.GolExchangeCmd(0))
        deadline = time.monotonic() + 30
        while not collected.is_set():
            assert time.monotonic() < deadline
            yield self.sleep(0.001)
        self.post(gol_module.GolExchangeCmd(1))

    def noting_collect(self, tok):
        yield from collect(self, tok)
        if self.thread.index == 0:
            collected.set()

    monkeypatch.setattr(gol_module.GolStdIterSplit, "execute",
                        staggered_split)
    monkeypatch.setattr(gol_module.GolImpCollect, "execute", noting_collect)
    world = random_world(8, 12)
    with ThreadedEngine() as engine:
        gol = DistributedGameOfLife(engine, world, ["node01", "node02"])
        gol.load()
        gol.step(improved=True)
        assert collected.is_set()
        assert np.array_equal(gol.gather(), life_step(world))


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

def test_world_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        make_gol(random_world(4, 8), 4)


def test_step_before_load_rejected():
    engine, gol = make_gol(random_world(16, 8), 2)
    with pytest.raises(RuntimeError, match="load"):
        gol.step()
    with pytest.raises(RuntimeError, match="load"):
        gol.gather()


def test_non_2d_world_rejected():
    engine = SimEngine(paper_cluster(1))
    with pytest.raises(ValueError, match="2-D"):
        DistributedGameOfLife(engine, np.zeros(10, np.uint8), ["node01"])


# ---------------------------------------------------------------------------
# performance shape (the Fig. 9 mechanism)
# ---------------------------------------------------------------------------

def time_per_iteration(world, n_workers, improved, iters=2):
    engine, gol = make_gol(world, n_workers, n_nodes=max(n_workers, 1))
    gol.load()
    gol.step(improved=improved)  # warm-up (launch delays)
    total = 0.0
    for _ in range(iters):
        total += gol.step(improved=improved).makespan
    return total / iters


def test_improved_graph_faster_than_standard_on_multiple_nodes():
    world = random_world(120, 400, seed=5)
    t_std = time_per_iteration(world, 4, improved=False)
    t_imp = time_per_iteration(world, 4, improved=True)
    assert t_imp < t_std


def test_more_nodes_speed_up_iterations():
    world = random_world(240, 400, seed=6)
    t1 = time_per_iteration(world, 1, improved=True)
    t4 = time_per_iteration(world, 4, improved=True)
    assert t4 < t1
    assert t1 / t4 > 2.0  # decent scaling on a compute-heavy world

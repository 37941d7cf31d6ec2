"""Distributed Game of Life — the iterative stencil application (Fig. 7–9).

The world is distributed as horizontal bands over worker threads (one per
node).  Each iteration needs the border lines of neighbouring bands.  Two
flow graphs implement one iteration:

- **standard** (paper Figure 7): exchange borders, global synchronization,
  then compute the whole band;
- **improved** (paper Figure 8): border exchange runs in parallel with the
  computation of the band's center, which needs no remote data; only the
  two border lines wait for the ghosts.

Each worker node hosts two DPS threads, mirroring the paper's bi-processor
machines: an *exchange* thread owning the band (serving border requests,
collecting ghosts) and a *compute* thread executing the heavy stencil
updates.  Band references travel between them in tokens — a zero-copy
pointer pass on the same node, exactly the paper's local-communication
shortcut (§4).

The stencil is really computed (vectorized numpy, dead borders); virtual
CPU time is charged via :func:`repro.cluster.costs.gol_band_flops`.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional

import numpy as np

from ..cluster import costs
from ..core import (
    ConstantRoute,
    DpsThread,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    SplitOperation,
    ThreadCollection,
    route_fn,
)
from ..runtime import RunResult, coerce_run_result
from ..serial import Buffer, ComplexToken, SimpleToken

__all__ = ["life_step", "DistributedGameOfLife"]

_instance_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# reference stencil
# ---------------------------------------------------------------------------

def _neighbor_counts(ext: np.ndarray) -> np.ndarray:
    """8-neighbour counts for the interior of a zero-padded array."""
    return (
        ext[:-2, :-2] + ext[:-2, 1:-1] + ext[:-2, 2:]
        + ext[1:-1, :-2] + ext[1:-1, 2:]
        + ext[2:, :-2] + ext[2:, 1:-1] + ext[2:, 2:]
    )


def life_step(world: np.ndarray) -> np.ndarray:
    """One Game of Life step with dead (non-periodic) borders."""
    world = np.asarray(world, dtype=np.uint8)
    ext = np.pad(world, 1)
    n = _neighbor_counts(ext)
    return ((n == 3) | ((world == 1) & (n == 2))).astype(np.uint8)


def _step_band(band: np.ndarray, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """Step a whole band given its ghost rows."""
    ext = np.zeros((band.shape[0] + 2, band.shape[1] + 2), dtype=np.uint8)
    ext[1:-1, 1:-1] = band
    ext[0, 1:-1] = top
    ext[-1, 1:-1] = bottom
    n = _neighbor_counts(ext)
    return ((n == 3) | ((band == 1) & (n == 2))).astype(np.uint8)


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

class GolWorldToken(ComplexToken):
    """The whole world (load-graph input and gather-graph output)."""

    def __init__(self, world=None):
        self.world = Buffer(world if world is not None else [])


class GolBandToken(ComplexToken):
    """One worker's band during loading."""

    def __init__(self, worker: int = 0, band=None, row_start: int = 0):
        self.worker = worker
        self.band = Buffer(band if band is not None else [])
        self.row_start = row_start


class GolAckToken(SimpleToken):
    def __init__(self, worker: int = 0):
        self.worker = worker


class GolSyncToken(SimpleToken):
    def __init__(self, count: int = 0):
        self.count = count


class GolIterToken(SimpleToken):
    """Iteration-graph input / phase hand-over."""

    def __init__(self, iteration: int = 0):
        self.iteration = iteration


class GolExchangeCmd(SimpleToken):
    def __init__(self, worker: int = 0):
        self.worker = worker


class GolComputeCmd(SimpleToken):
    def __init__(self, worker: int = 0):
        self.worker = worker


class GolBorderRequest(SimpleToken):
    """Ask *neighbor* for the border row adjacent to *requester*.

    ``direction`` is +1 (requesting the row below my band) or -1 (above);
    0 marks the no-op self request used by edge workers so every group
    has the same cardinality.
    """

    def __init__(self, requester: int = 0, neighbor: int = 0, direction: int = 0):
        self.requester = requester
        self.neighbor = neighbor
        self.direction = direction


class GolBorderData(ComplexToken):
    def __init__(self, worker: int = 0, direction: int = 0, row=None):
        self.worker = worker
        self.direction = direction
        self.row = Buffer(row if row is not None else [])


class GolCenterCmd(ComplexToken):
    """Compute-center order; carries a reference to the band (zero-copy
    pointer pass between the two threads of one node)."""

    def __init__(self, worker: int = 0, band=None):
        self.worker = worker
        self.band = Buffer(band if band is not None else [])


class GolCenterDone(ComplexToken):
    def __init__(self, worker: int = 0, interior=None):
        self.worker = worker
        self.interior = Buffer(interior if interior is not None else [])


class GolBandWork(ComplexToken):
    """Whole-band compute order (standard graph), ghosts attached."""

    def __init__(self, worker: int = 0, band=None, top=None, bottom=None):
        self.worker = worker
        self.band = Buffer(band if band is not None else [])
        self.top = Buffer(top if top is not None else [])
        self.bottom = Buffer(bottom if bottom is not None else [])


class GolBandResult(ComplexToken):
    def __init__(self, worker: int = 0, band=None):
        self.worker = worker
        self.band = Buffer(band if band is not None else [])


class GolGatherCmd(SimpleToken):
    def __init__(self, worker: int = 0):
        self.worker = worker


class GolBandPart(ComplexToken):
    def __init__(self, worker: int = 0, band=None, row_start: int = 0):
        self.worker = worker
        self.band = Buffer(band if band is not None else [])
        self.row_start = row_start


class GolDoneToken(SimpleToken):
    def __init__(self, iteration: int = 0):
        self.iteration = iteration


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

class GolMasterThread(DpsThread):
    pass


class GolExchangeThread(DpsThread):
    """Owns the band (the distributed data structure)."""

    def __init__(self):
        self.band: Optional[np.ndarray] = None
        self.row_start = 0
        self.ghost_top: Optional[np.ndarray] = None
        self.ghost_bottom: Optional[np.ndarray] = None
        # Bookkeeping of the improved graph, which has no barrier between
        # exchange and commit (underscored: not priced as migrating
        # state).  Border rows of the current generation served so far,
        # and the next generation ``(band, neighbours)`` while it waits
        # for the last neighbour to fetch the current one's border.
        self._served = 0
        self._held: Optional[tuple] = None


class GolComputeThread(DpsThread):
    """Executes the heavy stencil updates."""


# routes by embedded worker index
_ByWorker = route_fn("GolByWorker", lambda tok, n: tok.worker % n)
_ByNeighbor = route_fn("GolByNeighbor", lambda tok, n: tok.neighbor % n)


# ---------------------------------------------------------------------------
# load / gather operations
# ---------------------------------------------------------------------------

class GolLoadSplit(SplitOperation):
    thread_type = GolMasterThread
    in_types = (GolWorldToken,)
    out_types = (GolBandToken,)

    n_workers = 1  # overridden per-instance via a class factory

    def execute(self, tok: GolWorldToken):
        world = tok.world.array
        rows = world.shape[0]
        w = self.n_workers
        bounds = np.linspace(0, rows, w + 1).astype(int)
        for i in range(w):
            band = np.ascontiguousarray(world[bounds[i]:bounds[i + 1]])
            self.post(GolBandToken(i, band, int(bounds[i])))


class GolLoadBand(LeafOperation):
    thread_type = GolExchangeThread
    in_types = (GolBandToken,)
    out_types = (GolAckToken,)

    def execute(self, tok: GolBandToken):
        t = self.thread
        t.band = tok.band.array.copy()
        t.row_start = tok.row_start
        t.ghost_top = np.zeros(t.band.shape[1], dtype=np.uint8)
        t.ghost_bottom = np.zeros(t.band.shape[1], dtype=np.uint8)
        t._served, t._held = 0, None
        self.post(GolAckToken(tok.worker))


class GolSyncMerge(MergeOperation):
    thread_type = GolMasterThread
    in_types = (GolAckToken,)
    out_types = (GolSyncToken,)

    def execute(self, tok: GolAckToken):
        count = 0
        while tok is not None:
            count += 1
            tok = yield self.next_token()
        yield self.post(GolSyncToken(count))


class GolGatherSplit(SplitOperation):
    thread_type = GolMasterThread
    in_types = (GolIterToken,)
    out_types = (GolGatherCmd,)

    n_workers = 1

    def execute(self, tok):
        for i in range(self.n_workers):
            self.post(GolGatherCmd(i))


class GolReadBand(LeafOperation):
    thread_type = GolExchangeThread
    in_types = (GolGatherCmd,)
    out_types = (GolBandPart,)

    def execute(self, tok: GolGatherCmd):
        t = self.thread
        self.post(GolBandPart(tok.worker, t.band.copy(), t.row_start))


class GolGatherMerge(MergeOperation):
    thread_type = GolMasterThread
    in_types = (GolBandPart,)
    out_types = (GolWorldToken,)

    def execute(self, tok: GolBandPart):
        parts = []
        while tok is not None:
            parts.append((tok.row_start, tok.band.array))
            tok = yield self.next_token()
        parts.sort(key=lambda p: p[0])
        yield self.post(GolWorldToken(np.vstack([p[1] for p in parts])))


# ---------------------------------------------------------------------------
# shared iteration operations
# ---------------------------------------------------------------------------

class GolSendBorder(LeafOperation):
    """(3) the neighbour sends the requested border row."""

    thread_type = GolExchangeThread
    in_types = (GolBorderRequest,)
    out_types = (GolBorderData,)

    def execute(self, tok: GolBorderRequest):
        t = self.thread
        if tok.direction == 0:  # edge-worker no-op request
            self.post(GolBorderData(tok.requester, 0, np.zeros(0, np.uint8)))
            return
        # direction +1: requester is above us and wants our first row;
        # direction -1: requester is below us and wants our last row.
        row = t.band[0] if tok.direction == +1 else t.band[-1]
        self.post(GolBorderData(tok.requester, tok.direction, row.copy()))
        t._served += 1
        if t._held is not None and t._served >= t._held[1]:
            _commit(t, t._held[0])  # the last neighbour has its row


def _post_border_requests(op, worker: int, n_workers: int) -> None:
    """(2) split border transfer requests to the neighbouring nodes.

    Edge workers post no-op self requests so that every exchange group
    contains exactly two border replies.
    """
    if worker + 1 < n_workers:
        op.post(GolBorderRequest(worker, worker + 1, +1))
    else:
        op.post(GolBorderRequest(worker, worker, 0))
    if worker - 1 >= 0:
        op.post(GolBorderRequest(worker, worker - 1, -1))
    else:
        op.post(GolBorderRequest(worker, worker, 0))


def _commit(thread: GolExchangeThread, band: np.ndarray) -> None:
    """Make *band* the current generation."""
    thread.band = band
    thread._served, thread._held = 0, None


def _store_ghost(thread: GolExchangeThread, tok: GolBorderData) -> None:
    if tok.direction == +1:
        thread.ghost_bottom = tok.row.array
    elif tok.direction == -1:
        thread.ghost_top = tok.row.array


# ---------------------------------------------------------------------------
# standard graph (Figure 7)
# ---------------------------------------------------------------------------

class GolStdIterSplit(SplitOperation):
    """(1) split to worker nodes."""

    thread_type = GolMasterThread
    in_types = (GolIterToken,)
    out_types = (GolExchangeCmd,)

    n_workers = 1

    def execute(self, tok):
        for i in range(self.n_workers):
            self.post(GolExchangeCmd(i))


class GolStdExchange(SplitOperation):
    """(2) each worker requests its borders."""

    thread_type = GolExchangeThread
    in_types = (GolExchangeCmd,)
    out_types = (GolBorderRequest,)

    n_workers = 1

    def execute(self, tok: GolExchangeCmd):
        _post_border_requests(self, tok.worker, self.n_workers)


class GolStdCollect(MergeOperation):
    """(4) collect borders into ghost rows."""

    thread_type = GolExchangeThread
    in_types = (GolBorderData,)
    out_types = (GolAckToken,)

    def execute(self, tok: GolBorderData):
        me = self.thread
        while tok is not None:
            _store_ghost(me, tok)
            tok = yield self.next_token()
        yield self.post(GolAckToken(me.index))


class GolStdComputeSplit(SplitOperation):
    """(6) split computation requests after the global synchronization."""

    thread_type = GolMasterThread
    in_types = (GolSyncToken,)
    out_types = (GolComputeCmd,)

    n_workers = 1

    def execute(self, tok):
        for i in range(self.n_workers):
            self.post(GolComputeCmd(i))


class GolPrepareCompute(LeafOperation):
    """Attach band and ghost references for the compute thread."""

    thread_type = GolExchangeThread
    in_types = (GolComputeCmd,)
    out_types = (GolBandWork,)

    def execute(self, tok: GolComputeCmd):
        t = self.thread
        self.post(GolBandWork(tok.worker, t.band, t.ghost_top, t.ghost_bottom))


class GolComputeBand(LeafOperation):
    """(7) compute the next state of the whole band."""

    thread_type = GolComputeThread
    in_types = (GolBandWork,)
    out_types = (GolBandResult,)

    def execute(self, tok: GolBandWork):
        band = tok.band.array
        new = _step_band(band, tok.top.array, tok.bottom.array)
        yield self.charge_flops(costs.gol_band_flops(band.shape[1], band.shape[0]))
        yield self.post(GolBandResult(tok.worker, new))


class GolCommitBand(LeafOperation):
    """Store the new band back into the exchange thread."""

    thread_type = GolExchangeThread
    in_types = (GolBandResult,)
    out_types = (GolAckToken,)

    def execute(self, tok: GolBandResult):
        _commit(self.thread, tok.band.array)
        self.post(GolAckToken(tok.worker))


class GolIterDoneMerge(MergeOperation):
    """(8) synchronize the end of the iteration."""

    thread_type = GolMasterThread
    in_types = (GolAckToken,)
    out_types = (GolDoneToken,)

    def execute(self, tok):
        while tok is not None:
            tok = yield self.next_token()
        yield self.post(GolDoneToken())


# ---------------------------------------------------------------------------
# improved graph (Figure 8)
# ---------------------------------------------------------------------------

class GolImpExchange(SplitOperation):
    """(2) request borders AND immediately order the center compute."""

    thread_type = GolExchangeThread
    in_types = (GolExchangeCmd,)
    out_types = (GolBorderRequest, GolCenterCmd)

    n_workers = 1

    def execute(self, tok: GolExchangeCmd):
        _post_border_requests(self, tok.worker, self.n_workers)
        self.post(GolCenterCmd(tok.worker, self.thread.band))


class GolComputeCenter(LeafOperation):
    """(6) compute the band's center, which needs no remote data."""

    thread_type = GolComputeThread
    in_types = (GolCenterCmd,)
    out_types = (GolCenterDone,)

    def execute(self, tok: GolCenterCmd):
        band = tok.band.array
        if band.shape[0] > 2:
            # interior rows 1..r-2 depend only on band rows 0..r-1
            interior = _step_band(band[1:-1], band[0], band[-1])
        else:
            interior = np.zeros((0, band.shape[1]), dtype=np.uint8)
        rows = max(band.shape[0] - 2, 0)
        yield self.charge_flops(costs.gol_band_flops(band.shape[1], rows))
        yield self.post(GolCenterDone(tok.worker, interior))


class GolImpCollect(MergeOperation):
    """(4,5) collect borders and the finished center; compute the two
    border rows and commit the new band."""

    thread_type = GolExchangeThread
    in_types = (GolBorderData, GolCenterDone)
    out_types = (GolAckToken,)

    def execute(self, tok):
        me = self.thread
        interior = None
        neighbours = 0
        while tok is not None:
            if isinstance(tok, GolBorderData):
                _store_ghost(me, tok)
                neighbours += tok.direction != 0
            else:
                interior = tok.interior.array
            tok = yield self.next_token()
        band = me.band
        rows, cols = band.shape
        yield self.charge_flops(costs.gol_band_flops(cols, min(2, rows)))
        new = np.empty_like(band)
        if rows > 2:
            new[1:-1] = interior
            top_ext = np.vstack([me.ghost_top, band[0], band[1]])
            new[0] = _step_band(top_ext[1:2], top_ext[0], top_ext[2])[0]
            bot_ext = np.vstack([band[-2], band[-1], me.ghost_bottom])
            new[-1] = _step_band(bot_ext[1:2], bot_ext[0], bot_ext[2])[0]
        else:
            new[:] = _step_band(band, me.ghost_top, me.ghost_bottom)
        if me._served < neighbours:
            # Nothing orders a neighbour's request before this point: on
            # real threads it may still be on its way, and it must be
            # answered from this generation.  GolSendBorder commits once
            # it has served it (before the iteration's final merge, which
            # waits for that neighbour's ack).
            me._held = (new, neighbours)
        else:
            _commit(me, new)
        yield self.post(GolAckToken(me.index))


# ---------------------------------------------------------------------------
# the application wrapper
# ---------------------------------------------------------------------------

class DistributedGameOfLife:
    """A running distributed Game of Life.

    Builds the load, gather and per-iteration graphs over *worker_nodes*
    (one band per node) with the master on *master_node* (default: the
    first worker node, as in the paper's single-cluster runs).
    *compute_nodes* optionally maps the stateless compute threads onto
    different nodes — one name shared by all workers or one per worker
    (default: co-located with each band's exchange thread).

    *engine* may be any of the three engines — the simulated cluster
    (virtual timing), the threaded engine or the multiprocess engine
    (wall-clock timing); the graphs are identical.
    """

    def __init__(
        self,
        engine,
        world: np.ndarray,
        worker_nodes: List[str],
        master_node: Optional[str] = None,
        compute_nodes: Optional[List[str]] = None,
    ):
        world = np.asarray(world, dtype=np.uint8)
        if world.ndim != 2:
            raise ValueError("world must be 2-D")
        if not worker_nodes:
            raise ValueError("need at least one worker node")
        if world.shape[0] < 2 * len(worker_nodes):
            raise ValueError(
                f"world of {world.shape[0]} rows is too small for "
                f"{len(worker_nodes)} bands (need >= 2 rows per band)"
            )
        self.engine = engine
        self.world0 = world
        self.n_workers = len(worker_nodes)
        self.iteration = 0
        uid = next(_instance_counter)
        self._master = ThreadCollection(GolMasterThread, f"gol{uid}-master").map(
            master_node or worker_nodes[0]
        )
        self._exchange = ThreadCollection(
            GolExchangeThread, f"gol{uid}-x"
        ).map_nodes(worker_nodes)
        # The compute threads are stateless workers; by default they sit
        # next to their band's exchange thread (the paper's bi-processor
        # nodes), but they may be mapped anywhere — e.g. onto a dedicated
        # kernel whose failure is recoverable, since losing a compute
        # thread loses no application state.
        if compute_nodes is not None:
            if len(compute_nodes) not in (1, len(worker_nodes)):
                raise ValueError(
                    f"compute_nodes must name 1 node or one per worker "
                    f"({len(worker_nodes)}), got {len(compute_nodes)}")
            if len(compute_nodes) == 1:
                compute_nodes = compute_nodes * len(worker_nodes)
        self._compute = ThreadCollection(
            GolComputeThread, f"gol{uid}-c"
        ).map_nodes(compute_nodes if compute_nodes is not None
                    else worker_nodes)

        w = self.n_workers
        # per-instance op subclasses carrying the worker count
        self._ops = {
            cls.__name__: type(f"{cls.__name__}_{uid}", (cls,), {"n_workers": w})
            for cls in (GolLoadSplit, GolGatherSplit, GolStdIterSplit,
                        GolStdExchange, GolStdComputeSplit, GolImpExchange)
        }
        self.load_graph = self._build_load(uid)
        self.gather_graph = self._build_gather(uid)
        self.standard_graph = self._build_standard(uid)
        self.improved_graph = self._build_improved(uid)
        for g in (self.load_graph, self.gather_graph,
                  self.standard_graph, self.improved_graph):
            engine.register_graph(g, app_name=f"gol{uid}")
        self._loaded = False

    # -- graph builders ----------------------------------------------------
    def _build_load(self, uid: int) -> Flowgraph:
        b = (
            FlowgraphNode(self._ops["GolLoadSplit"], self._master)
            >> FlowgraphNode(GolLoadBand, self._exchange, _ByWorker)
            >> FlowgraphNode(GolSyncMerge, self._master)
        )
        return Flowgraph(b, f"gol{uid}.load")

    def _build_gather(self, uid: int) -> Flowgraph:
        b = (
            FlowgraphNode(self._ops["GolGatherSplit"], self._master)
            >> FlowgraphNode(GolReadBand, self._exchange, _ByWorker)
            >> FlowgraphNode(GolGatherMerge, self._master)
        )
        return Flowgraph(b, f"gol{uid}.gather")

    def _build_standard(self, uid: int) -> Flowgraph:
        split1 = FlowgraphNode(self._ops["GolStdIterSplit"], self._master)
        exch = FlowgraphNode(self._ops["GolStdExchange"], self._exchange, _ByWorker)
        send = FlowgraphNode(GolSendBorder, self._exchange, _ByNeighbor)
        collect = FlowgraphNode(GolStdCollect, self._exchange, _ByWorker)
        sync = FlowgraphNode(GolSyncMerge, self._master)
        csplit = FlowgraphNode(self._ops["GolStdComputeSplit"], self._master)
        prep = FlowgraphNode(GolPrepareCompute, self._exchange, _ByWorker)
        compute = FlowgraphNode(GolComputeBand, self._compute, _ByWorker)
        commit = FlowgraphNode(GolCommitBand, self._exchange, _ByWorker)
        done = FlowgraphNode(GolIterDoneMerge, self._master)
        b = (split1 >> exch >> send >> collect >> sync
             >> csplit >> prep >> compute >> commit >> done)
        return Flowgraph(b, f"gol{uid}.standard")

    def _build_improved(self, uid: int) -> Flowgraph:
        split1 = FlowgraphNode(self._ops["GolStdIterSplit"], self._master)
        exch = FlowgraphNode(self._ops["GolImpExchange"], self._exchange, _ByWorker)
        send = FlowgraphNode(GolSendBorder, self._exchange, _ByNeighbor)
        center = FlowgraphNode(GolComputeCenter, self._compute, _ByWorker)
        collect = FlowgraphNode(GolImpCollect, self._exchange, _ByWorker)
        done = FlowgraphNode(GolIterDoneMerge, self._master)
        builder = split1 >> exch >> send >> collect
        builder += exch >> center >> collect
        builder += collect >> done
        return Flowgraph(builder, f"gol{uid}.improved")

    def _run(self, graph: Flowgraph, token) -> RunResult:
        """Engine-agnostic run: normalize the outcome to a RunResult."""
        started = time.monotonic()
        outcome = self.engine.run(graph, token)
        return coerce_run_result(outcome, started, time.monotonic())

    # -- public API ----------------------------------------------------------
    def load(self) -> RunResult:
        """Distribute the initial world to the workers."""
        result = self._run(self.load_graph, GolWorldToken(self.world0))
        self._loaded = True
        return result

    def step(self, improved: bool = True) -> RunResult:
        """Run one iteration; returns its RunResult (virtual or wall time)."""
        if not self._loaded:
            raise RuntimeError("call load() before step()")
        graph = self.improved_graph if improved else self.standard_graph
        self.iteration += 1
        return self._run(graph, GolIterToken(self.iteration))

    def gather(self) -> np.ndarray:
        """Collect the current world back to the master."""
        if not self._loaded:
            raise RuntimeError("call load() before gather()")
        result = self._run(self.gather_graph, GolIterToken(self.iteration))
        return result.token.world.array

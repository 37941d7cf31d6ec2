"""Distributed block LU factorization with partial pivoting (Fig. 11–15).

The matrix is split into ``s`` block-columns of width ``r = n/s``,
distributed round-robin over the workers (column ``j`` lives on worker
``j % p``).  Following the paper's Figure 12, the flow graph contains one
gray segment per block-column:

(a/e) factor the panel of column ``k`` and stream out triangular-solve
      requests (carrying the panel and pivots) to the other columns;
(b)   trsm at each column owner: apply the row flips, solve
      ``L_kk · T = A_kj``; notify;
(f)   row-flip orders to the already-factored columns ``j < k``;
(c)   a *stream* collects the notifications and streams out
      multiplication orders — no barrier;
(d)   multiply: ``A_tail,j -= L_tail,k · T_kj``; notify;
(e)   a *stream* at the owner of column ``k+1`` factors the next panel as
      soon as *its* column's multiplication completes, streaming out the
      next round of trsm requests while other columns are still
      multiplying.

The non-pipelined variant replaces the two streams with merge+split
barriers (the paper's Figure 15 comparison).

The factorization is *really* computed (numpy panels, scipy triangular
solves); virtual time is charged through the cost models, optionally
scaled (``scale=α`` prices every operation as if the matrix were ``α·n``
— the benches factor a real 1024² matrix while reproducing the virtual
timing of the paper's 4096² runs; see DESIGN.md §2).

Importing this module needs numpy alone.  scipy is needed once an LU
application is built: :class:`DistributedLU` imports ``scipy.linalg``
in the building process, before any engine forks its kernels, so the
kernels inherit it and no operation body is a kernel's first importer.
A process that builds no LU application never loads scipy.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional

import numpy as np

from ..cluster import costs
from ..core import (
    ConstantRoute,
    DpsThread,
    Flowgraph,
    FlowgraphBuilder,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    SplitOperation,
    StreamOperation,
    ThreadCollection,
    route_fn,
)
from ..runtime import RunResult, coerce_run_result
from ..serial import Buffer, ComplexToken, SimpleToken, Vector

__all__ = ["DistributedLU", "factor_panel"]

_instance_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# numeric kernels
# ---------------------------------------------------------------------------

def factor_panel(panel: np.ndarray) -> np.ndarray:
    """In-place LU of a tall panel with partial pivoting.

    Returns the pivot row indices (panel-local, one per column): classic
    right-looking elimination with row swaps — the paper's step 1.
    """
    rows, r = panel.shape
    if rows < r:
        raise ValueError("panel must be at least as tall as wide")
    pivots = np.empty(r, dtype=np.int64)
    for c in range(r):
        p = c + int(np.argmax(np.abs(panel[c:, c])))
        pivots[c] = p
        if p != c:
            panel[[c, p]] = panel[[p, c]]
        diag = panel[c, c]
        if diag == 0.0:
            raise ZeroDivisionError("matrix is singular to working precision")
        panel[c + 1 :, c] /= diag
        if c + 1 < r:
            panel[c + 1 :, c + 1 :] -= np.outer(
                panel[c + 1 :, c], panel[c, c + 1 :]
            )
    return pivots


def _apply_pivots(block: np.ndarray, pivots: np.ndarray) -> None:
    """Apply panel-local row swaps to *block* (same row range), in order."""
    for c, p in enumerate(pivots):
        p = int(p)
        if p != c:
            block[[c, p]] = block[[p, c]]


# ---------------------------------------------------------------------------
# tokens (wire sizes optionally scaled; see DistributedLU(scale=...))
# ---------------------------------------------------------------------------

class _LUToken(ComplexToken, register=False):
    """Base for LU tokens: supports virtual wire-size scaling.

    ``wire_scale2`` is normally the class default (1.0); operations of a
    scaled factorization set an instance attribute (scale²) so that the
    network model prices the token as if its payload belonged to the
    virtual, larger matrix.
    """

    wire_scale2: float = 1.0

    def payload_nbytes(self) -> int:
        return int(super().payload_nbytes() * self.wire_scale2)


class LUStartToken(SimpleToken):
    def __init__(self, n: int = 0):
        self.n = n


class LULoadToken(ComplexToken):
    def __init__(self, a=None):
        self.a = Buffer(a if a is not None else [])


class LUColumnToken(_LUToken):
    def __init__(self, j: int = 0, data=None, pivots=None):
        self.j = j
        self.data = Buffer(data if data is not None else [])
        #: pivot vector of stage j when this worker factored it
        self.pivots = Buffer(pivots if pivots is not None else
                             np.empty(0, np.int64))


class LUAckToken(SimpleToken):
    def __init__(self, j: int = 0):
        self.j = j


class LUSyncToken(SimpleToken):
    def __init__(self, count: int = 0):
        self.count = count


class LUTrsmRequest(_LUToken):
    """Panel + pivots of stage *k*, bound for the owner of column *j*."""

    def __init__(self, k: int = 0, j: int = 0, panel=None, pivots=None):
        self.k = k
        self.j = j
        self.panel = Buffer(panel if panel is not None else [])
        self.pivots = Buffer(pivots if pivots is not None else [])


class LURowFlipOrder(_LUToken):
    """Apply stage-*k* pivots to already-factored column *j* (j < k)."""

    def __init__(self, k: int = 0, j: int = 0, pivots=None):
        self.k = k
        self.j = j
        self.pivots = Buffer(pivots if pivots is not None else [])


class LUTrsmDone(SimpleToken):
    def __init__(self, k: int = 0, j: int = 0):
        self.k = k
        self.j = j


class LURowFlipDone(SimpleToken):
    def __init__(self, k: int = 0, j: int = 0):
        self.k = k
        self.j = j


class LUMultOrder(SimpleToken):
    def __init__(self, k: int = 0, j: int = 0):
        self.k = k
        self.j = j


class LUMultDone(SimpleToken):
    def __init__(self, k: int = 0, j: int = 0):
        self.k = k
        self.j = j


class LUMultWork(_LUToken):
    """Operands of one trailing update, as same-node references."""

    def __init__(self, k: int = 0, j: int = 0, l_tail=None, t_block=None,
                 col_tail=None):
        self.k = k
        self.j = j
        self.l_tail = Buffer(l_tail if l_tail is not None else
                             np.empty((0, 0)))
        self.t_block = Buffer(t_block if t_block is not None else
                              np.empty((0, 0)))
        self.col_tail = Buffer(col_tail if col_tail is not None else
                               np.empty((0, 0)))


class LUStageToken(SimpleToken):
    """Barrier hand-over in the non-pipelined variant."""

    def __init__(self, k: int = 0, js=()):
        self.k = k
        self.js = list(js)


class LUFinishedToken(SimpleToken):
    def __init__(self, s: int = 0):
        self.s = s


class LUMatrixToken(_LUToken):
    """Gather result: the factored matrix plus the pivot table."""

    def __init__(self, a=None, pivots=None):
        self.a = Buffer(a if a is not None else [])
        self.pivots = Vector(pivots or ())


# ---------------------------------------------------------------------------
# worker thread: the distributed matrix
# ---------------------------------------------------------------------------

class LUWorkerThread(DpsThread):
    def __init__(self):
        #: column index -> (n, r) array, factored in place
        self.cols: Dict[int, np.ndarray] = {}
        #: stage -> (panel, pivots) received with trsm requests
        self.panels: Dict[int, tuple] = {}
        #: stage -> remaining local multiplications before pruning
        self.panel_uses: Dict[int, int] = {}
        #: pivot vectors of the stages this worker factored
        self.pivots: Dict[int, np.ndarray] = {}
        #: per previously-factored column: next expected flip stage and
        #: out-of-order buffer (guards against network reordering)
        self.flip_next: Dict[int, int] = {}
        self.flip_buffer: Dict[int, Dict[int, np.ndarray]] = {}


class LUMultThread(DpsThread):
    """Executes the trailing-update multiplications.

    A separate thread collection co-mapped with the worker threads, as the
    paper does for the multiplication construct (Figure 14: "for load
    balancing purposes, [the multiplication] is carried out in a separate
    thread collection") — on the bi-processor nodes the long-running
    multiplies use the second CPU instead of head-of-line-blocking the
    column-management thread.
    """


_ByJ = route_fn("LUByJ", lambda tok, n: tok.j % n)
_ByK = route_fn("LUByK", lambda tok, n: tok.k % n)
_ByKNext = route_fn("LUByKNext", lambda tok, n: (tok.k + 1) % n)


class _LUOp:
    """Mixin carrying per-factorization geometry (set by a class factory)."""

    n: int = 0          # matrix size
    r: int = 0          # block width
    s: int = 0          # number of block columns
    scale: float = 1.0  # virtual size multiplier

    @classmethod
    def vdim(cls, x: float) -> float:
        """A dimension scaled to the virtual matrix size."""
        return x * cls.scale

    @classmethod
    def scaled(cls, tok):
        """Stamp a heavyweight token with the virtual wire scale."""
        if cls.scale != 1.0:
            tok.wire_scale2 = cls.scale ** 2
        return tok


# ---------------------------------------------------------------------------
# load / gather
# ---------------------------------------------------------------------------

class LULoadSplit(_LUOp, SplitOperation):
    thread_type = LUWorkerThread
    in_types = (LULoadToken,)
    out_types = (LUColumnToken,)

    def execute(self, tok: LULoadToken):
        a = tok.a.array
        for j in range(self.s):
            col = np.ascontiguousarray(a[:, j * self.r : (j + 1) * self.r])
            self.post(LUColumnToken(j, col))


class LULoadColumn(LeafOperation):
    thread_type = LUWorkerThread
    in_types = (LUColumnToken,)
    out_types = (LUAckToken,)

    def execute(self, tok: LUColumnToken):
        t = self.thread
        t.cols[tok.j] = tok.data.array.astype(np.float64, copy=True)
        t.flip_next[tok.j] = tok.j + 1
        t.flip_buffer[tok.j] = {}
        self.post(LUAckToken(tok.j))


class LUSyncMerge(MergeOperation):
    thread_type = LUWorkerThread
    in_types = (LUAckToken,)
    out_types = (LUSyncToken,)

    def execute(self, tok):
        count = 0
        while tok is not None:
            count += 1
            tok = yield self.next_token()
        yield self.post(LUSyncToken(count))


class LUGatherSplit(_LUOp, SplitOperation):
    thread_type = LUWorkerThread
    in_types = (LUStartToken,)
    out_types = (LUMultOrder,)  # reused as "read column j" command

    def execute(self, tok):
        for j in range(self.s):
            self.post(LUMultOrder(0, j))


class LUReadColumn(_LUOp, LeafOperation):
    thread_type = LUWorkerThread
    in_types = (LUMultOrder,)
    out_types = (LUColumnToken,)

    def execute(self, tok):
        t = self.thread
        col = t.cols[tok.j].copy()
        # attach this worker's pivot vector for stage j (it factored it)
        piv = t.pivots.get(tok.j)
        self.post(LUColumnToken(tok.j, col, piv))


class LUGatherMerge(_LUOp, MergeOperation):
    thread_type = LUWorkerThread
    in_types = (LUColumnToken,)
    out_types = (LUMatrixToken,)

    def execute(self, tok):
        cols: Dict[int, np.ndarray] = {}
        pivots: Dict[int, np.ndarray] = {}
        while tok is not None:
            cols[tok.j] = tok.data.array
            if len(tok.pivots.array):
                pivots[tok.j] = tok.pivots.array
            tok = yield self.next_token()
        a = np.hstack([cols[j] for j in range(self.s)])
        piv_list = [Buffer(pivots[k]) for k in range(self.s)]
        yield self.post(LUMatrixToken(a, piv_list))


# ---------------------------------------------------------------------------
# factorization helpers (run on the owning worker thread)
# ---------------------------------------------------------------------------

def _do_factor(op: _LUOp, thread: LUWorkerThread, k: int) -> np.ndarray:
    """Factor the stage-*k* panel in place; returns the pivot vector."""
    col = thread.cols[k]
    panel = col[k * op.r :, :]
    pivots = factor_panel(panel)
    thread.pivots[k] = pivots
    return pivots


def _factor_flops(op: _LUOp, k: int) -> float:
    return costs.lu_panel_flops(op.vdim(op.n - k * op.r), op.vdim(op.r))


def _post_stage_requests(op, thread: LUWorkerThread, k: int,
                         pivots: np.ndarray, ready_js: List[int]) -> int:
    """Post row-flip orders (j < k) and trsm requests for *ready_js*."""
    panel = thread.cols[k][k * op.r :, :]
    for j in range(k):
        op.post(op.scaled(LURowFlipOrder(k, j, pivots.copy())))
    for j in ready_js:
        op.post(op.scaled(LUTrsmRequest(k, j, panel.copy(), pivots.copy())))
    return k + len(ready_js)


class LUStart(_LUOp, SplitOperation):
    """(a) factor the first panel and stream out the trsm requests."""

    thread_type = LUWorkerThread
    in_types = (LUStartToken,)
    out_types = (LUTrsmRequest,)

    def execute(self, tok: LUStartToken):
        t = self.thread
        pivots = _do_factor(self, t, 0)
        yield self.charge_flops(_factor_flops(self, 0))
        panel = t.cols[0]
        for j in range(1, self.s):
            self.post(self.scaled(
                LUTrsmRequest(0, j, panel.copy(), pivots.copy())
            ))


class LUTrsm(_LUOp, LeafOperation):
    """(b) apply row flips and solve the triangular system for column j."""

    thread_type = LUWorkerThread
    in_types = (LUTrsmRequest,)
    out_types = (LUTrsmDone,)

    def execute(self, tok: LUTrsmRequest):
        t = self.thread
        k, j, r = tok.k, tok.j, self.r
        panel = tok.panel.array
        pivots = tok.pivots.array
        if k not in t.panels:
            t.panels[k] = (panel, pivots)
            t.panel_uses[k] = sum(1 for jj in t.cols if jj > k)
        col = t.cols[j]
        tail = col[k * r :, :]
        _apply_pivots(tail, pivots)
        l_kk = panel[:r, :]
        top = tail[:r, :]
        from scipy.linalg import solve_triangular  # loaded by DistributedLU
        tail[:r, :] = solve_triangular(l_kk, top, lower=True, unit_diagonal=True)
        # pivot application (memcpy) + triangular solve
        yield self.charge_seconds(
            2 * self.vdim(r) * self.vdim(r) * 8 / costs.MEMCPY_BYTES_PER_SECOND
        )
        yield self.charge_flops(costs.trsm_flops(self.vdim(r), self.vdim(r)))
        yield self.post(LUTrsmDone(k, j))


class LURowFlip(_LUOp, LeafOperation):
    """(f) apply stage pivots to an already-factored column."""

    thread_type = LUWorkerThread
    in_types = (LURowFlipOrder,)
    out_types = (LURowFlipDone,)

    def execute(self, tok: LURowFlipOrder):
        t = self.thread
        j = tok.j
        t.flip_buffer[j][tok.k] = tok.pivots.array
        # apply in stage order even if the network reordered deliveries
        while t.flip_next[j] in t.flip_buffer[j]:
            k = t.flip_next[j]
            pivots = t.flip_buffer[j].pop(k)
            _apply_pivots(t.cols[j][k * self.r :, :], pivots)
            t.flip_next[j] = k + 1
        yield self.charge_seconds(
            2 * self.vdim(self.r) * self.vdim(self.r) * 8
            / costs.MEMCPY_BYTES_PER_SECOND
        )
        yield self.post(LURowFlipDone(tok.k, j))


class LUCollect(_LUOp, StreamOperation):
    """(c) stream multiplication orders as the trsm notifications arrive."""

    thread_type = LUWorkerThread
    in_types = (LUTrsmDone, LURowFlipDone)
    out_types = (LUMultOrder,)

    def execute(self, tok):
        # bare posts: with one worker the matching merge shares this
        # thread, so a yielded (blocking) post could deadlock on the
        # flow-control window; the controller queues bare posts instead
        while tok is not None:
            if isinstance(tok, LUTrsmDone):
                self.post(LUMultOrder(tok.k, tok.j))
            tok = yield self.next_token()


class LUPrepareMult(_LUOp, LeafOperation):
    """(d, part 1) look up the operands and hand them to the multiply
    thread on the same node (zero-copy pointer pass)."""

    thread_type = LUWorkerThread
    in_types = (LUMultOrder,)
    out_types = (LUMultWork,)

    def execute(self, tok: LUMultOrder):
        t = self.thread
        k, j, r = tok.k, tok.j, self.r
        panel, _pivots = t.panels[k]
        col = t.cols[j]
        work = LUMultWork(
            k, j,
            l_tail=panel[r:, :],
            t_block=col[k * r : (k + 1) * r, :],
            col_tail=col[(k + 1) * r :, :],
        )
        t.panel_uses[k] -= 1
        if t.panel_uses[k] == 0:
            del t.panels[k], t.panel_uses[k]
        self.post(work)


class LUMultExec(_LUOp, LeafOperation):
    """(d, part 2) ``A_tail,j -= L_tail,k · T_kj`` on the multiply thread."""

    thread_type = LUMultThread
    in_types = (LUMultWork,)
    out_types = (LUMultDone,)

    def execute(self, tok: LUMultWork):
        l_tail = tok.l_tail.array
        if l_tail.shape[0]:
            # in-place update of the owning thread's column (same node)
            tok.col_tail.array[...] -= l_tail @ tok.t_block.array
        rows_tail = self.n - (tok.k + 1) * self.r
        yield self.charge_flops(
            costs.matmul_accumulate_flops(
                self.vdim(rows_tail), self.vdim(self.r), self.vdim(self.r)
            )
        )
        yield self.post(LUMultDone(tok.k, tok.j))


class LUNext(_LUOp, StreamOperation):
    """(e) factor the next panel as soon as its column completes; stream
    out the next stage's requests while other columns still multiply."""

    thread_type = LUWorkerThread
    in_types = (LUMultDone,)
    out_types = (LUTrsmRequest, LURowFlipOrder)

    def execute(self, tok):
        t = self.thread
        k_next = tok.k + 1
        waiting: List[int] = []
        factored = False
        while tok is not None:
            j = tok.j
            if j == k_next and not factored:
                pivots = _do_factor(self, t, k_next)
                yield self.charge_flops(_factor_flops(self, k_next))
                _post_stage_requests(self, t, k_next, pivots, waiting)
                # Snapshot for stragglers: the row flips of later stages
                # permute this column in place, and a request posted
                # after them must still carry the panel as factored.
                panel = t.cols[k_next][k_next * self.r :, :].copy()
                waiting = []
                factored = True
            elif factored:
                self.post(self.scaled(
                    LUTrsmRequest(k_next, j, panel.copy(),
                                  t.pivots[k_next].copy())
                ))
            else:
                waiting.append(j)
            tok = yield self.next_token()
        if not factored:  # pragma: no cover - defensive
            raise RuntimeError(f"stage {k_next} never saw its own column")


class LUNextFinal(LUNext):
    """The last gray segment: only row flips remain after the factor."""

    out_types = (LURowFlipOrder,)


class LUFinalMerge(_LUOp, MergeOperation):
    """(g) collect the final row-flip notifications: termination."""

    thread_type = LUWorkerThread
    in_types = (LURowFlipDone,)
    out_types = (LUFinishedToken,)

    def execute(self, tok):
        while tok is not None:
            tok = yield self.next_token()
        yield self.post(LUFinishedToken(self.s))


# -- non-pipelined (barrier) variants ---------------------------------------

class LUCollectMerge(_LUOp, MergeOperation):
    """Barrier replacement for (c): wait for every notification."""

    thread_type = LUWorkerThread
    in_types = (LUTrsmDone, LURowFlipDone)
    out_types = (LUStageToken,)

    def execute(self, tok):
        k = tok.k
        js: List[int] = []
        while tok is not None:
            if isinstance(tok, LUTrsmDone):
                js.append(tok.j)
            tok = yield self.next_token()
        yield self.post(LUStageToken(k, sorted(js)))


class LUCollectSplit(_LUOp, SplitOperation):
    thread_type = LUWorkerThread
    in_types = (LUStageToken,)
    out_types = (LUMultOrder,)

    def execute(self, tok: LUStageToken):
        for j in tok.js:
            self.post(LUMultOrder(tok.k, j))


class LUNextMerge(_LUOp, MergeOperation):
    """Barrier replacement for (e): wait for every multiplication."""

    thread_type = LUWorkerThread
    in_types = (LUMultDone,)
    out_types = (LUStageToken,)

    def execute(self, tok):
        k = tok.k
        js: List[int] = []
        while tok is not None:
            js.append(tok.j)
            tok = yield self.next_token()
        yield self.post(LUStageToken(k, sorted(js)))


class LUNextSplit(_LUOp, SplitOperation):
    """Factor the next panel only after the barrier; then fan out."""

    thread_type = LUWorkerThread
    in_types = (LUStageToken,)
    out_types = (LUTrsmRequest, LURowFlipOrder)

    def execute(self, tok: LUStageToken):
        t = self.thread
        k_next = tok.k + 1
        pivots = _do_factor(self, t, k_next)
        yield self.charge_flops(_factor_flops(self, k_next))
        ready = [j for j in tok.js if j != k_next]
        _post_stage_requests(self, t, k_next, pivots, ready)


class LUNextSplitFinal(LUNextSplit):
    out_types = (LURowFlipOrder,)


# ---------------------------------------------------------------------------
# the application wrapper
# ---------------------------------------------------------------------------

class DistributedLU:
    """A distributed block LU factorization on a simulated cluster.

    Parameters
    ----------
    engine:
        the engine to run on — simulated cluster (virtual timing),
        threaded or multiprocess (wall-clock timing).
    a:
        the (n, n) matrix to factor; n must be divisible by *s*.
    s:
        number of block columns (>= 2); column j lives on worker j % p.
    worker_nodes:
        cluster nodes hosting the workers (p = len(worker_nodes)).
    pipelined:
        True builds the stream-operation graph, False the merge+split
        barrier variant (the Figure 15 comparison).
    scale:
        virtual size multiplier: compute and wire costs are charged as if
        the matrix were ``scale·n`` (the schedule structure is identical).
    """

    def __init__(
        self,
        engine,
        a: np.ndarray,
        s: int,
        worker_nodes: List[str],
        pipelined: bool = True,
        scale: float = 1.0,
    ):
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        if s < 2:
            raise ValueError("need at least 2 block columns (s >= 2)")
        if n % s:
            raise ValueError(f"matrix size {n} not divisible by s={s}")
        if not worker_nodes:
            raise ValueError("need at least one worker node")
        # Here, not at module top: a kernel forked after this inherits
        # scipy, and a process that builds no LU never loads it.
        import scipy.linalg  # noqa: F401
        self.engine = engine
        self.a0 = a
        self.n, self.s, self.r = n, s, n // s
        self.p = len(worker_nodes)
        self.pipelined = pipelined
        uid = next(_instance_counter)
        self._workers = ThreadCollection(
            LUWorkerThread, f"lu{uid}-w"
        ).map_nodes(worker_nodes)
        # multiplications run in a separate collection co-mapped with the
        # workers (paper Figure 14) so they use the second CPU
        self._mult_threads = ThreadCollection(
            LUMultThread, f"lu{uid}-m"
        ).map_nodes(worker_nodes)

        geometry = {"n": n, "r": self.r, "s": s, "scale": float(scale)}
        self._ops = {
            cls.__name__: type(f"{cls.__name__}_{uid}", (cls,), geometry)
            for cls in (
                LULoadSplit, LUGatherSplit, LUReadColumn, LUGatherMerge,
                LUStart, LUTrsm, LURowFlip, LUCollect, LUPrepareMult,
                LUMultExec, LUNext, LUNextFinal, LUFinalMerge,
                LUCollectMerge, LUCollectSplit, LUNextMerge, LUNextSplit,
                LUNextSplitFinal,
            )
        }
        self.load_graph = self._build_load(uid)
        self.gather_graph = self._build_gather(uid)
        self.lu_graph = self._build_lu(uid)
        for g in (self.load_graph, self.gather_graph, self.lu_graph):
            engine.register_graph(g, app_name=f"lu{uid}")
        self._loaded = False

    # -- graph construction ----------------------------------------------
    def _node(self, name: str, route=ConstantRoute) -> FlowgraphNode:
        collection = (
            self._mult_threads if name == "LUMultExec" else self._workers
        )
        return FlowgraphNode(self._ops[name], collection, route)

    def _build_load(self, uid: int) -> Flowgraph:
        b = (
            self._node("LULoadSplit")
            >> FlowgraphNode(LULoadColumn, self._workers, _ByJ)
            >> FlowgraphNode(LUSyncMerge, self._workers, ConstantRoute)
        )
        return Flowgraph(b, f"lu{uid}.load")

    def _build_gather(self, uid: int) -> Flowgraph:
        b = (
            self._node("LUGatherSplit")
            >> self._node("LUReadColumn", _ByJ)
            >> self._node("LUGatherMerge", ConstantRoute)
        )
        return Flowgraph(b, f"lu{uid}.gather")

    def _build_lu(self, uid: int) -> Flowgraph:
        """One gray segment per block column (paper Figure 12)."""
        s = self.s
        start = self._node("LUStart", ConstantRoute)
        builder = start.as_builder()
        prev = start  # the node whose outputs feed stage k's trsm/flips
        for k in range(s - 1):
            final = k == s - 2
            trsm = self._node("LUTrsm", _ByJ)
            builder += prev >> trsm
            if k >= 1:
                flip = self._node("LURowFlip", _ByJ)
                builder += prev >> flip
            if self.pipelined:
                collect = self._node("LUCollect", _ByK)
                builder += trsm >> collect
                if k >= 1:
                    builder += flip >> collect
                prep = self._node("LUPrepareMult", _ByJ)
                builder += collect >> prep
                mult = self._node("LUMultExec", _ByJ)
                builder += prep >> mult
                nxt = self._node("LUNextFinal" if final else "LUNext",
                                 _ByKNext)
                builder += mult >> nxt
                prev = nxt
            else:
                cmerge = self._node("LUCollectMerge", _ByK)
                builder += trsm >> cmerge
                if k >= 1:
                    builder += flip >> cmerge
                csplit = self._node("LUCollectSplit", _ByK)
                builder += cmerge >> csplit
                prep = self._node("LUPrepareMult", _ByJ)
                builder += csplit >> prep
                mult = self._node("LUMultExec", _ByJ)
                builder += prep >> mult
                nmerge = self._node("LUNextMerge", _ByKNext)
                builder += mult >> nmerge
                nsplit = self._node(
                    "LUNextSplitFinal" if final else "LUNextSplit", _ByKNext
                )
                builder += nmerge >> nsplit
                prev = nsplit
        # the last stage posts only row flips; collect them to terminate
        last_flip = self._node("LURowFlip", _ByJ)
        final_merge = self._node("LUFinalMerge", ConstantRoute)
        builder += prev >> last_flip >> final_merge
        return Flowgraph(builder, f"lu{uid}.factor")

    def _run(self, graph: Flowgraph, token) -> RunResult:
        """Engine-agnostic run: normalize the outcome to a RunResult."""
        started = time.monotonic()
        outcome = self.engine.run(graph, token)
        return coerce_run_result(outcome, started, time.monotonic())

    # -- public API ----------------------------------------------------------
    def load(self) -> RunResult:
        """Distribute the block columns to the workers."""
        result = self._run(self.load_graph, LULoadToken(self.a0))
        self._loaded = True
        return result

    def run(self) -> RunResult:
        """Run the factorization; returns its RunResult (virtual or wall
        time, depending on the engine)."""
        if not self._loaded:
            raise RuntimeError("call load() before run()")
        return self._run(self.lu_graph, LUStartToken(self.n))

    def gather(self) -> tuple[np.ndarray, List[np.ndarray]]:
        """Collect the factored matrix and the per-stage pivot vectors."""
        result = self._run(self.gather_graph, LUStartToken(self.n))
        tok = result.token
        pivots = [p.array for p in tok.pivots]
        return tok.a.array, pivots

    # -- verification ----------------------------------------------------
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (P·A row order, L, U) reconstructed from the workers."""
        fact, pivots = self.gather()
        n, r = self.n, self.r
        lower = np.tril(fact, -1)
        np.fill_diagonal(lower, 1.0)
        l = np.tril(lower)
        u = np.triu(fact)
        order = np.arange(n)
        for k, piv in enumerate(pivots):
            base = k * r
            for c, p in enumerate(piv):
                p = int(p) + base
                c = c + base
                if p != c:
                    order[[c, p]] = order[[p, c]]
        return order, l, u

    def check(self, atol: float = 1e-8) -> bool:
        """Verify ``P·A = L·U`` against the original matrix."""
        order, l, u = self.factors()
        return bool(np.allclose(self.a0[order], l @ u, atol=atol, rtol=1e-6))

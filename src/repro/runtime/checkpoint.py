"""Checkpointing and node-failure recovery (paper §6 future work).

*"The dynamicity of DPS combined with appropriate checkpointing
procedures may also lead to more lightweight approaches for graceful
degradation in case of node failures."*

This module provides that lightweight approach for the simulated
cluster:

- :class:`CheckpointManager` snapshots the state of thread collections
  between activations onto a striped file service (paper Figure 5) —
  checkpoint shards are written round-robin across the storage nodes,
  charging disk and network time;
- :meth:`SimEngine.fail_node <repro.runtime.sim_engine.SimEngine.fail_node>`
  discards every thread living on a node (its state is gone);
- :meth:`CheckpointManager.restore` re-creates the threads from the last
  snapshot on the collection's *current* mapping, so recovery is:
  fail → remap the collections away from the dead node → restore →
  replay the iterations since the checkpoint.

The snapshot is a deep copy of each thread's ``__dict__`` (the
distributed data structures live there), priced by
:meth:`~repro.core.DpsThread.state_nbytes`.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.threads import ThreadCollection
from .base import DATA_HEADER_BYTES
from .controller import ScheduleError
from .sim_engine import SimEngine

__all__ = ["CheckpointManager", "Checkpoint"]

#: sustained write/read bandwidth of the striped file service per node
CHECKPOINT_DISK_BYTES_PER_SECOND = 30e6

_checkpoint_ids = itertools.count(1)


@dataclass
class _ThreadSnapshot:
    collection: ThreadCollection
    index: int
    state: dict
    nbytes: int
    storage_node: str


@dataclass
class Checkpoint:
    """One consistent snapshot of a set of thread collections."""

    checkpoint_id: int
    taken_at: float
    snapshots: List[_ThreadSnapshot] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.snapshots)

    @property
    def thread_count(self) -> int:
        return len(self.snapshots)


class CheckpointManager:
    """Snapshot/restore of thread-collection state on a storage service.

    ``storage_nodes`` model the striped file system of the paper's
    runtime environment (Figure 5); shards are distributed round-robin.
    """

    def __init__(self, engine: SimEngine,
                 storage_nodes: Optional[List[str]] = None):
        self.engine = engine
        self.storage_nodes = storage_nodes or engine.cluster.node_names
        for node in self.storage_nodes:
            if node not in engine.controllers:
                raise ValueError(f"unknown storage node {node!r}")

    # ------------------------------------------------------------------
    def checkpoint(self, *collections: ThreadCollection) -> Checkpoint:
        """Snapshot the instantiated threads of *collections*.

        Charges one network transfer plus a disk write per thread shard.
        The schedule must be quiescent.
        """
        if not collections:
            raise ValueError("nothing to checkpoint")
        self.engine.check_quiescent()
        ckpt = Checkpoint(next(_checkpoint_ids), self.engine.sim.now)
        storage_cycle = itertools.cycle(self.storage_nodes)

        plan: List[Tuple[str, _ThreadSnapshot]] = []
        for collection in collections:
            for index in range(collection.thread_count):
                node = collection.node_of(index)
                thread = self.engine.controllers[node].thread(collection,
                                                              index)
                if thread is None:
                    continue  # never instantiated: nothing to save
                state = copy.deepcopy(thread.__dict__)
                nbytes = thread.state_nbytes() + DATA_HEADER_BYTES
                snap = _ThreadSnapshot(
                    collection, index, state, nbytes, next(storage_cycle),
                )
                plan.append((node, snap))
                ckpt.snapshots.append(snap)

        def write():
            for src, snap in plan:
                yield self.engine.cluster.network.transfer(
                    self.engine.cluster.node(src),
                    self.engine.cluster.node(snap.storage_node),
                    snap.nbytes,
                )
                yield self.engine.sim.timeout(
                    snap.nbytes / CHECKPOINT_DISK_BYTES_PER_SECOND
                )

        proc = self.engine.sim.spawn(write(), name=f"ckpt:{ckpt.checkpoint_id}")
        self.engine.run_until(proc)
        self.engine.trace("checkpoint", id=ckpt.checkpoint_id,
                          threads=ckpt.thread_count, nbytes=ckpt.nbytes)
        return ckpt

    # ------------------------------------------------------------------
    def restore(self, ckpt: Checkpoint) -> Dict[str, int]:
        """Rebuild the snapshotted threads on their *current* mapping.

        Call after remapping the collections away from failed nodes.
        Charges a disk read on the storage node plus the transfer to each
        thread's (new) home.  Returns a report dict.
        """
        self.engine.check_quiescent()
        report = {"restored": 0, "bytes": 0}

        def read():
            for snap in ckpt.snapshots:
                target = snap.collection.node_of(snap.index)
                if snap.storage_node not in self.engine.controllers:
                    raise ScheduleError(
                        f"checkpoint shard on unknown node {snap.storage_node!r}"
                    )
                yield self.engine.sim.timeout(
                    snap.nbytes / CHECKPOINT_DISK_BYTES_PER_SECOND
                )
                yield self.engine.cluster.network.transfer(
                    self.engine.cluster.node(snap.storage_node),
                    self.engine.cluster.node(target),
                    snap.nbytes,
                )
                controller = self.engine.controllers[target]
                # discard whatever lives there now (stale or lazily created)
                controller.discard_thread(snap.collection, snap.index)
                thread = snap.collection.rebuild_thread(copy.deepcopy(snap.state))
                controller.adopt_thread(snap.collection, snap.index, thread)
                report["restored"] += 1
                report["bytes"] += snap.nbytes

        proc = self.engine.sim.spawn(read(), name=f"restore:{ckpt.checkpoint_id}")
        self.engine.run_until(proc)
        self.engine.trace("restore", id=ckpt.checkpoint_id, **report)
        return report

"""Fault tolerance for the multiprocess runtime.

The paper names graceful degradation as future work: *"the dynamicity of
DPS combined with appropriate checkpointing procedures may also lead to
more lightweight approaches for graceful degradation."*  The simulated
engine reproduces the checkpoint flavour (:mod:`repro.runtime.checkpoint`);
this module provides the lightweight flavour for the real runtime —
**split-boundary replay**, the recover-at-stage-boundaries idea of
task-pipeline systems: split–merge pairs with tracked group totals are
natural replay units.

Three pieces, all engine-agnostic and individually testable:

- :class:`TokenJournal` — the split side keeps every emitted token of a
  *windowed* group until the matching merge acks it.  Because recording
  piggybacks on ``SplitWindow.on_post`` and pruning on the existing ack
  path, the journal is bounded by tokens-in-flight (≤ the flow-control
  window per split instance) and costs one dict write per token.
- :class:`ReplayDedup` — exactly-once admission for replayed tokens,
  keyed by the token's top group frame ``(group_id, index)``.  Checked at
  every *non-leaf* input (merge, stream, split): a replayed token that
  reaches an already-processed split must be dropped there, or the split
  would mint a fresh inner group and re-drive stateful merges downstream.
  Stateless leaf operations deliberately re-execute — they are
  deterministic, and their outputs carry the same frame, so duplicates
  die at the next non-leaf hop.
- :class:`FaultPolicy` + :func:`plan_remap`/:func:`apply_remap` —
  deterministic chaos injection (kill / drop from a seed) and the
  placement arithmetic that moves a dead kernel's thread instances onto
  survivors via the existing :meth:`ThreadCollection.map_nodes` machinery.

Recovery contract: a failure is masked when the dead kernel hosted
thread instances whose in-flight work is replayable — leaf instances
(stateless by the DPS execution model: state lives in thread objects
that the remap recreates fresh) and split/merge instances with **no
live group state** at the time of death.  A kernel that dies holding a
half-merged group cannot be reconstructed from journals alone and the
run fails with :class:`~repro.runtime.controller.KernelFailure`.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "FaultPolicy",
    "TokenJournal",
    "ReplayDedup",
    "plan_remap",
    "plan_rebalance",
    "apply_remap",
]


# ----------------------------------------------------------------------
# chaos injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPolicy:
    """Deterministic fault injection for chaos tests.

    Frozen so one policy object can be shared across forked kernel
    processes without synchronization; every random decision comes from
    a per-kernel :class:`random.Random` seeded from ``(kernel name,
    seed)``, so a given policy produces the same kill/drop schedule on
    every run.
    """

    #: Kernel (logical node) name to kill, or ``None`` for no kill.
    kill_kernel: Optional[str] = None
    #: Kill ``kill_kernel`` this many seconds after it starts.
    kill_after: Optional[float] = None
    #: Kill ``kill_kernel`` when it has received this many data
    #: messages — deterministic mid-phase death, unlike wall-clock.
    kill_after_messages: Optional[int] = None
    #: Probability in [0, 1) of dropping each received data frame.
    #: Control messages (acks, group totals, remap/replay barriers) are
    #: never dropped — only :data:`~repro.net.protocol.MSG_DATA`.
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1): {self.drop_rate}")
        if self.kill_kernel is not None and (
                self.kill_after is None and self.kill_after_messages is None):
            raise ValueError(
                "kill_kernel needs kill_after= (seconds) or "
                "kill_after_messages=")

    @property
    def enabled(self) -> bool:
        return self.kill_kernel is not None or self.drop_rate > 0.0

    def kills(self, kernel_name: str) -> bool:
        return self.kill_kernel == kernel_name

    def rng_for(self, kernel_name: str) -> random.Random:
        """Per-kernel RNG; stable across runs (crc32, not salted hash)."""
        return random.Random((zlib.crc32(kernel_name.encode()) << 32)
                             ^ self.seed)

    @staticmethod
    def parse_kill(spec: str) -> Tuple[str, Optional[float], Optional[int]]:
        """Parse ``"name@1.5"`` (seconds) or ``"name@#12"`` (messages)."""
        name, sep, when = spec.partition("@")
        if not sep or not name or not when:
            raise ValueError(
                f"kill spec must be 'kernel@seconds' or 'kernel@#messages', "
                f"got {spec!r}")
        if when.startswith("#"):
            return name, None, int(when[1:])
        return name, float(when), None


# ----------------------------------------------------------------------
# split-side journal
# ----------------------------------------------------------------------
class TokenJournal:
    """Un-acked emitted tokens of windowed groups, keyed by
    ``(group_id, index)`` of the frame the emitting split pushed.

    Insertion-ordered, so scanning for stale entries stops at the first
    fresh one.  Not thread-safe on its own — it lives on its kernel's
    loop (recording happens next to ``SplitWindow.on_post``, pruning
    next to ``on_ack``, both already serialized).  *on_drained* is
    called by the prune that removes the last entry.
    """

    __slots__ = ("_entries", "_on_drained")

    def __init__(self, on_drained: Optional[Callable[[], None]] = None):
        self._entries: Dict[Tuple[int, int], List] = {}
        self._on_drained = on_drained

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, env, now: float) -> None:
        frame = env.frames[-1]
        # A mutable [env, timestamp] pair so the resend ager can refresh
        # the timestamp without re-inserting (insertion order is the
        # stale-scan order).
        self._entries[(frame.group_id, frame.index)] = [env, now]

    def prune(self, group_id: int, index: int) -> None:
        """Forget an acked token (no-op when already pruned/replayed)."""
        if self._entries.pop((group_id, index), None) is not None \
                and not self._entries and self._on_drained is not None:
            self._on_drained()

    def replay_all(self, now: float) -> List:
        """Every journaled envelope, oldest first; timestamps refreshed
        so the resend ager does not immediately re-send them."""
        out = []
        for entry in self._entries.values():
            entry[1] = now
            out.append(entry[0])
        return out

    def stale(self, older_than: float, now: float) -> List:
        """Envelopes un-acked for *older_than* seconds; refreshed like
        :meth:`replay_all` so each entry is re-sent at most once per
        aging period."""
        out = []
        for entry in self._entries.values():
            if now - entry[1] < older_than:
                break  # insertion order: everything later is fresher
            entry[1] = now
            out.append(entry[0])
        return out


# ----------------------------------------------------------------------
# replay dedup
# ----------------------------------------------------------------------
class ReplayDedup:
    """Exactly-once admission for token frames at non-leaf inputs.

    Keyed by ``(consumer, group_id, index)``, where *consumer*
    identifies the consuming graph node — the same frame legitimately
    crosses several non-leaf inputs on one kernel (a split consumes it,
    and a downstream merge's completion token carries the popped-back
    frame to the *next* merge), so admission must be per consumer, not
    global.  A replayed duplicate always targets the same consumer as
    the original and is rejected there.

    Entries are *not* dropped when a group completes: a stale resend
    that arrives after its merge group finished must still be rejected,
    or it would recreate the group and wedge the merge.  Instead a FIFO
    cap bounds total memory — far above any real flow-control window,
    and an evicted entry only matters if a duplicate arrives more than
    *cap* tokens after the original, which the journal's prune-on-ack
    and the short resend aging period prevent.
    """

    __slots__ = ("_groups", "_order", "_cap")

    def __init__(self, cap: int = 1 << 16):
        #: key -> (the key as first stored, indexes seen): entries of a
        #: group share that key object, not one decoded copy each
        self._groups: Dict[Tuple, Tuple[Tuple, Set[int]]] = {}
        self._order: Deque[Tuple] = deque()
        self._cap = cap

    def __len__(self) -> int:
        return len(self._order)

    def fresh(self, consumer, group_id: int, index: int) -> bool:
        """Record and admit the first sighting; reject duplicates."""
        key = (consumer, group_id)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = (key, set())
        elif index in group[1]:
            return False
        key, seen = group
        seen.add(index)
        order = self._order
        order.append((key, index))
        while len(order) > self._cap:
            old_key, old_idx = order.popleft()
            old = self._groups.get(old_key)
            if old is not None:
                old[1].discard(old_idx)
                if not old[1]:
                    del self._groups[old_key]
        return True


# ----------------------------------------------------------------------
# remapping
# ----------------------------------------------------------------------
def _unique_collections(graphs: Iterable) -> Iterable:
    seen: Set[int] = set()
    for graph in graphs:
        for coll in graph.collections():
            if id(coll) in seen:
                continue
            seen.add(id(coll))
            yield coll


def plan_remap(graphs: Iterable, dead: str, survivors: List[str],
               depths: Optional[Dict[str, int]] = None) -> Dict[str, List[str]]:
    """New placements for every collection with instances on *dead*.

    Each dead slot goes to the least-loaded survivor at planning time:
    observed queue depth (*depths*, e.g. from
    :meth:`~repro.net.nameserver.NameServerClient.loads`) plus the slots
    this plan has already assigned.  Ties break on the sorted node name —
    a **stable node-id tiebreak**, so with equal depths (or none
    reported) the plan degrades to round-robin over the sorted survivor
    list and is reproducible run-to-run.  The console computes the plan
    once and broadcasts it.  Returns ``{collection_name: full placement
    list}`` (collection names are unique per application by
    construction).
    """
    if not survivors:
        raise ValueError(f"kernel {dead!r} died and no kernels survive")
    targets = sorted(survivors)
    load = {name: int((depths or {}).get(name, 0)) for name in targets}
    mapping: Dict[str, List[str]] = {}
    for coll in _unique_collections(graphs):
        placements = coll.placements
        if dead not in placements:
            continue
        new = []
        for node in placements:
            if node == dead:
                target = min(targets, key=lambda t: (load[t], t))
                load[target] += 1
                new.append(target)
            else:
                new.append(node)
        mapping[coll.name] = new
    return mapping


def plan_rebalance(
    graphs: Iterable,
    members: Iterable[str],
    depths: Optional[Dict[str, int]] = None,
    joined: Iterable[str] = (),
) -> Tuple[Dict[str, List[str]], int]:
    """Voluntary remap plan over the live *members* of the cluster.

    Where :func:`plan_remap` only evacuates a dead kernel,
    ``plan_rebalance`` spreads work *onto* joiners and *off* retirees:

    - every instance placed on a non-member (a retiring kernel) must
      move;
    - multi-instance collections are spread across members with a
      capacity-balanced, minimal-move assignment — instances keep their
      current node whenever its capacity allows, and spare capacity goes
      first to nodes already hosting instances (stability), then to
      *joined* kernels, then by observed queue depth, with the sorted
      node name as the final stable tiebreak;
    - single-instance collections are pinned placements (the paper's
      ``MainRoute`` idiom) and stay put unless their node is retiring,
      in which case they move to the least-loaded member.

    Fully deterministic for given inputs.  Returns ``(mapping, moved)``
    where *mapping* holds only collections whose placements change and
    *moved* counts the thread instances that migrate.
    """
    targets = sorted(set(members))
    if not targets:
        raise ValueError("cannot rebalance onto an empty member set")
    joined = set(joined)
    load = {name: int((depths or {}).get(name, 0)) for name in targets}
    member_set = set(targets)
    mapping: Dict[str, List[str]] = {}
    moved = 0
    for coll in _unique_collections(graphs):
        placements = coll.placements
        n = len(placements)
        if n == 1:
            if placements[0] in member_set:
                continue
            target = min(targets, key=lambda t: (load[t], t))
            load[target] += 1
            mapping[coll.name] = [target]
            moved += 1
            continue
        counts = {t: 0 for t in targets}
        for node in placements:
            if node in member_set:
                counts[node] += 1
        # Capacity: floor(n / members) everywhere, remainder seats to
        # current hosts first (fewest moves), then joiners, then by load.
        base, extra = divmod(n, len(targets))
        capacity = {t: base for t in targets}
        for t in sorted(targets,
                        key=lambda t: (-counts[t], 0 if t in joined else 1,
                                       load[t], t))[:extra]:
            capacity[t] += 1
        new: List[Optional[str]] = [None] * n
        for i, node in enumerate(placements):
            if node in member_set and capacity[node] > 0:
                capacity[node] -= 1
                new[i] = node
        spare = [t for t in targets for _ in range(capacity[t])]
        for i in range(n):
            if new[i] is None:
                new[i] = spare.pop(0)
                load[new[i]] += 1
                moved += 1
        if list(new) != placements:
            mapping[coll.name] = list(new)
    return mapping, moved


def apply_remap(graphs: Iterable, mapping: Dict[str, List[str]]) -> List[str]:
    """Apply a :func:`plan_remap` plan to this process's graph objects.

    Returns the names of the collections whose placements changed.
    """
    applied = []
    for coll in _unique_collections(graphs):
        new = mapping.get(coll.name)
        if new is not None and list(new) != coll.placements:
            coll.map_nodes(list(new))
            applied.append(coll.name)
    return applied

"""DPS threads and thread collections (paper §2–3).

A *DPS thread* is an execution context with user-defined local state —
the place where distributed data structures live (e.g. a band of the Game
of Life world, a block-column of a matrix).  Threads are grouped into
*thread collections* which are mapped onto cluster nodes with mapping
strings such as ``"nodeA*2 nodeB"`` (two threads on nodeA, one on nodeB).

Operations within a thread execute sequentially, mirroring the paper's
mapping of DPS threads onto operating-system threads.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Type

__all__ = ["DpsThread", "ThreadCollection", "parse_mapping"]

_MAP_ITEM = re.compile(r"^(?P<node>[^*\s]+)(\*(?P<mult>\d+))?$")


class DpsThread:
    """Base class for user thread state.

    Subclass and add attributes in ``__init__`` to hold per-thread data
    (the analog of C++ thread member variables).  The runtime fills in
    :attr:`index` (position within the collection) and :attr:`node_name`
    (the machine the thread runs on) before any operation executes.
    """

    #: Index of this thread within its collection (set by the runtime).
    index: int = -1
    #: Name of the node hosting this thread (set by the runtime).
    node_name: str = ""
    #: Name of the owning collection (set by the runtime).
    collection_name: str = ""

    def state_nbytes(self) -> int:
        """Approximate size of the thread-local state in bytes.

        Used to price state migration when a collection is remapped at
        runtime (:meth:`~repro.runtime.SimEngine.remap`).  Override for
        states the generic estimator cannot size.
        """
        from ..serial.token import _approx_nbytes

        try:
            return _approx_nbytes(
                {k: v for k, v in self.__dict__.items()
                 if not k.startswith("_")}
            )
        except TypeError:
            return 0

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.collection_name}[{self.index}]"
            f"@{self.node_name}>"
        )


def parse_mapping(mapping: str) -> List[str]:
    """Expand a mapping string into a node-name list.

    ``"nodeA*2 nodeB"`` → ``["nodeA", "nodeA", "nodeB"]``.  Multipliers
    must be ≥ 1; whitespace separates entries.
    """
    names: List[str] = []
    for item in mapping.split():
        m = _MAP_ITEM.match(item)
        if not m:
            raise ValueError(f"bad mapping item {item!r} in {mapping!r}")
        mult = int(m.group("mult") or 1)
        if mult < 1:
            raise ValueError(f"multiplier must be >= 1 in {item!r}")
        names.extend([m.group("node")] * mult)
    if not names:
        raise ValueError(f"mapping string {mapping!r} produced no threads")
    return names


class ThreadCollection:
    """A named group of DPS threads of one thread class.

    The collection is *mapped* onto nodes before a schedule using it can
    run; mapping is dynamic (at runtime), exactly as in the paper::

        workers = ThreadCollection(ComputeThread, "proc")
        workers.map("node01*2 node02")
    """

    def __init__(self, thread_class: Type[DpsThread] = DpsThread, name: str = ""):
        if not (isinstance(thread_class, type) and issubclass(thread_class, DpsThread)):
            raise TypeError("thread_class must be a DpsThread subclass")
        self.thread_class = thread_class
        self.name = name or thread_class.__name__
        self._placements: Optional[List[str]] = None

    # -- mapping ---------------------------------------------------------
    def map(self, mapping: str) -> "ThreadCollection":
        """Map threads onto nodes from a mapping string; returns self."""
        self._placements = parse_mapping(mapping)
        return self

    def map_nodes(self, nodes: Sequence[str] | Iterable[str]) -> "ThreadCollection":
        """Map one thread per entry of *nodes* (duplicates allowed)."""
        placements = list(nodes)
        if not placements:
            raise ValueError("map_nodes() requires at least one node")
        self._placements = placements
        return self

    @property
    def is_mapped(self) -> bool:
        return self._placements is not None

    def _mapped(self) -> List[str]:
        """The placements list itself (not a copy); raises if unmapped."""
        if self._placements is None:
            raise RuntimeError(
                f"thread collection {self.name!r} is not mapped; call "
                f".map('nodeA*2 nodeB') or .map_nodes([...]) first"
            )
        return self._placements

    @property
    def placements(self) -> List[str]:
        """Node name per thread index (a copy)."""
        return list(self._mapped())

    @property
    def thread_count(self) -> int:
        return len(self._mapped())

    def node_of(self, index: int) -> str:
        """The node hosting thread *index*."""
        placements = self._mapped()
        if not 0 <= index < len(placements):
            raise IndexError(
                f"thread index {index} out of range for collection "
                f"{self.name!r} of size {len(placements)}"
            )
        return placements[index]

    def make_thread(self, index: int) -> DpsThread:
        """Instantiate the thread object for *index* (runtime hook)."""
        thread = self.thread_class()
        thread.index = index
        thread.node_name = self.node_of(index)
        thread.collection_name = self.name
        return thread

    def __repr__(self) -> str:
        mapped = self._placements if self._placements else "unmapped"
        return f"<ThreadCollection {self.name!r} {mapped}>"

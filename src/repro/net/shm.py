"""Shared-memory payload lane for co-located kernels.

``MultiprocessEngine`` forks every kernel onto the local machine, yet
PR 2's transport round-trips each payload through the TCP stack — two
copies through kernel socket buffers that a same-host peer does not
need.  This module gives each peer connection an optional
``multiprocessing.shared_memory`` arena: token segments above a size
threshold are copied once into the arena and only a small
``(offset, length)`` descriptor travels over TCP (``MSG_SHM``);
everything below the threshold stays inline on the existing zero-copy
path.

Co-location is detected at HELLO time by comparing
:func:`host_fingerprint` values published through the name server, so a
genuinely distributed deployment silently keeps the plain TCP lane.

Reclamation is a one-byte state flag per block, no reverse messages:
the sender writes ``1`` before publishing a block, the receiver clears
it to ``0`` after copying the payload out, and the sender lazily
reclaims cleared blocks (in FIFO ring order) the next time it
allocates.  The TCP descriptor frame orders the sender's arena writes
before the receiver's reads (a syscall on each side), and a stale flag
read can only *delay* reclamation, never corrupt a live block.  When
the arena is full the sender simply falls back to inline TCP for that
segment — the lane is an optimization, never a correctness dependency.
"""

from __future__ import annotations

import socket as _socket
from collections import deque
from multiprocessing import resource_tracker, shared_memory
from typing import Deque, List, Optional, Tuple

from ..serial.wire import Segment
from . import protocol as P

__all__ = ["host_fingerprint", "ShmSender", "ShmReceiver"]

#: One state byte per block: 1 = in flight, 0 = consumed (reclaimable).
_BLOCK_HEADER = 1

_fingerprint: Optional[str] = None


def host_fingerprint() -> str:
    """An identifier equal exactly for processes on the same machine.

    Hostname alone is forgeable across containers; the kernel boot id is
    unique per boot, so the pair distinguishes same-name hosts while
    matching every process of one machine.
    """
    global _fingerprint
    if _fingerprint is None:
        try:
            with open("/proc/sys/kernel/random/boot_id") as fh:
                boot_id = fh.read().strip()
        except OSError:
            boot_id = ""
        _fingerprint = f"{_socket.gethostname()}:{boot_id}"
    return _fingerprint


def _as_byte_view(seg: Segment) -> memoryview:
    view = seg if type(seg) is memoryview else memoryview(seg)
    if view.format != "B" or view.ndim != 1:
        view = view.cast("B")
    return view


class ShmSender:
    """The sending half of one connection's shared-memory arena.

    A ring ("bump") allocator over one ``SharedMemory`` block.  Blocks
    are allocated at the head, outstanding blocks form a FIFO (the
    receiver consumes frames in order), and consumed blocks are
    reclaimed from the tail before each allocation.  Single-producer
    (whoever holds the owning peer's write lock) / single-consumer (the
    peer's I/O loop), so no locking is needed in here.
    """

    def __init__(self, arena_bytes: int, threshold: int, metrics=None):
        self._shm = shared_memory.SharedMemory(create=True, size=arena_bytes)
        self.name = self._shm.name
        self.size = self._shm.size  # may be page-rounded above arena_bytes
        self.threshold = threshold
        self._buf = self._shm.buf
        self._head = 0
        #: (block_offset, total_len) of in-flight blocks, ring order.
        self._pending: Deque[Tuple[int, int]] = deque()
        self._metrics = metrics

    # -- allocation ------------------------------------------------------
    def _reclaim(self) -> None:
        buf = self._buf
        pending = self._pending
        while pending and buf[pending[0][0]] == 0:
            pending.popleft()

    def _fit(self, total: int) -> Optional[int]:
        """Offset for a *total*-byte block, or ``None`` when full.

        Strict inequalities keep the head from ever catching the tail
        while blocks are outstanding, so "full" and "empty" stay
        distinguishable without a fill counter.
        """
        if not self._pending:
            self._head = 0
            return 0 if total <= self.size else None
        tail = self._pending[0][0]
        head = self._head
        if head >= tail:
            if self.size - head >= total:
                return head
            if tail > total:
                return 0  # wrap; the gap at the end is reclaimed with the tail
            return None
        if tail - head > total:
            return head
        return None

    def place(self, view: memoryview) -> Optional[Tuple[int, int]]:
        """Copy *view* into the arena; ``(block_offset, nbytes)`` or ``None``."""
        n = view.nbytes
        total = n + _BLOCK_HEADER
        self._reclaim()
        offset = self._fit(total)
        if offset is None:
            return None
        buf = self._buf
        buf[offset] = 1
        buf[offset + 1:offset + 1 + n] = view
        self._pending.append((offset, total))
        self._head = offset + total
        return offset, n

    # -- message rewriting -----------------------------------------------
    def rewrite(self, segments: List[Segment]) -> List[Segment]:
        """Divert a message's large segments through the arena.

        Returns *segments* unchanged when nothing crosses the threshold
        (or the arena is full), else an ``MSG_SHM`` descriptor message
        wrapping the original payload.
        """
        parts: Optional[List[tuple]] = None
        for i, seg in enumerate(segments):
            view = _as_byte_view(seg)
            if view.nbytes >= self.threshold:
                placed = self.place(view)
                if placed is not None:
                    if parts is None:
                        parts = [("inline", s) for s in segments[:i]]
                    parts.append(("shm",) + placed)
                    if self._metrics is not None:
                        self._metrics.counter("shm_bytes_bypassed").inc(
                            placed[1])
                    continue
            if parts is not None:
                parts.append(("inline", seg))
        if parts is None:
            return segments
        return P.encode_shm_data(parts)

    # -- lifecycle -------------------------------------------------------
    def reclaim_all(self) -> None:
        """Forcibly reclaim every in-flight block.

        A peer that dies mid-``MSG_SHM`` handoff never clears the state
        flags of the blocks whose descriptors it did not consume, and
        because reclamation is FIFO from the ring tail, one such block
        pins *everything* allocated after it — the arena silently shrinks
        to nothing and every send falls back to inline TCP.  Call only
        when the peer connection is torn down (the peer must never read
        the arena again).
        """
        buf = self._buf
        for offset, _ in self._pending:
            buf[offset] = 0
        self._pending.clear()
        self._head = 0

    def destroy(self) -> None:
        """Close and unlink the arena (creator owns the name)."""
        try:
            self._buf.release()
        except BufferError:  # pragma: no cover - no sub-views are retained
            pass
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            # When sender and receiver share one resource tracker (fork
            # start method: the engine's own mp primitives start it
            # before the kernels fork), the receiver's attach-time
            # unregister also removed *this* registration; re-register so
            # unlink()'s unregister always finds an entry.  Registering
            # twice is a no-op, so the separate-tracker case is unharmed.
            resource_tracker.register(self._shm._name, "shared_memory")
            self._shm.unlink()
        except (OSError, FileNotFoundError):
            pass


class ShmReceiver:
    """The receiving half: attach to a peer's arena and copy blocks out."""

    def __init__(self, name: str, size: int):
        self._shm = shared_memory.SharedMemory(name=name)
        # Python 3.11 registers *attachments* with the resource tracker
        # too (no track= parameter until 3.13), so this process would try
        # to unlink the arena at exit and race the creator; undo the
        # spurious registration — cleanup belongs to the creator alone.
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
        if self._shm.size < size:
            raise ValueError(
                f"shm arena {name!r} smaller than announced: "
                f"{self._shm.size} < {size}")
        self._buf = self._shm.buf

    def reassemble(self, parts: List[tuple]) -> bytearray:
        """Rebuild the original message payload from an MSG_SHM part list.

        Arena blocks are released (state flag cleared) as soon as their
        bytes are copied out; the returned ``bytearray`` is owned by the
        caller and safe for ``decode(copy=False)``.
        """
        total = 0
        for part in parts:
            total += part[2] if part[0] == "shm" else part[1].nbytes
        out = bytearray(total)
        dest = memoryview(out)
        buf = self._buf
        pos = 0
        for part in parts:
            if part[0] == "shm":
                _, block, n = part
                dest[pos:pos + n] = buf[block + 1:block + 1 + n]
                buf[block] = 0  # hand the block back to the sender
            else:
                seg = part[1]
                n = seg.nbytes
                dest[pos:pos + n] = seg
            pos += n
        return out

    def close(self) -> None:
        try:
            self._buf.release()
        except BufferError:  # pragma: no cover
            pass
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

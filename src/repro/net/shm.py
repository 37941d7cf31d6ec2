"""Shared-memory payload lane for co-located kernels.

``MultiprocessEngine`` forks every kernel onto the local machine, yet
the TCP lane round-trips each payload through the socket buffers — two
copies that a same-host peer does not need.  This module gives each
peer connection an optional POSIX shared-memory arena: a
message with any segment at or above a size threshold is copied once,
whole (header and payloads, contiguous), into one arena block, and only
a ``(block_offset, length)`` descriptor travels over TCP (``MSG_SHM``).
Messages below the threshold stay inline on the existing zero-copy
path.  Co-location is detected at dial time by comparing
:func:`host_fingerprint` values published through the name server, so a
genuinely distributed deployment silently keeps the plain TCP lane.

**Naming.**  The sender creates the arena under a fresh ``psm_*`` name
and the receiver unlinks that name as soon as it has mapped it: the
mappings outlive the name, and a kernel killed with ``SIGKILL`` leaves
nothing in ``/dev/shm`` behind it.  Neither side goes through the
standard library's shared-memory class, whose resource tracker would be
one more process per kernel, outliving it.

**Ownership.**  A block belongs to exactly one side at a time, and one
state byte in front of it says which: the sender writes ``1`` before
the descriptor leaves, and from then on the block is the receiver's.
The receiver does not copy it out.  :meth:`ShmReceiver.borrow` returns
a view of the block itself, the message is decoded with
``decode(copy=False)``, and the token's arrays alias the arena.
Whoever holds such an array — an operation still running, thread
state, a merge buffering its group, the recovery journal of the next
hop — holds the block; nobody else may.  The state byte goes back to
``0`` when the last of those references dies (a ``weakref.finalize``
on the array that owns the view), and only then may the sender write
there again.  There are no reverse messages: the TCP descriptor frame
orders the sender's arena writes before the receiver's reads (a
syscall on each side), and a stale flag read can only *delay* reuse,
never corrupt a live block.

Blocks therefore come back in the application's order, not FIFO.  The
sender's allocator (:meth:`ShmSender.place`) drops every block whose
flag has cleared, wherever it sits, and puts the next one in the first
gap that fits, so a long-lived holder costs the arena its own bytes
(plus whatever a gap beside it is too small to take) and never blocks
the lane behind it.  When no gap fits, the message goes inline over
TCP — the lane is an optimization, never a correctness dependency.
"""

from __future__ import annotations

import mmap
import os
import secrets
import socket as _socket
import weakref
from typing import List, Optional, Tuple

import numpy as np

try:  # shm_open / shm_unlink, without multiprocessing's resource tracker
    import _posixshmem
except ImportError:  # pragma: no cover - non-POSIX: the lane stays off
    _posixshmem = None

from ..serial.wire import Segment, WireError
from . import protocol as P
from .framing import _as_byte_views

__all__ = ["host_fingerprint", "ShmSender", "ShmReceiver"]

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


class ShmSender:
    """The sending half of one connection's shared-memory arena.

    A first-fit allocator over one shared-memory block: ``_live``
    lists the blocks not yet seen released, sorted by offset, and every
    allocation first forgets the ones whose flag has cleared — in
    whatever order the receiver let go of them.  Single-producer (the
    owning peer's loop thread); the receiver only ever clears flags, so
    no locking is needed in here.
    """

    def __init__(self, arena_bytes: int, threshold: int, metrics=None):
        if _posixshmem is None:  # pragma: no cover - non-POSIX
            raise OSError("no POSIX shared memory on this platform")
        while True:
            self.name = "psm_" + secrets.token_hex(4)
            try:
                fd = _posixshmem.shm_open(
                    "/" + self.name, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                    mode=0o600)
                break
            except FileExistsError:  # pragma: no cover - a name clash
                pass
        try:
            os.ftruncate(fd, arena_bytes)
            self._arena = mmap.mmap(fd, arena_bytes)
        except (OSError, ValueError):
            _posixshmem.shm_unlink("/" + self.name)
            raise
        finally:
            os.close(fd)
        self.size = len(self._arena)
        self.threshold = threshold
        self._buf = memoryview(self._arena)
        #: (start, end) of the blocks still out, sorted by start.
        self._live: List[Tuple[int, int]] = []
        self._metrics = metrics

    def place(self, views: List[memoryview]) -> Optional[Tuple[int, int]]:
        """Copy *views*, end to end, into one block.

        Returns ``(block_offset, nbytes)``, or ``None`` when no gap
        between the blocks still out is large enough.
        """
        length = sum(view.nbytes for view in views)
        total = length + 1  # the state byte
        buf = self._buf
        live = self._live = [blk for blk in self._live if buf[blk[0]]]
        block = 0
        for at, (start, end) in enumerate(live):
            if start - block >= total:
                break
            block = end
        else:
            at = len(live)
            if self.size - block < total:
                return None
        live.insert(at, (block, block + total))
        buf[block] = 1
        pos = block + 1
        for view in views:
            buf[pos:pos + view.nbytes] = view
            pos += view.nbytes
        return block, length

    def rewrite(self, segments: List[Segment]) -> List[Segment]:
        """Divert a message with a large segment through the arena.

        Returns *segments* unchanged when nothing reaches the threshold
        (or the arena has no room), else the ``MSG_SHM`` descriptor of
        the block that now holds the whole message.
        """
        views = _as_byte_views(segments)
        threshold = self.threshold
        if not any(view.nbytes >= threshold for view in views):
            return segments
        placed = self.place(views)
        if placed is None:
            return segments
        if self._metrics is not None:
            self._metrics.counter("shm_bytes_bypassed").inc(placed[1])
        return P.encode_shm_data(*placed)

    # -- lifecycle -------------------------------------------------------
    def reclaim_all(self) -> None:
        """Forcibly take back every block still out.

        A peer that dies never clears the flags of the blocks it held or
        had not yet been told about, and each would cost the arena its
        bytes for good.  Call only when the peer connection is torn down
        (the peer must never read the arena again).
        """
        buf = self._buf
        for start, _ in self._live:
            buf[start] = 0
        self._live.clear()

    def destroy(self) -> None:
        """Unmap the arena and unlink its name, unless the receiver
        already has."""
        self._buf.release()
        self._arena.close()
        try:
            _posixshmem.shm_unlink("/" + self.name)
        except FileNotFoundError:
            pass


class ShmReceiver:
    """The receiving half: map a peer's arena and lend its blocks out.

    The arena is mapped directly (``shm_open`` + ``mmap``) and its name
    unlinked at once, so it is gone from ``/dev/shm`` however either
    side ends.  The mapping has to outlive :meth:`close` for as long as
    a borrowed block is in use: every borrowed view keeps the ``mmap``
    object alive, and it is unmapped when the last reference to it goes.
    """

    def __init__(self, name: str, size: int):
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self._arena: Optional[mmap.mmap] = mmap.mmap(fd, 0)
        finally:
            os.close(fd)
        try:
            _posixshmem.shm_unlink("/" + name)
        except FileNotFoundError:  # the sender is already gone
            pass
        if len(self._arena) < size:
            raise ValueError(
                f"shm arena {name!r} smaller than announced: "
                f"{len(self._arena)} < {size}")

    def borrow(self, block: int, length: int) -> memoryview:
        """The *length* message bytes of the block at *block*, in place.

        The block is released (state flag cleared) when the returned
        view and everything decoded out of it with ``copy=False`` are
        gone.  A descriptor that does not name a published block inside
        the arena is a :class:`WireError`.
        """
        arena = self._arena
        if block < 0 or length < 1 or block + 1 + length > len(arena):
            raise WireError(
                f"shm descriptor ({block}, {length}) outside the "
                f"{len(arena)}-byte arena")
        if arena[block] != 1:
            raise WireError(f"shm block at {block} was not published")
        owner = np.frombuffer(arena, np.uint8, length, block + 1)
        # Last reference gone: flag back to 0, the block is the sender's.
        weakref.finalize(owner, arena.__setitem__, block, 0).atexit = False
        return memoryview(owner)

    def close(self) -> None:
        """Stop lending.  Blocks already borrowed stay valid (and still
        clear their flags); the arena is unmapped when the last is
        released — at once when none is out."""
        self._arena = None

"""Framed message I/O over stream sockets (zero-copy send path).

One *message* on the wire is a :func:`repro.serial.wire.frame` header
(length prefix + protocol-version byte) followed by the payload bytes.
Payloads go out as scatter-gather segment lists via vectored ``sendmsg``
calls, so large :func:`~repro.serial.wire.encode_segments` payloads
(borrowed ndarray memoryviews) go from the array's own storage to the
kernel socket buffer without ever being coalesced into an intermediate
Python buffer — the "pointer-arithmetic serializer straight onto the
wire" behaviour of the C++ library.

:func:`send_messages` flushes *many* framed messages through as few
``sendmsg`` calls as the platform allows (an outbox drained in one
syscall instead of one syscall per frame), and :class:`FrameReader`
turns each ``recv`` into every complete frame it delivered, each an
*owned* ``bytearray`` suitable for ``decode(copy=False)``.  The frame
format is the same whichever way the frames were batched.  (The kernel's
own non-blocking writer is :class:`~repro.net.eventloop.VectoredSender`.)
"""

from __future__ import annotations

import socket
from typing import List, Optional, Tuple, Union

from ..serial.wire import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    Segment,
    WireError,
    frame,
)
from ..serial.wire import _FRAME_HEADER  # shared header layout

__all__ = [
    "send_messages",
    "FrameReader",
    "MAX_SENDMSG_SEGMENTS",
    "DEFAULT_MAX_BATCH_BYTES",
    "DEFAULT_RECV_BYTES",
]

#: Cap on buffers per ``sendmsg`` call, below every platform's IOV_MAX.
MAX_SENDMSG_SEGMENTS = 512

#: Default byte budget per ``sendmsg`` in :func:`send_messages`.
DEFAULT_MAX_BATCH_BYTES = 1 << 20

#: Default ``recv`` size for :class:`FrameReader`.
DEFAULT_RECV_BYTES = 1 << 18


def _as_byte_views(segments: List[Segment]) -> List[memoryview]:
    views = []
    for seg in segments:
        view = seg if type(seg) is memoryview else memoryview(seg)
        if view.format != "B" or view.ndim != 1:
            view = view.cast("B")
        views.append(view)
    return views


def send_messages(sock: socket.socket,
                  payloads: List[Union[bytes, bytearray, memoryview,
                                       List[Segment]]],
                  *, max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                  ) -> Tuple[int, int]:
    """Send many framed messages with as few ``sendmsg`` calls as possible.

    All payloads are framed up front, then their segments are flushed in
    chunks bounded by ``MAX_SENDMSG_SEGMENTS`` (below every platform's
    IOV_MAX) and *max_batch_bytes*; a segment larger than the byte budget
    still goes out whole (segments are never split except to resume a
    partial send).  Frame boundaries on the wire are identical to sending
    each payload on its own.  Returns
    ``(total_bytes, syscalls)``.
    """
    views: List[memoryview] = []
    for payload in payloads:
        views.extend(_as_byte_views(frame(payload)))
    total = sum(v.nbytes for v in views)
    syscalls = 0
    i, n = 0, len(views)
    while i < n:
        j, batch_bytes = i, 0
        while j < n and j - i < MAX_SENDMSG_SEGMENTS:
            nbytes = views[j].nbytes
            if j > i and batch_bytes + nbytes > max_batch_bytes:
                break
            batch_bytes += nbytes
            j += 1
        sent = sock.sendmsg(views[i:j])
        syscalls += 1
        while i < j and sent >= views[i].nbytes:
            sent -= views[i].nbytes
            i += 1
        if sent:
            views[i] = views[i][sent:]
    return total, syscalls


class FrameReader:
    """Batch-aware framed-message reader for one stream socket.

    A sender draining its outbox with :func:`send_messages` packs many
    frames into each TCP segment; reading them back one blocking
    ``recv`` per frame would undo the batching on the receive side.
    :meth:`recv_batch` instead decodes *every* complete frame each
    ``recv`` delivers.  Payloads are returned as freshly-allocated
    ``bytearray`` objects owned by the caller (``decode(copy=False)``
    safe).

    Frames larger than the staging buffer are read straight into their
    own destination buffer (one copy, no staging-buffer growth).
    Every ``recv`` lands in one persistent staging buffer via
    ``recv_into`` — the reader itself allocates nothing per call beyond
    the frames it hands back.

    :meth:`recv_ready` is the non-blocking flavour for the event-loop
    I/O core: called on read-readiness, it drains the socket until
    ``EAGAIN`` and returns every complete frame plus an EOF flag, with
    partial frames (including a partially-received oversized frame)
    carried across calls.
    """

    def __init__(self, sock: socket.socket, *,
                 recv_bytes: int = DEFAULT_RECV_BYTES):
        self._sock = sock
        self._recv_bytes = recv_bytes
        self._buf = bytearray()
        # Persistent staging buffer reused across every recv.
        self._staging = bytearray(recv_bytes)
        self._staging_view = memoryview(self._staging)
        # Incremental oversized-frame state: destination buffer, its
        # view, and how many payload bytes have landed so far.
        self._large_buf: Optional[bytearray] = None
        self._large_view: Optional[memoryview] = None
        self._large_have = 0

    def recv_batch(self) -> Optional[List[bytearray]]:
        """Block until at least one complete frame is available.

        Returns every complete frame received so far (at least one), or
        ``None`` on clean EOF.  Raises :class:`~repro.serial.wire.WireError`
        on a version mismatch or a connection that dies mid-frame.
        """
        while True:
            got, _ = self._recv_once()
            if got == 0:
                self._check_clean_eof()
                return None
            frames = self._harvest()
            if frames:
                return frames

    def recv_ready(self) -> Tuple[List[bytearray], bool]:
        """Drain a non-blocking socket without blocking.

        Returns ``(frames, eof)``: every complete frame the socket had
        ready, and whether it reached EOF.  Partial frames are carried
        over to the next call.  Raises
        :class:`~repro.serial.wire.WireError` on a version mismatch or
        EOF mid-frame.
        """
        frames: List[bytearray] = []
        while True:
            try:
                got, asked = self._recv_once()
            except (BlockingIOError, InterruptedError):
                return frames, False
            if got == 0:
                self._check_clean_eof()
                return frames, True
            frames.extend(self._harvest())
            if got < asked:
                # Short read == the kernel buffer is drained; skip the
                # EAGAIN probe recv.  If more bytes race in, the
                # level-triggered selector re-fires immediately.
                return frames, False

    # -- internals ------------------------------------------------------
    def _recv_once(self) -> "Tuple[int, int]":
        """One ``recv_into`` step; ``(received, asked)``, 0 == EOF."""
        if self._large_buf is not None:
            need = len(self._large_buf) - self._large_have
            got = self._sock.recv_into(self._large_view[self._large_have:],
                                       need)
            self._large_have += got
            return got, need
        got = self._sock.recv_into(self._staging_view, self._recv_bytes)
        if got:
            self._buf += self._staging_view[:got]
        return got, self._recv_bytes

    def _harvest(self) -> List[bytearray]:
        """Emit every frame completed so far; arm oversized mode."""
        frames: List[bytearray] = []
        large = self._large_buf
        if large is not None:
            if self._large_have < len(large):
                return frames
            self._large_buf = self._large_view = None
            self._large_have = 0
            frames.append(large)
        frames.extend(self._extract_frames())
        buf = self._buf
        if len(buf) >= FRAME_HEADER_BYTES:
            # _extract_frames validated the header; if the pending frame
            # dwarfs the staging buffer, stream the rest of its payload
            # directly into the destination bytearray.
            length = _FRAME_HEADER.unpack_from(buf, 0)[0]
            if length > self._recv_bytes:
                self._begin_large(length)
        return frames

    def _begin_large(self, length: int) -> None:
        buf = self._buf
        out = bytearray(length)
        view = memoryview(out)
        have = len(buf) - FRAME_HEADER_BYTES
        # All buffered bytes past the header belong to this frame —
        # _extract_frames already consumed every complete predecessor.
        view[:have] = memoryview(buf)[FRAME_HEADER_BYTES:]
        buf.clear()
        self._large_buf = out
        self._large_view = view
        self._large_have = have

    def _check_clean_eof(self) -> None:
        if self._large_buf is not None:
            raise WireError(
                f"connection closed mid-message: got {self._large_have} "
                f"of {len(self._large_buf)} bytes"
            )
        if self._buf:
            raise WireError(
                f"connection closed mid-message: {len(self._buf)} "
                f"trailing bytes"
            )

    def _extract_frames(self) -> List[bytearray]:
        buf = self._buf
        frames: List[bytearray] = []
        pos, n = 0, len(buf)
        while n - pos >= FRAME_HEADER_BYTES:
            length, version = _FRAME_HEADER.unpack_from(buf, pos)
            if version != FRAME_VERSION:
                raise WireError(
                    f"frame protocol version mismatch: got {version}, "
                    f"expected {FRAME_VERSION}"
                )
            end = pos + FRAME_HEADER_BYTES + length
            if end > n:
                break
            frames.append(bytearray(memoryview(buf)[pos + FRAME_HEADER_BYTES:end]))
            pos = end
        if pos:
            del buf[:pos]
        return frames

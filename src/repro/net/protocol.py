"""Kernel-to-kernel message protocol (paper §4).

Every message is one :mod:`~repro.net.framing` frame whose payload starts
with a one-byte message kind.  Data messages carry the DPS control
structures — target graph node, instance, activation id, group-frame
stack — followed by the token in the standard wire format, appended as
borrowed :func:`~repro.serial.wire.encode_segments` segments so the
payload is never copied on the sending side.

Control messages mirror the feedback machinery of the single-process
engines: merge→split acknowledgements (flow control and load balancing),
split→merge group totals, depth-0 results routed back to the activation's
origin kernel, scatter-call results/totals, failure propagation and the
shutdown barrier.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.graph import Flowgraph
from ..runtime.base import DataEnvelope, GroupFrame
from ..serial.registry import TokenRegistry, registry
from ..serial.token import Token
from ..serial.wire import Segment, WireError, decode, encode_segments

__all__ = [
    "MSG_DATA",
    "MSG_ACK",
    "MSG_GROUP_TOTAL",
    "MSG_RESULT",
    "MSG_SCATTER_TOTAL",
    "MSG_FAILURE",
    "MSG_SHUTDOWN",
    "MSG_TRACE_FLUSH",
    "MSG_TRACE",
    "MSG_SHM_ATTACH",
    "MSG_SHM",
    "MSG_KERNEL_DOWN",
    "MSG_REMAP",
    "MSG_REMAP_OK",
    "MSG_REPLAY",
    "MSG_REPLAY_DONE",
    "MSG_SVC_OPEN",
    "MSG_SVC_OPEN_OK",
    "MSG_SVC_CALL",
    "MSG_SVC_REPLY",
    "MSG_SVC_BUSY",
    "MSG_SVC_ERROR",
    "MSG_SVC_CLOSE",
    "MSG_MEMBER",
    "MSG_THREAD_STATE",
    "MSG_BEAT",
    "AckWire",
    "encode_data",
    "encode_ack",
    "encode_group_total",
    "encode_result",
    "encode_scatter_total",
    "encode_failure",
    "encode_shutdown",
    "encode_trace_flush",
    "encode_trace",
    "encode_shm_attach",
    "encode_shm_data",
    "encode_kernel_down",
    "encode_remap",
    "encode_remap_ok",
    "encode_replay",
    "encode_replay_done",
    "encode_svc_open",
    "encode_svc_open_ok",
    "encode_svc_call",
    "encode_svc_reply",
    "encode_svc_busy",
    "encode_svc_error",
    "encode_svc_close",
    "encode_member",
    "encode_thread_state",
    "encode_beat",
    "decode_message",
    "RemoteFailure",
]

MSG_DATA = 1
MSG_ACK = 2
MSG_GROUP_TOTAL = 3
MSG_RESULT = 4  # a depth-0 result or a scatter output
MSG_SCATTER_TOTAL = 6
MSG_FAILURE = 7
MSG_SHUTDOWN = 8
#: Console → kernel: ship your trace buffer and metrics snapshot back to
#: the named kernel (part of the observability merge barrier).
MSG_TRACE_FLUSH = 9
#: Kernel → console: one kernel's buffered trace events and metrics.
MSG_TRACE = 10
# 0, 5 and 11 are unassigned; decode_message rejects them.
#: Sender → receiver: a shared-memory arena (name, size) now carries this
#: connection's large payloads; sent once, before the first MSG_SHM.
MSG_SHM_ATTACH = 12
#: A message that lives whole in one block of the sender's shm arena;
#: the frame carries only its ``(block_offset, length)`` descriptor.
MSG_SHM = 13
#: Worker → console: a peer connection broke; ``(kernel_name, reason)``.
MSG_KERNEL_DOWN = 14
#: Console → survivors: apply new placements for the dead kernel's
#: collections; ``(epoch, {collection_name: placements}, dead_kernel)``.
MSG_REMAP = 15
#: Survivor → console: remap *epoch* applied; ``(kernel_name, epoch)``.
MSG_REMAP_OK = 16
#: Console → survivors: re-deliver your journaled un-acked tokens
#: (sent only after every survivor acknowledged the remap).
MSG_REPLAY = 17
#: Survivor → console: ``(kernel_name, epoch, replayed_count)``.
MSG_REPLAY_DONE = 18
#: Client → service console: open (or re-open, idempotently) a session;
#: ``(client_name, requested_window)`` — ``0`` requests the server default.
MSG_SVC_OPEN = 19
#: Service console → client: session granted;
#: ``(granted_window, session_id)``.
MSG_SVC_OPEN_OK = 20
#: Client → service console: invoke a named service graph;
#: ``(client_name, request_id, service_name, token)``.  Request ids are
#: client-scoped: replies correlate out of order by id.
MSG_SVC_CALL = 21
#: Service console → client: graph-call result; ``(request_id, token)``.
MSG_SVC_REPLY = 22
#: Service console → client: the request was shed by admission control;
#: ``(request_id, reason)``.  Retry later *under a new request id*.
MSG_SVC_BUSY = 23
#: Service console → client: the graph call failed remotely;
#: ``(request_id, exception)``.
MSG_SVC_ERROR = 24
#: Client → service console: close the session; ``client_name``.
MSG_SVC_CLOSE = 25
#: Console → all kernels: voluntary membership change (join/retire).
#: ``(epoch, old_map, new_map, joined, retired)`` — *both* full placement
#: maps travel, so every kernel (including a CLI joiner whose locally
#: rebuilt graphs may carry stale placements) can compute which thread
#: instances it loses and gains without trusting local state.
MSG_MEMBER = 26
#: Kernel → kernel: a migrating thread instance's live state;
#: ``(collection_name, index, epoch, thread)``.  ``thread`` is the
#: evicted :class:`~repro.core.threads.DpsThread` object (plain user
#: state, engine-reference-free by the DPS execution model) or ``None``
#: when the instance was never activated on the donor.
MSG_THREAD_STATE = 27
#: Kernel → console, every heartbeat interval: ``(kernel_name, load)``,
#: *load* being the tokens pending across the kernel's inboxes.
MSG_BEAT = 28

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_FRAME_FIELDS = struct.Struct("<QIIII")  # group_id, index, opener, opener_instance, routed_instance
_SHM_BLOCK = struct.Struct("<QI")  # arena block offset, message length
_DATA_IDS = struct.Struct("<IIQ")  # node_id, instance, ctx_id
_ACK_IDS = struct.Struct("<IIIQI")  # opener, opener_instance, routed_instance, group_id, index
_U64_PAIR = struct.Struct("<QQ")   # (group_id|ctx_id, total)
_U32_PAIR = struct.Struct("<II")   # (epoch, count)


class RemoteFailure(RuntimeError):
    """Stand-in for a remote exception that could not be unpickled."""


@dataclass(frozen=True)
class AckWire:
    """Decoded merge→split acknowledgement.

    ``(group_id, index)`` identify the acked token's own group frame so
    the split side can prune its replay journal; ``0, 0`` when the
    sending side predates the journal (group ids are never 0).
    """

    graph_name: str
    opener: int
    opener_instance: int
    routed_instance: int
    group_id: int = 0
    index: int = 0


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def _pack_str(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    out += _U16.pack(len(raw))
    out += raw


def encode_data(env: DataEnvelope, reg: TokenRegistry = registry) -> List[Segment]:
    """Serialize a :class:`DataEnvelope` header + token, zero-copy payload."""
    head = bytearray(_U8.pack(MSG_DATA))
    _pack_str(head, env.graph.name)
    head += _DATA_IDS.pack(env.node_id, env.instance, env.ctx_id)
    _pack_str(head, env.ctx_origin or "")
    head += _U16.pack(len(env.frames))
    for f in env.frames:
        head += _FRAME_FIELDS.pack(f.group_id, f.index, f.opener,
                                   f.opener_instance, f.routed_instance)
        _pack_str(head, f.origin_node)
    return [head, *encode_segments(env.token, reg)]


def encode_ack(graph_name: str, opener: int, opener_instance: int,
               routed_instance: int, group_id: int = 0,
               index: int = 0) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_ACK))
    _pack_str(head, graph_name)
    head += _U32.pack(opener)
    head += _U32.pack(opener_instance)
    head += _U32.pack(routed_instance)
    head += _U64.pack(group_id)
    head += _U32.pack(index)
    return [head]


def encode_shm_attach(arena_name: str, size: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SHM_ATTACH))
    _pack_str(head, arena_name)
    head += _U64.pack(size)
    return [head]


def encode_shm_data(block: int, length: int) -> List[Segment]:
    """A message parked whole in the sender's shm arena: its *length*
    bytes follow the state byte of the block at offset *block*."""
    head = bytearray(_U8.pack(MSG_SHM))
    head += _SHM_BLOCK.pack(block, length)
    return [head]


def encode_group_total(group_id: int, total: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_GROUP_TOTAL))
    head += _U64.pack(group_id)
    head += _U64.pack(total)
    return [head]


def encode_result(ctx_id: int, token: Token,
                  reg: TokenRegistry = registry) -> List[Segment]:
    """A depth-0 result or a scatter output."""
    head = bytearray(_U8.pack(MSG_RESULT))
    head += _U64.pack(ctx_id)
    return [head, *encode_segments(token, reg)]


def encode_scatter_total(ctx_id: int, total: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SCATTER_TOTAL))
    head += _U64.pack(ctx_id)
    head += _U64.pack(total)
    return [head]


def encode_failure(exc: BaseException) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_FAILURE))
    try:
        raw = pickle.dumps(exc)
        pickle.loads(raw)  # ensure the receiving side can rebuild it
    except Exception:
        raw = pickle.dumps(RemoteFailure(f"{type(exc).__name__}: {exc}"))
    head += raw
    return [head]


def encode_shutdown() -> List[Segment]:
    return [bytearray(_U8.pack(MSG_SHUTDOWN))]


def encode_trace_flush(reply_to: str) -> List[Segment]:
    """Ask a kernel to ship its trace buffer to kernel *reply_to*."""
    head = bytearray(_U8.pack(MSG_TRACE_FLUSH))
    _pack_str(head, reply_to)
    return [head]


def encode_trace(kernel_name: str, events: List[tuple],
                 metrics_snapshot: Dict[str, Any]) -> List[Segment]:
    """One kernel's trace buffer: ``(time, kind, fields)`` tuples plus a
    :meth:`~repro.trace.MetricsRegistry.snapshot` dict.  Event fields are
    plain scalars/strings, so pickle suffices (this is a once-per-run
    control message, not a data-path one)."""
    head = bytearray(_U8.pack(MSG_TRACE))
    head += pickle.dumps((kernel_name, events, metrics_snapshot))
    return [head]


def encode_kernel_down(kernel_name: str, reason: str) -> List[Segment]:
    """Worker → console: the connection to *kernel_name* broke."""
    head = bytearray(_U8.pack(MSG_KERNEL_DOWN))
    _pack_str(head, kernel_name)
    _pack_str(head, reason)
    return [head]


def encode_remap(epoch: int, mapping: Dict[str, List[str]],
                 dead: str) -> List[Segment]:
    """Console → survivors: new placements after *dead* failed.

    Placement lists are short strings — pickle suffices (once-per-failure
    control message, like MSG_TRACE)."""
    head = bytearray(_U8.pack(MSG_REMAP))
    head += pickle.dumps((epoch, mapping, dead))
    return [head]


def encode_remap_ok(kernel_name: str, epoch: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_REMAP_OK))
    _pack_str(head, kernel_name)
    head += _U32.pack(epoch)
    return [head]


def encode_replay(epoch: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_REPLAY))
    head += _U32.pack(epoch)
    return [head]


def encode_replay_done(kernel_name: str, epoch: int,
                       count: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_REPLAY_DONE))
    _pack_str(head, kernel_name)
    head += _U32.pack(epoch)
    head += _U32.pack(count)
    return [head]


def encode_member(epoch: int, old_map: Dict[str, List[str]],
                  new_map: Dict[str, List[str]], joined: List[str],
                  retired: List[str]) -> List[Segment]:
    """Console → kernels: a voluntary membership rebalance.

    Placement maps are short string lists — pickle suffices
    (once-per-rebalance control message, like MSG_REMAP)."""
    head = bytearray(_U8.pack(MSG_MEMBER))
    head += pickle.dumps((epoch, old_map, new_map,
                          list(joined), list(retired)))
    return [head]


def encode_thread_state(collection_name: str, index: int, epoch: int,
                        thread) -> List[Segment]:
    """Donor kernel → new owner: one migrating thread instance's state."""
    head = bytearray(_U8.pack(MSG_THREAD_STATE))
    head += pickle.dumps((collection_name, index, epoch, thread))
    return [head]


def encode_beat(kernel_name: str, load: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_BEAT))
    _pack_str(head, kernel_name)
    head += _U32.pack(load)
    return [head]


def encode_svc_open(client_name: str, window: int = 0) -> List[Segment]:
    """Open a service session; ``window=0`` asks for the server default."""
    head = bytearray(_U8.pack(MSG_SVC_OPEN))
    _pack_str(head, client_name)
    head += _U32.pack(window)
    return [head]


def encode_svc_open_ok(granted: int, session_id: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SVC_OPEN_OK))
    head += _U32.pack(granted)
    head += _U64.pack(session_id)
    return [head]


def encode_svc_call(client_name: str, request_id: int, service: str,
                    token: Token,
                    reg: TokenRegistry = registry) -> List[Segment]:
    """One graph call: correlation header + token, zero-copy payload."""
    head = bytearray(_U8.pack(MSG_SVC_CALL))
    _pack_str(head, client_name)
    head += _U64.pack(request_id)
    _pack_str(head, service)
    return [head, *encode_segments(token, reg)]


def encode_svc_reply(request_id: int, token: Token,
                     reg: TokenRegistry = registry) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SVC_REPLY))
    head += _U64.pack(request_id)
    return [head, *encode_segments(token, reg)]


def encode_svc_busy(request_id: int, reason: str) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SVC_BUSY))
    head += _U64.pack(request_id)
    _pack_str(head, reason)
    return [head]


def encode_svc_error(request_id: int, exc: BaseException) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SVC_ERROR))
    head += _U64.pack(request_id)
    try:
        raw = pickle.dumps(exc)
        pickle.loads(raw)  # ensure the receiving side can rebuild it
    except Exception:
        raw = pickle.dumps(RemoteFailure(f"{type(exc).__name__}: {exc}"))
    head += raw
    return [head]


def encode_svc_close(client_name: str) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_SVC_CLOSE))
    _pack_str(head, client_name)
    return [head]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _unpack_str(view: memoryview, offset: int) -> Tuple[str, int]:
    (n,) = _U16.unpack_from(view, offset)
    offset += 2
    return view[offset:offset + n].tobytes().decode(), offset + n


def decode_message(payload: "bytes | bytearray | memoryview",
                   graphs: Dict[str, Flowgraph],
                   reg: TokenRegistry = registry) -> Tuple[int, Any]:
    """Decode one message payload into ``(kind, value)``.

    ``value`` depends on the kind: a :class:`DataEnvelope` (token borrowed
    from *payload* — the caller must own the buffer), an :class:`AckWire`,
    ``(group_id, total)``, ``(ctx_id, token)``, ``(ctx_id, total)``, an
    exception instance, ``(kernel_name, load)`` (beat), or ``None``
    (shutdown).
    """
    view = memoryview(payload)
    if view.nbytes < 1:
        raise WireError("empty protocol message")
    kind = view[0]
    offset = 1
    if kind == MSG_DATA:
        graph_name, offset = _unpack_str(view, offset)
        graph = graphs.get(graph_name)
        if graph is None:
            raise WireError(f"data message for unknown graph {graph_name!r}")
        node_id, instance, ctx_id = _DATA_IDS.unpack_from(view, offset)
        offset += _DATA_IDS.size
        ctx_origin, offset = _unpack_str(view, offset)
        (n_frames,) = _U16.unpack_from(view, offset)
        offset += 2
        frames = []
        for _ in range(n_frames):
            group_id, index, opener, opener_instance, routed_instance = \
                _FRAME_FIELDS.unpack_from(view, offset)
            offset += _FRAME_FIELDS.size
            origin_node, offset = _unpack_str(view, offset)
            frames.append(GroupFrame(group_id, index, opener,
                                     opener_instance, origin_node,
                                     routed_instance))
        token = decode(view[offset:], reg, copy=False)
        return MSG_DATA, DataEnvelope(token, graph, node_id, instance,
                                      ctx_id, tuple(frames), None,
                                      ctx_origin or None)
    if kind == MSG_ACK:
        graph_name, offset = _unpack_str(view, offset)
        opener, opener_instance, routed_instance, group_id, index = \
            _ACK_IDS.unpack_from(view, offset)
        return MSG_ACK, AckWire(graph_name, opener, opener_instance,
                                routed_instance, group_id, index)
    if kind == MSG_SHM_ATTACH:
        arena_name, offset = _unpack_str(view, offset)
        (size,) = _U64.unpack_from(view, offset)
        return MSG_SHM_ATTACH, (arena_name, size)
    if kind == MSG_SHM:
        return MSG_SHM, _SHM_BLOCK.unpack_from(view, offset)
    if kind == MSG_GROUP_TOTAL:
        group_id, total = _U64_PAIR.unpack_from(view, offset)
        return MSG_GROUP_TOTAL, (group_id, total)
    if kind == MSG_RESULT:
        (ctx_id,) = _U64.unpack_from(view, offset)
        token = decode(view[offset + 8:], reg, copy=False)
        return MSG_RESULT, (ctx_id, token)
    if kind == MSG_SCATTER_TOTAL:
        ctx_id, total = _U64_PAIR.unpack_from(view, offset)
        return MSG_SCATTER_TOTAL, (ctx_id, total)
    if kind == MSG_FAILURE:
        try:
            exc = pickle.loads(bytes(view[offset:]))
        except Exception as err:
            exc = RemoteFailure(f"undecodable remote failure: {err}")
        if not isinstance(exc, BaseException):
            exc = RemoteFailure(f"remote failure payload {exc!r}")
        return MSG_FAILURE, exc
    if kind == MSG_SHUTDOWN:
        return MSG_SHUTDOWN, None
    if kind == MSG_TRACE_FLUSH:
        reply_to, _ = _unpack_str(view, offset)
        return MSG_TRACE_FLUSH, reply_to
    if kind == MSG_TRACE:
        try:
            kernel_name, events, metrics_snapshot = pickle.loads(
                bytes(view[offset:]))
        except Exception as err:
            raise WireError(f"undecodable trace message: {err}") from None
        return MSG_TRACE, (kernel_name, events, metrics_snapshot)
    if kind == MSG_KERNEL_DOWN:
        name, offset = _unpack_str(view, offset)
        reason, _ = _unpack_str(view, offset)
        return MSG_KERNEL_DOWN, (name, reason)
    if kind == MSG_REMAP:
        try:
            epoch, mapping, dead = pickle.loads(bytes(view[offset:]))
        except Exception as err:
            raise WireError(f"undecodable remap message: {err}") from None
        return MSG_REMAP, (epoch, mapping, dead)
    if kind == MSG_REMAP_OK:
        name, offset = _unpack_str(view, offset)
        (epoch,) = _U32.unpack_from(view, offset)
        return MSG_REMAP_OK, (name, epoch)
    if kind == MSG_REPLAY:
        (epoch,) = _U32.unpack_from(view, offset)
        return MSG_REPLAY, epoch
    if kind == MSG_REPLAY_DONE:
        name, offset = _unpack_str(view, offset)
        epoch, count = _U32_PAIR.unpack_from(view, offset)
        return MSG_REPLAY_DONE, (name, epoch, count)
    if kind == MSG_SVC_OPEN:
        name, offset = _unpack_str(view, offset)
        (window,) = _U32.unpack_from(view, offset)
        return MSG_SVC_OPEN, (name, window)
    if kind == MSG_SVC_OPEN_OK:
        (granted,) = _U32.unpack_from(view, offset)
        (session_id,) = _U64.unpack_from(view, offset + 4)
        return MSG_SVC_OPEN_OK, (granted, session_id)
    if kind == MSG_SVC_CALL:
        name, offset = _unpack_str(view, offset)
        (request_id,) = _U64.unpack_from(view, offset)
        offset += 8
        service, offset = _unpack_str(view, offset)
        token = decode(view[offset:], reg, copy=False)
        return MSG_SVC_CALL, (name, request_id, service, token)
    if kind == MSG_SVC_REPLY:
        (request_id,) = _U64.unpack_from(view, offset)
        token = decode(view[offset + 8:], reg, copy=False)
        return MSG_SVC_REPLY, (request_id, token)
    if kind == MSG_SVC_BUSY:
        (request_id,) = _U64.unpack_from(view, offset)
        reason, _ = _unpack_str(view, offset + 8)
        return MSG_SVC_BUSY, (request_id, reason)
    if kind == MSG_SVC_ERROR:
        (request_id,) = _U64.unpack_from(view, offset)
        try:
            exc = pickle.loads(bytes(view[offset + 8:]))
        except Exception as err:
            exc = RemoteFailure(f"undecodable remote failure: {err}")
        if not isinstance(exc, BaseException):
            exc = RemoteFailure(f"remote failure payload {exc!r}")
        return MSG_SVC_ERROR, (request_id, exc)
    if kind == MSG_SVC_CLOSE:
        name, _ = _unpack_str(view, offset)
        return MSG_SVC_CLOSE, name
    if kind == MSG_MEMBER:
        try:
            epoch, old_map, new_map, joined, retired = pickle.loads(
                bytes(view[offset:]))
        except Exception as err:
            raise WireError(f"undecodable member message: {err}") from None
        return MSG_MEMBER, (epoch, old_map, new_map, joined, retired)
    if kind == MSG_THREAD_STATE:
        try:
            collection_name, index, epoch, thread = pickle.loads(
                bytes(view[offset:]))
        except Exception as err:
            raise WireError(
                f"undecodable thread-state message: {err}") from None
        return MSG_THREAD_STATE, (collection_name, index, epoch, thread)
    if kind == MSG_BEAT:
        name, offset = _unpack_str(view, offset)
        (load,) = _U32.unpack_from(view, offset)
        return MSG_BEAT, (name, load)
    raise WireError(f"unknown protocol message kind {kind}")

"""Kernel-to-kernel message protocol (paper §4).

Every message is one :mod:`~repro.net.framing` frame whose payload starts
with a one-byte message kind.  Two layouts follow it:

- **Packed**, for the seven kinds sent once per token or per call
  (``DATA``, ``ACK``, ``GROUP_TOTAL``, ``RESULT``, ``SHM``, ``SVC_CALL``,
  ``SVC_REPLY``): a hand-packed ``struct`` header, then — where the kind
  carries one — the token in the standard wire format, appended as
  borrowed :func:`~repro.serial.wire.encode_segments` segments so the
  payload is never copied on the sending side.
- **Control**, for every other kind: one registered
  :class:`ControlFields` token in the standard codec, holding the fields
  :data:`CONTROL_FIELDS` names for the kind.  :func:`encode_control`
  writes them all and one branch of :func:`decode_message` reads them.

Every kind decodes to a ``(kind, value)`` pair, *value* being a
:class:`DataEnvelope` for ``MSG_DATA`` and a tuple otherwise.  The
codec is the only format: an exception crosses as its class's module and
qualname, ``args`` and text, and a migrating thread as its ``__dict__``.
"""

from __future__ import annotations

import struct
import sys
from types import ModuleType
from typing import Any, Dict, List, Tuple

from ..core.graph import Flowgraph
from ..runtime.base import DataEnvelope, GroupFrame
from ..serial.registry import TokenRegistry, registry
from ..serial.token import Token
from ..serial.wire import Segment, WireError, decode, encode_segments, measure

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
    "CONTROL_FIELDS",
    "ControlFields",
    "encode_data",
    "encode_ack",
    "encode_group_total",
    "encode_result",
    "encode_shm_data",
    "encode_svc_call",
    "encode_svc_reply",
    "encode_control",
    "decode_message",
    "RemoteFailure",
]

# packed kinds
MSG_DATA = 1
MSG_ACK = 2
MSG_GROUP_TOTAL = 3
MSG_RESULT = 4  # a depth-0 result or a scatter output
#: A message that lives whole in one block of the sender's shm arena;
#: the frame carries only its ``(block_offset, length)`` descriptor.
MSG_SHM = 13
#: Client → service console: invoke a named service graph.  Request ids
#: are client-scoped: replies correlate out of order by id.
MSG_SVC_CALL = 21
MSG_SVC_REPLY = 22

# control kinds; 0, 5 and 11 are unassigned and decode_message rejects them
MSG_SCATTER_TOTAL = 6
MSG_FAILURE = 7
MSG_SHUTDOWN = 8
#: Console → kernel: ship your trace buffer and metrics snapshot back to
#: the named kernel (part of the observability merge barrier).
MSG_TRACE_FLUSH = 9
MSG_TRACE = 10
#: Sender → receiver: a shared-memory arena now carries this
#: connection's large payloads; sent once, before the first MSG_SHM.
MSG_SHM_ATTACH = 12
#: Worker → console: a peer connection broke.
MSG_KERNEL_DOWN = 14
#: Console → survivors: apply new placements for the dead kernel's
#: collections.
MSG_REMAP = 15
#: Survivor → console: remap (or member change) *epoch* applied.
MSG_REMAP_OK = 16
#: Console → survivors: re-deliver your journaled un-acked tokens (sent
#: only after every survivor acknowledged the remap).
MSG_REPLAY = 17
MSG_REPLAY_DONE = 18
#: Client → service console: open (or re-open, idempotently) a session;
#: a requested window of ``0`` asks for the server default.
MSG_SVC_OPEN = 19
MSG_SVC_OPEN_OK = 20
#: Service console → client: the request was shed by admission control.
#: Retry later *under a new request id*.
MSG_SVC_BUSY = 23
MSG_SVC_ERROR = 24
MSG_SVC_CLOSE = 25
#: Console → all kernels: voluntary membership change (join/retire).
#: *Both* full placement maps travel, so every kernel (including a CLI
#: joiner whose locally rebuilt graphs may carry stale placements) can
#: compute which thread instances it loses and gains without trusting
#: local state.
MSG_MEMBER = 26
#: Kernel → kernel: a migrating thread instance's live state, the
#: ``__dict__`` of the evicted :class:`~repro.core.threads.DpsThread`
#: (plain user state, free of engine references by the DPS execution
#: model) or ``None`` when the instance was never activated on the donor.
MSG_THREAD_STATE = 27
#: Kernel → console, every heartbeat interval; *load* is the tokens
#: pending across the kernel's inboxes.
MSG_BEAT = 28

#: The fields of each control kind, in wire order.  A control message is
#: the kind byte and one :class:`ControlFields` token holding exactly
#: this many values.
CONTROL_FIELDS: Dict[int, Tuple[str, ...]] = {
    MSG_SCATTER_TOTAL: ("ctx_id", "total"),
    MSG_FAILURE: ("exception",),
    MSG_SHUTDOWN: (),
    MSG_TRACE_FLUSH: ("reply_to",),
    MSG_TRACE: ("kernel_name", "events", "metrics_snapshot"),
    MSG_SHM_ATTACH: ("arena_name", "size"),
    MSG_KERNEL_DOWN: ("kernel_name", "reason"),
    MSG_REMAP: ("epoch", "mapping", "dead_kernel"),
    MSG_REMAP_OK: ("kernel_name", "epoch"),
    MSG_REPLAY: ("epoch",),
    MSG_REPLAY_DONE: ("kernel_name", "epoch", "replayed_count"),
    MSG_SVC_OPEN: ("client_name", "requested_window"),
    MSG_SVC_OPEN_OK: ("granted_window", "session_id"),
    MSG_SVC_BUSY: ("request_id", "reason"),
    MSG_SVC_ERROR: ("request_id", "exception"),
    MSG_SVC_CLOSE: ("client_name",),
    MSG_MEMBER: ("epoch", "old_map", "new_map", "joined", "retired"),
    MSG_THREAD_STATE: ("collection_name", "index", "epoch", "thread"),
    MSG_BEAT: ("kernel_name", "load"),
}

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")

_FRAME_FIELDS = struct.Struct("<QIIII")  # group_id, index, opener, opener_instance, routed_instance
_SHM_BLOCK = struct.Struct("<QI")  # arena block offset, message length
_DATA_IDS = struct.Struct("<IIQ")  # node_id, instance, ctx_id
_ACK_IDS = struct.Struct("<IIIQI")  # opener, opener_instance, routed_instance, group_id, index
_U64_PAIR = struct.Struct("<QQ")   # (group_id, total)


class RemoteFailure(RuntimeError):
    """Stand-in for a remote exception that could not be rebuilt here."""


class ControlFields(Token):
    """The body of every control message: its fields as one tuple."""

    _dps_name_ = "dps.ControlFields"

    def __init__(self, values: tuple) -> None:
        self.values = values


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
    """A merge→split acknowledgement.  ``(group_id, index)`` identify the
    acked token's own group frame so the split side can prune its replay
    journal; ``0, 0`` when there is no journal (group ids are never 0)."""
    head = bytearray(_U8.pack(MSG_ACK))
    _pack_str(head, graph_name)
    head += _ACK_IDS.pack(opener, opener_instance, routed_instance,
                          group_id, index)
    return [head]


def encode_shm_data(block: int, length: int) -> List[Segment]:
    """A message parked whole in the sender's shm arena: its *length*
    bytes follow the state byte of the block at offset *block*."""
    head = bytearray(_U8.pack(MSG_SHM))
    head += _SHM_BLOCK.pack(block, length)
    return [head]


def encode_group_total(group_id: int, total: int) -> List[Segment]:
    head = bytearray(_U8.pack(MSG_GROUP_TOTAL))
    head += _U64_PAIR.pack(group_id, total)
    return [head]


def encode_result(ctx_id: int, token: Token,
                  reg: TokenRegistry = registry) -> List[Segment]:
    """A depth-0 result or a scatter output."""
    head = bytearray(_U8.pack(MSG_RESULT))
    head += _U64.pack(ctx_id)
    return [head, *encode_segments(token, reg)]


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


def _exception_fields(exc: BaseException) -> tuple:
    """*exc* as ``(module, qualname, args, text)``, ``args`` ``None``
    if the codec refuses them."""
    cls, args = type(exc), exc.args
    try:
        measure(ControlFields(args))
    except (WireError, RecursionError):
        args = None
    return cls.__module__, cls.__qualname__, args, f"{cls.__name__}: {exc}"


def _rebuilt_exception(fields: Any) -> BaseException:
    """``cls(*args)`` for an Exception class reached from ``sys.modules``
    by namespaces alone (no import, no ``__getattr__``); else RemoteFailure."""
    module, qualname, args, text = (
        fields if type(fields) is tuple and len(fields) == 4 else (None,) * 4)
    if not (type(module) is type(qualname) is type(text) is str
            and (args is None or type(args) is tuple)):
        raise WireError(f"exception field {fields!r} is not "
                        f"(module, qualname, args, text)")
    cls: Any = sys.modules.get(module)
    for name in qualname.split("."):
        cls = (cls.__dict__.get(name)
               if issubclass(type(cls), (ModuleType, type)) else None)
    try:
        if issubclass(type(cls), type) and issubclass(cls, Exception):
            return cls(*args)  # args None: a TypeError, caught below
    except Exception:
        pass
    return RemoteFailure(text)


#: control kinds with an exception field: kind -> its position
_EXCEPTION_AT = {MSG_FAILURE: 0, MSG_SVC_ERROR: 1}


def encode_control(kind: int, *fields: Any) -> List[Segment]:
    """A control message: the kind byte, then one :class:`ControlFields`
    token holding *fields* in :data:`CONTROL_FIELDS` order."""
    names = CONTROL_FIELDS.get(kind)
    if names is None or len(fields) != len(names):
        raise WireError(f"control kind {kind} takes fields {names}, "
                        f"got {len(fields)} values")
    i = _EXCEPTION_AT.get(kind)
    if i is not None:
        fields = (*fields[:i], _exception_fields(fields[i]), *fields[i + 1:])
    return [bytearray(_U8.pack(kind)), *encode_segments(ControlFields(fields))]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def _unpack_str(view: memoryview, offset: int) -> Tuple[str, int]:
    (n,) = _U16.unpack_from(view, offset)
    offset += 2
    if offset + n > view.nbytes:
        raise WireError(f"string of {n} bytes runs past the message")
    return view[offset:offset + n].tobytes().decode(), offset + n


def decode_message(payload: "bytes | bytearray | memoryview",
                   graphs: Dict[str, Flowgraph],
                   reg: TokenRegistry = registry) -> Tuple[int, Any]:
    """Decode one message payload into ``(kind, value)``.

    ``value`` is a :class:`DataEnvelope` for ``MSG_DATA`` (token borrowed
    from *payload* — the caller must own the buffer) and a tuple of the
    kind's fields otherwise.  A malformed or truncated payload raises
    :class:`WireError`.
    """
    view = memoryview(payload)
    if view.nbytes < 1:
        raise WireError("empty protocol message")
    kind = view[0]
    try:
        if kind == MSG_DATA:
            graph_name, offset = _unpack_str(view, 1)
            graph = graphs.get(graph_name)
            if graph is None:
                raise WireError(
                    f"data message for unknown graph {graph_name!r}")
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
            graph_name, offset = _unpack_str(view, 1)
            return MSG_ACK, (graph_name, *_ACK_IDS.unpack_from(view, offset))
        if kind == MSG_SHM:
            return MSG_SHM, _SHM_BLOCK.unpack_from(view, 1)
        if kind == MSG_GROUP_TOTAL:
            return MSG_GROUP_TOTAL, _U64_PAIR.unpack_from(view, 1)
        if kind == MSG_RESULT:
            (ctx_id,) = _U64.unpack_from(view, 1)
            return MSG_RESULT, (ctx_id, decode(view[9:], reg, copy=False))
        if kind == MSG_SVC_CALL:
            name, offset = _unpack_str(view, 1)
            (request_id,) = _U64.unpack_from(view, offset)
            service, offset = _unpack_str(view, offset + 8)
            token = decode(view[offset:], reg, copy=False)
            return MSG_SVC_CALL, (name, request_id, service, token)
        if kind == MSG_SVC_REPLY:
            (request_id,) = _U64.unpack_from(view, 1)
            return MSG_SVC_REPLY, (request_id,
                                   decode(view[9:], reg, copy=False))
        names = CONTROL_FIELDS.get(kind)
        if names is None:
            raise WireError(f"unknown protocol message kind {kind}")
        body = decode(view[1:])
        values = (body.__dict__.get("values")
                  if type(body) is ControlFields else None)
        if type(values) is not tuple or len(values) != len(names):
            raise WireError(f"control kind {kind} wants a ControlFields "
                            f"body of {len(names)} fields, got {body!r}")
        i = _EXCEPTION_AT.get(kind)
        if i is not None:
            values = (*values[:i], _rebuilt_exception(values[i]),
                      *values[i + 1:])
        elif kind == MSG_THREAD_STATE and not (
                values[3] is None or type(values[3]) is dict):
            raise WireError(f"thread state must be a dict or None, "
                            f"got {type(values[3]).__name__}")
        return kind, values
    except WireError:
        raise
    except (struct.error, IndexError, KeyError, TypeError, ValueError) as err:
        # a truncated or garbled message: one error type for every kind
        raise WireError(
            f"malformed protocol message of kind {kind}: {err}") from None

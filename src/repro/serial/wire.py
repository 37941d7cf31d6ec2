"""Binary wire format for tokens.

Tokens crossing node boundaries are serialized to a compact self-describing
binary format and rebuilt on the receiving side through the class registry,
exactly as the C++ library does with its pointer-arithmetic serializer and
abstract class factories.  Numpy-backed :class:`~repro.serial.containers.Buffer`
payloads are emitted as single raw-byte copies (the buffer-protocol fast
path), everything else field-by-field.

Layout::

    message  := MAGIC 'DPS2' | u16 name_len | name utf-8 | value(fields dict)
    value    := u8 tag | payload            (tags in ``Tag``)
    ndarray  := u8 dtype_len | dtype | u8 ndim | u32 dims... | raw bytes

The format is intentionally versioned via the magic string.

Zero-copy wire path
-------------------

The codec separates the *cost model* of a message from the message itself
(the HPVM separation: pricing a transfer must not perform it):

- :func:`measure` computes the exact encoded size arithmetically — no
  bytearray is built and no ndarray bytes are touched, so sizing a token
  carrying a multi-MB block is O(fields), not O(bytes).
- :func:`encode_segments` produces a scatter-gather list of buffer
  segments in which large contiguous ndarray payloads appear as borrowed
  ``memoryview``\\ s of the arrays' own storage (zero copies).
- :func:`encode` joins those segments (exactly one copy of the payload),
  and :func:`encode_into` writes them into a caller-preallocated buffer
  sized by :func:`measure` (one copy, no intermediate allocations).
- :func:`decode` with ``copy=False`` borrows ndarray/Buffer payloads
  straight out of the source buffer instead of copying them; the caller
  must own the buffer and keep it immutable for the tokens' lifetime
  (arrays decoded from a writable buffer alias it and stay writable).
"""

from __future__ import annotations

import struct
from enum import IntEnum
from math import prod
from typing import Any, List, Union

import numpy as np

from .containers import Buffer, Vector
from .registry import TokenRegistry, registry
from .token import Token

__all__ = [
    "encode",
    "encode_into",
    "encode_segments",
    "decode",
    "encoded_size",
    "frame",
    "gather",
    "measure",
    "unframe",
    "WireError",
    "codec_in_use",
    "MAGIC",
    "FRAME_VERSION",
    "FRAME_HEADER_BYTES",
]

MAGIC = b"DPS2"

#: Protocol version carried by every :func:`frame` header.  Bump on any
#: incompatible change to the framing layout or the message body format.
FRAME_VERSION = 3

#: Wire size of the frame header: u32 payload length + u8 version.
FRAME_HEADER_BYTES = 5

_FRAME_HEADER = struct.Struct("<IB")

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
# tag byte + scalar in one pack
_TAGGED_I64 = struct.Struct("<Bq")
_TAGGED_F64 = struct.Struct("<Bd")

#: ndarray payloads at least this large are emitted as borrowed
#: memoryview segments instead of being copied into the header stream.
_SEGMENT_THRESHOLD = 1024


class WireError(ValueError):
    """Raised on malformed wire messages or unserializable payloads."""


class Tag(IntEnum):
    NONE = 0
    FALSE = 1
    TRUE = 2
    INT64 = 3
    FLOAT64 = 4
    STR = 5
    BYTES = 6
    BIGINT = 7
    NDARRAY = 8
    BUFFER = 9
    VECTOR = 10
    LIST = 11
    TUPLE = 12
    DICT = 13
    TOKEN = 14


_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

# Single-byte tag constants (hoisted so the hot visitors skip both the
# enum attribute lookup and the struct.pack call per value).
_TAG_INT64 = bytes((Tag.INT64,))
_TAG_FLOAT64 = bytes((Tag.FLOAT64,))
_TAG_STR = bytes((Tag.STR,))
_TAG_BYTES = bytes((Tag.BYTES,))
_TAG_BIGINT = bytes((Tag.BIGINT,))
_TAG_NDARRAY = bytes((Tag.NDARRAY,))
_TAG_BUFFER = bytes((Tag.BUFFER,))
_TAG_VECTOR = bytes((Tag.VECTOR,))
_TAG_LIST = bytes((Tag.LIST,))
_TAG_TUPLE = bytes((Tag.TUPLE,))
_TAG_DICT = bytes((Tag.DICT,))
_TAG_TOKEN = bytes((Tag.TOKEN,))

# Plain-int tag values for the decode dispatch (int == int, no enum).
_T_NONE = int(Tag.NONE)
_T_FALSE = int(Tag.FALSE)
_T_TRUE = int(Tag.TRUE)
_T_INT64 = int(Tag.INT64)
_T_FLOAT64 = int(Tag.FLOAT64)
_T_STR = int(Tag.STR)
_T_BYTES = int(Tag.BYTES)
_T_BIGINT = int(Tag.BIGINT)
_T_NDARRAY = int(Tag.NDARRAY)
_T_BUFFER = int(Tag.BUFFER)
_T_VECTOR = int(Tag.VECTOR)
_T_LIST = int(Tag.LIST)
_T_TUPLE = int(Tag.TUPLE)
_T_DICT = int(Tag.DICT)
_T_TOKEN = int(Tag.TOKEN)

Segment = Union[bytearray, memoryview]


# ---------------------------------------------------------------------------
# per-type caches
# ---------------------------------------------------------------------------
#
# The visitor's per-type work — a field name's UTF-8 head, an array's
# dtype string, a message's name head — is a pure function of the type,
# so it is done once and looked up after.  A miss runs the same code that
# fills the entry, which is why the bytes cannot differ from an uncached
# encode.  What depends on the *value* is done for every value: an
# array's dims are packed and parsed per message (payload lengths vary),
# ``hasobject`` is checked before any lookup (an object-bearing
# structured dtype can share ``.str`` with a plain one) and only an exact
# ``str`` key is looked up, so a look-alike key cannot hit a cached name.

#: Entries per cache; a full cache is emptied before its next insert.
#: Threads that miss at once may each insert, overshooting the cap by one
#: entry per thread; no lock is needed, since every entry is a pure
#: function of its key.
_CACHE_CAP = 4096

#: field name -> ``u16 length | UTF-8``, as written before its value
_KEY_HEADS: dict[str, bytes] = {}
#: dtype -> ``u8 dtype_len | dtype``, the start of an ndarray header
_DTYPE_HEADS: dict[np.dtype, bytes] = {}
#: dtype string on the wire -> np.dtype, so decode never re-parses a
#: dtype spec it has seen before (dtype objects are immutable)
_DTYPE_CACHE: dict[bytes, np.dtype] = {}
#: registered name -> ``MAGIC | u16 name_len | name``
_MESSAGE_HEADS: dict[bytes, bytes] = {}


def _cached(cache: dict, key: Any, value: Any) -> Any:
    if len(cache) >= _CACHE_CAP:
        cache.clear()
    cache[key] = value
    return value


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def encode(token: Token, reg: TokenRegistry = registry) -> bytes:
    """Serialize *token* (a registered :class:`Token`) to bytes."""
    segments = encode_segments(token, reg)
    if len(segments) == 1:
        return bytes(segments[0])
    return b"".join(segments)


def encode_segments(token: Token, reg: TokenRegistry = registry) -> List[Segment]:
    """Scatter-gather serialization: a list of buffer segments.

    Concatenating the segments yields exactly :func:`encode`'s output.
    Large contiguous ndarray payloads appear as ``memoryview`` segments
    *borrowing* the arrays' storage — mutating those arrays before the
    segments are consumed changes the message.
    """
    global _compiled_hits, _fallbacks
    if not isinstance(token, Token):
        raise WireError(f"can only encode Token instances, got {type(token).__name__}")
    name = reg.name_bytes_of(type(token))
    if _compiled_encode is not None:
        try:
            # the whole message as one writable ``bytearray`` segment
            out = _compiled_encode(name, token.fields())
        except _Unsupported:
            _fallbacks += 1
        else:
            _compiled_hits += 1
            return [out]
    head = _MESSAGE_HEADS.get(name)
    if head is None:
        head = _cached(_MESSAGE_HEADS, name,
                       MAGIC + _U16.pack(len(name)) + name)
    parts: List[Segment] = []
    tail = _encode_value(parts, bytearray(head), token.fields())
    if tail:
        parts.append(tail)
    return parts


def gather(segments: List[Segment]) -> bytearray:
    """Concatenate :func:`encode_segments` output into one writable buffer.

    One tree walk + one payload copy: the single-buffer flavour of the
    scatter-gather path, for callers that need an owned, writable wire
    message (e.g. to decode with ``copy=False``).

    A single ``bytearray`` segment (the whole-message tail produced for
    payloads below the scatter threshold) is returned as-is, zero-copy —
    the caller takes ownership of it.
    """
    if len(segments) == 1:
        seg = segments[0]
        return seg if type(seg) is bytearray else bytearray(seg)
    total = 0
    for seg in segments:
        total += seg.nbytes if type(seg) is memoryview else len(seg)
    out = bytearray(total)
    offset = 0
    for seg in segments:
        n = seg.nbytes if type(seg) is memoryview else len(seg)
        out[offset : offset + n] = seg
        offset += n
    return out


def frame(payload: "bytes | bytearray | memoryview | List[Segment]") -> List[Segment]:
    """Prefix *payload* with the wire frame header (length + version).

    *payload* may be a single buffer or an :func:`encode_segments`-style
    segment list; segments are **not** coalesced, so the result can be
    handed straight to a vectored socket write (``sendmsg``) without
    copying the payload.  The header is ``u32 payload_length | u8
    version`` (:data:`FRAME_VERSION`).
    """
    segments = payload if isinstance(payload, list) else [payload]
    total = 0
    for seg in segments:
        total += seg.nbytes if type(seg) is memoryview else len(seg)
    if total > 0xFFFFFFFF:
        raise WireError(f"frame payload of {total} bytes exceeds u32 length")
    head = bytearray(_FRAME_HEADER.pack(total, FRAME_VERSION))
    return [head, *segments]


def unframe(data: bytes | bytearray | memoryview) -> memoryview:
    """Strip and validate a :func:`frame` header; returns the payload view.

    Raises :class:`WireError` on a truncated header, a protocol-version
    mismatch, or a payload whose length disagrees with the header.  The
    returned ``memoryview`` borrows *data* — no copy.
    """
    view = memoryview(data)
    if view.nbytes < FRAME_HEADER_BYTES:
        raise WireError(
            f"truncated frame header: {view.nbytes} < {FRAME_HEADER_BYTES} bytes"
        )
    length, version = _FRAME_HEADER.unpack_from(view, 0)
    if version != FRAME_VERSION:
        raise WireError(
            f"frame protocol version mismatch: got {version}, "
            f"expected {FRAME_VERSION}"
        )
    if view.nbytes - FRAME_HEADER_BYTES != length:
        raise WireError(
            f"frame length mismatch: header says {length}, "
            f"payload has {view.nbytes - FRAME_HEADER_BYTES} bytes"
        )
    return view[FRAME_HEADER_BYTES:]


def encode_into(token: Token, buf, reg: TokenRegistry = registry) -> int:
    """Encode *token* into preallocated writable *buf*; returns bytes written.

    Size *buf* with :func:`measure`.  Raises :class:`WireError` when the
    buffer is too small.
    """
    out = buf if isinstance(buf, memoryview) else memoryview(buf)
    offset = 0
    try:
        for seg in encode_segments(token, reg):
            n = seg.nbytes if isinstance(seg, memoryview) else len(seg)
            out[offset : offset + n] = seg
            offset += n
    except ValueError as exc:
        raise WireError(f"encode_into buffer too small: {exc}") from None
    return offset


def measure(token: Token, reg: TokenRegistry = registry) -> int:
    """Exact wire size of *token* in bytes, computed arithmetically.

    Never serializes the payload: ndarray/Buffer fields contribute
    ``size * itemsize`` without their bytes being touched, so measuring
    a token is O(number of fields) regardless of payload volume.
    Validates serializability exactly like :func:`encode`.
    """
    if not isinstance(token, Token):
        raise WireError(f"can only encode Token instances, got {type(token).__name__}")
    name = reg.name_bytes_of(type(token))
    return 6 + len(name) + _measure_value(token.fields())


def encoded_size(token: Token, reg: TokenRegistry = registry) -> int:
    """Authoritative wire size of *token* in bytes (alias of :func:`measure`)."""
    return measure(token, reg)


def decode(
    data: bytes | bytearray | memoryview,
    reg: TokenRegistry = registry,
    *,
    copy: bool = True,
) -> Token:
    """Rebuild a token from bytes produced by :func:`encode`.

    With ``copy=False`` ndarray/Buffer payloads *borrow* the source
    buffer instead of copying it: the caller must own *data* and keep it
    alive and unmodified for as long as the decoded token lives.  Arrays
    borrowed from a read-only source (e.g. ``bytes``) are read-only;
    borrowing from a ``bytearray`` yields writable aliasing arrays.
    Malformed input raises :class:`WireError` and nothing else.
    """
    global _compiled_hits, _fallbacks
    try:
        view = data if type(data) is memoryview else memoryview(data)
        if _compiled_decode is not None:
            try:
                # malformed input misses too: the pure visitor below then
                # raises the canonical error
                name, fields = _compiled_decode(view, copy)
            except _Unsupported:
                _fallbacks += 1
            else:
                cls = reg.lookup(name)
                obj = cls.__new__(cls)
                obj.__dict__ = fields
                _compiled_hits += 1
                return obj
        if view[:4].tobytes() != MAGIC:
            raise WireError("bad magic; not a DPS wire message")
        (name_len,) = _U16.unpack_from(view, 4)
        offset = 6 + name_len
        cls = reg.lookup(view[6:offset].tobytes().decode())
        if view[offset] == _T_DICT:
            fields, offset = _decode_dict(view, offset + 1, copy)
        else:
            fields, offset = _decode_value(view, offset, copy)
        if offset != len(view):
            raise WireError(f"trailing garbage: {len(view) - offset} bytes")
        obj = cls.__new__(cls)
        # The fields dict is freshly built by the decoder — adopt it outright.
        obj.__dict__ = fields
        return obj
    except WireError:
        raise
    except (struct.error, IndexError, KeyError, TypeError, ValueError,
            RecursionError, SyntaxError) as err:
        # truncated, garbled, nested past the stack, or a dtype numpy rejects
        raise WireError(f"malformed wire message: {err}") from None


# ---------------------------------------------------------------------------
# size measurement (arithmetic, allocation-free on payload bytes)
# ---------------------------------------------------------------------------

def _utf8_len(s: str) -> int:
    return len(s) if s.isascii() else len(s.encode("utf-8"))


def _measure_ndarray(arr: np.ndarray) -> int:
    if arr.dtype.hasobject:
        raise WireError("object-dtype arrays are not serializable")
    # u8 dtype_len | dtype | u8 ndim | u32 dims... | raw bytes
    return 2 + len(arr.dtype.str) + 4 * arr.ndim + arr.size * arr.dtype.itemsize


def _measure_value(value: Any) -> int:
    if value is None or value is False or value is True:
        return 1
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        iv = int(value)
        if _INT64_MIN <= iv <= _INT64_MAX:
            return 9
        return 5 + len(str(iv))
    if isinstance(value, (float, np.floating)):
        return 9
    if isinstance(value, str):
        return 5 + _utf8_len(value)
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, memoryview):
        return 5 + value.nbytes
    if isinstance(value, Buffer):
        return 1 + _measure_ndarray(value.array)
    if isinstance(value, np.ndarray):
        return 1 + _measure_ndarray(value)
    if isinstance(value, (Vector, list, tuple)):
        items = value.items if isinstance(value, Vector) else value
        total = 5
        for item in items:
            total += _measure_value(item)
        return total
    if isinstance(value, dict):
        total = 5
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            total += 2 + _utf8_len(key) + _measure_value(item)
        return total
    if isinstance(value, Token):
        name = registry.name_bytes_of(type(value))
        return 3 + len(name) + _measure_value(value.fields())
    raise WireError(
        f"unserializable value of type {type(value).__name__}; token "
        f"fields must be scalars, Buffer, Vector, ndarray, containers "
        f"or nested Tokens"
    )


# ---------------------------------------------------------------------------
# value encoding (scatter-gather)
# ---------------------------------------------------------------------------
#
# ``parts`` collects finished segments; ``tail`` is the bytearray currently
# being appended to (not yet in ``parts``).  Small data extends ``tail``;
# large ndarray payloads flush ``tail`` and append a borrowed memoryview,
# so the array bytes are never copied into an intermediate buffer.

def _encode_value(parts: List[Segment], tail: bytearray, value: Any) -> bytearray:
    # Exact-type fast paths for the overwhelmingly common field types;
    # subclasses and numpy scalars fall through to the isinstance chain
    # below with identical semantics.
    cls = type(value)
    if cls is dict:
        return _encode_dict(parts, tail, value)
    if cls is str:
        raw = value.encode("utf-8")
        tail += _TAG_STR
        tail += _U32.pack(len(raw))
        tail += raw
        return tail
    if cls is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            tail += _TAGGED_I64.pack(_T_INT64, value)
        else:
            raw = str(value).encode("ascii")
            tail += _TAG_BIGINT
            tail += _U32.pack(len(raw))
            tail += raw
        return tail
    if cls is float:
        tail += _TAGGED_F64.pack(_T_FLOAT64, value)
        return tail
    if cls is Buffer:
        tail += _TAG_BUFFER
        return _encode_ndarray(parts, tail, value.array)
    if cls is np.ndarray:
        tail += _TAG_NDARRAY
        return _encode_ndarray(parts, tail, value)
    if value is None:
        tail += b"\x00"
    elif value is False:
        tail += b"\x01"
    elif value is True:
        tail += b"\x02"
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        iv = int(value)
        if _INT64_MIN <= iv <= _INT64_MAX:
            tail += _TAGGED_I64.pack(_T_INT64, iv)
        else:
            raw = str(iv).encode("ascii")
            tail += _TAG_BIGINT
            tail += _U32.pack(len(raw))
            tail += raw
    elif isinstance(value, (float, np.floating)):
        tail += _TAGGED_F64.pack(_T_FLOAT64, float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        tail += _TAG_STR
        tail += _U32.pack(len(raw))
        tail += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        tail += _TAG_BYTES
        tail += _U32.pack(len(raw))
        tail += raw
    elif isinstance(value, Buffer):
        tail += _TAG_BUFFER
        tail = _encode_ndarray(parts, tail, value.array)
    elif isinstance(value, np.ndarray):
        tail += _TAG_NDARRAY
        tail = _encode_ndarray(parts, tail, value)
    elif isinstance(value, Vector):
        tail += _TAG_VECTOR
        tail += _U32.pack(len(value.items))
        for item in value.items:
            tail = _encode_value(parts, tail, item)
    elif isinstance(value, list):
        tail += _TAG_LIST
        tail += _U32.pack(len(value))
        for item in value:
            tail = _encode_value(parts, tail, item)
    elif isinstance(value, tuple):
        tail += _TAG_TUPLE
        tail += _U32.pack(len(value))
        for item in value:
            tail = _encode_value(parts, tail, item)
    elif isinstance(value, dict):
        tail = _encode_dict(parts, tail, value)
    elif isinstance(value, Token):
        name = registry.name_bytes_of(type(value))
        tail += _TAG_TOKEN
        tail += _U16.pack(len(name))
        tail += name
        tail = _encode_value(parts, tail, value.fields())
    else:
        raise WireError(
            f"unserializable value of type {type(value).__name__}; token "
            f"fields must be scalars, Buffer, Vector, ndarray, containers "
            f"or nested Tokens"
        )
    return tail


def _str_head(s: str) -> bytes:
    """``u16 length | UTF-8``: how a field name goes on the wire."""
    raw = s.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _encode_dict(parts: List[Segment], tail: bytearray, value: dict) -> bytearray:
    tail += _TAG_DICT
    tail += _U32.pack(len(value))
    heads = _KEY_HEADS
    for key, item in value.items():
        if type(key) is str:
            head = heads.get(key)
            if head is None:
                head = _cached(heads, key, _str_head(key))
        elif isinstance(key, str):
            head = _str_head(key)
        else:
            raise WireError(f"dict keys must be str, got {type(key).__name__}")
        tail += head
        tail = _encode_value(parts, tail, item)
    return tail


def _array_head(arr: np.ndarray) -> bytes:
    """*arr*'s ``u8 dtype_len | dtype | u8 ndim | u32 dims...`` header."""
    dtype = arr.dtype
    if dtype.hasobject:
        raise WireError("object-dtype arrays are not serializable")
    head = _DTYPE_HEADS.get(dtype)
    if head is None:
        dtype_str = dtype.str.encode("ascii")
        head = _cached(_DTYPE_HEADS, dtype,
                       _U8.pack(len(dtype_str)) + dtype_str)
    head += _U8.pack(arr.ndim)
    for dim in arr.shape:
        head += _U32.pack(dim)
    return head


def _encode_ndarray(parts: List[Segment], tail: bytearray, arr: np.ndarray) -> bytearray:
    tail += _array_head(arr)
    contiguous = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    if contiguous.nbytes >= _SEGMENT_THRESHOLD:
        # Zero-copy: borrow the array's storage as a raw-byte view.  The
        # memoryview keeps ``contiguous`` alive, so a compacting copy made
        # for a non-contiguous input survives until the segment is used.
        parts.append(tail)
        tail = bytearray()
        parts.append(memoryview(contiguous.reshape(-1).view(np.uint8)))
    else:
        tail += contiguous.tobytes()
    return tail


# ---------------------------------------------------------------------------
# value decoding
# ---------------------------------------------------------------------------

def _decode_value(view: memoryview, offset: int, copy: bool = True) -> tuple[Any, int]:
    # Dispatch on plain ints, most frequent tags first (tag values are
    # distinct, so reordering the comparisons cannot change semantics).
    tag = view[offset]
    offset += 1
    if tag == _T_STR:
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        return view[offset : offset + n].tobytes().decode(), offset + n
    if tag == _T_INT64:
        (v,) = _I64.unpack_from(view, offset)
        return v, offset + 8
    if tag == _T_FLOAT64:
        (v,) = _F64.unpack_from(view, offset)
        return v, offset + 8
    if tag == _T_BUFFER:
        buf = Buffer.__new__(Buffer)
        buf.array, offset = _decode_ndarray(view, offset, copy)
        return buf, offset
    if tag == _T_NDARRAY:
        return _decode_ndarray(view, offset, copy)
    if tag == _T_DICT:
        return _decode_dict(view, offset, copy)
    if tag == _T_NONE:
        return None, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_BYTES:
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        return bytes(view[offset : offset + n]), offset + n
    if tag == _T_BIGINT:
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        return int(str(view[offset : offset + n], "ascii")), offset + n
    if tag == _T_VECTOR:
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        vec = Vector()
        for _ in range(n):
            item, offset = _decode_value(view, offset, copy)
            vec.items.append(item)
        return vec, offset
    if tag == _T_LIST or tag == _T_TUPLE:
        (n,) = _U32.unpack_from(view, offset)
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _decode_value(view, offset, copy)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_TOKEN:
        (nlen,) = _U16.unpack_from(view, offset)
        offset += 2
        name = view[offset : offset + nlen].tobytes().decode()
        offset += nlen
        cls = registry.lookup(name)
        fields, offset = _decode_value(view, offset, copy)
        obj = cls.__new__(cls)
        obj.__dict__ = fields
        return obj, offset
    raise WireError(f"unknown wire tag {tag}")


def _decode_dict(view: memoryview, offset: int, copy: bool) -> tuple[dict, int]:
    (n,) = _U32.unpack_from(view, offset)
    offset += 4
    result: dict[str, Any] = {}
    for _ in range(n):
        (klen,) = _U16.unpack_from(view, offset)
        offset += 2
        key = view[offset : offset + klen].tobytes().decode()
        offset += klen
        result[key], offset = _decode_value(view, offset, copy)
    return result, offset


def _decode_ndarray(view: memoryview, offset: int, copy: bool = True) -> tuple[np.ndarray, int]:
    dlen = view[offset]
    offset += 1
    key = bytes(view[offset : offset + dlen])
    dtype = _DTYPE_CACHE.get(key)
    if dtype is None:
        dtype = _cached(_DTYPE_CACHE, key, np.dtype(key.decode("ascii")))
    offset += dlen
    ndim = view[offset]
    offset += 1
    shape = struct.unpack_from(f"<{ndim}I", view, offset)
    offset += 4 * ndim
    nbytes = prod(shape) * dtype.itemsize
    arr = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
    if arr.shape != shape:
        # n-D, a payload cut short (the reshape raises) or a sub-array
        # dtype, whose dims a damaged header can fold into *shape*
        arr = arr.reshape(shape)
    if copy:
        arr = arr.copy()
    return arr, offset + nbytes


# ---------------------------------------------------------------------------
# compiled visitor
# ---------------------------------------------------------------------------
#
# ``_wirec``, an optional C extension built by ``setup.py``, encodes the
# common value subset.  A message it cannot reproduce bit-identically
# raises ``_Unsupported`` and takes the pure visitor above whole, so the
# bytes do not depend on the tier.  Without it both bound functions are
# ``None``.


class _Unsupported(Exception):
    """The compiled visitor cannot reproduce this message; use the pure one."""


def _encode_array(arr: np.ndarray) -> bytes:
    """Inline ndarray header + payload, mirroring ``_encode_ndarray``.

    Arrays at or above the segment threshold become borrowed segments,
    which only the pure visitor builds: :class:`_Unsupported`.  An
    unserializable array raises what the pure visitor raises.
    """
    head = _array_head(arr)
    contiguous = arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)
    if contiguous.nbytes >= _SEGMENT_THRESHOLD:
        raise _Unsupported
    return head + contiguous.tobytes()


def _decode_array(src, offset: int, copy: int, as_buffer: int):
    """Decode one ndarray/Buffer payload for the compiled visitor."""
    view = src if type(src) is memoryview else memoryview(src)
    try:
        arr, offset = _decode_ndarray(view, offset, bool(copy))
    except (struct.error, ValueError):
        # Malformed header/payload: the pure re-decode raises the
        # canonical error from the identical position.
        raise _Unsupported from None
    if as_buffer:
        buf = Buffer.__new__(Buffer)
        buf.array = arr
        return buf, offset
    return arr, offset


try:
    from . import _wirec
except ImportError:
    _compiled_encode = _compiled_decode = None
else:  # pragma: no cover - needs the built extension
    _wirec.setup(_Unsupported, Buffer, Vector, np.ndarray,
                 _encode_array, _decode_array)
    _compiled_encode, _compiled_decode = _wirec.encode_token, _wirec.decode_token

_compiled_hits = _fallbacks = 0


def codec_in_use() -> str:
    """The visitor messages take first: ``compiled`` or ``pure``."""
    return "pure" if _compiled_encode is None else "compiled"


def take_codec_counters() -> dict[str, int]:
    """Drain the compiled visitor's tallies (metrics fold points call this)."""
    global _compiled_hits, _fallbacks
    out = {"codec_compiled_hits": _compiled_hits,
           "codec_fallbacks": _fallbacks}
    _compiled_hits = _fallbacks = 0
    return out

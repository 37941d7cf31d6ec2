"""Codec fast-path selection: the compiled visitor, pure fallback.

This module is the runtime switchboard for the one accelerated wire
path layered over the generic codec in :mod:`~repro.serial.wire`: the
**compiled visitor** (``repro.serial._wirec``), an optional C extension
handling the common value subset, built best-effort by ``setup.py`` and
loaded best-effort here — importing :mod:`repro` never requires a C
compiler or a built artifact.

Selection order per message: compiled (when its import succeeded) →
pure.  The compiled visitor is *total-fallback*: any value it does not
handle bit-identically makes the whole message take the pure visitor, so
wire bytes are identical across paths in both directions (pinned by the
parity property suite).

The tier is not an option: it follows from whether the extension
imported and bound.  :func:`set_codec` is the seam the parity suite and
``examples/codec_ab.py`` use to reach the reference visitor — ``"auto"``
(the compiled visitor when bound, the state at import) or ``"pure"``
(generic visitor only).  Without the extension ``auto`` *is* the pure
visitor: :data:`enabled` stays false and ``wire.py`` never calls in
here.

Counters (:func:`take_counters`) feed the ``codec_compiled_hits`` /
``codec_fallbacks`` metrics folded into each kernel's metrics registry.

Import order note: :mod:`~repro.serial.wire` imports this module at the
bottom of its own body and calls :func:`_bind`, handing over the
helpers the array paths delegate to; nothing here imports ``wire``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Optional

from .registry import TokenRegistry

__all__ = [
    "CODEC_MODES",
    "set_codec",
    "get_codec",
    "codec_in_use",
    "compiled_available",
    "take_counters",
]

CODEC_MODES = ("auto", "pure")


class _Unsupported(Exception):
    """The compiled visitor cannot reproduce this message; use the pure one."""


# -- compiled extension (best-effort) ---------------------------------------

try:  # pragma: no cover - exercised via the codec-parity CI job
    from . import _wirec as _compiled_mod
except ImportError:
    _compiled_mod = None

_compiled_encode: Optional[Callable] = None
_compiled_decode: Optional[Callable] = None

# -- wire bindings (installed by wire.py at the bottom of its body) ---------

_np = None
_Buffer = None
_Vector = None
_array_head = None
_decode_ndarray = None
_segment_threshold = 1 << 30


def _encode_array(arr) -> bytes:
    """Inline ndarray header + payload, mirroring ``_encode_ndarray``.

    Arrays at or above the scatter-gather segment threshold must become
    borrowed memoryview segments — only the pure visitor builds those,
    so they raise :class:`_Unsupported` here.  Error semantics for
    unserializable arrays (object dtype, >255 dims) match the pure path
    exactly: the same exception types escape from either visitor.
    """
    head = _array_head(arr)
    contiguous = arr if arr.flags.c_contiguous \
        else _np.ascontiguousarray(arr)
    if contiguous.nbytes >= _segment_threshold:
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
        buf = _Buffer.__new__(_Buffer)
        buf.array = arr
        return buf, offset
    return arr, offset


def _bind(wire_ns: Dict[str, Any]) -> None:
    """Receive the generic codec's internals (called from ``wire.py``)."""
    global _np, _Buffer, _Vector, _array_head, _decode_ndarray
    global _segment_threshold, _compiled_encode, _compiled_decode
    _np = wire_ns["np"]
    _Buffer = wire_ns["Buffer"]
    _Vector = wire_ns["Vector"]
    _array_head = wire_ns["_array_head"]
    _decode_ndarray = wire_ns["_decode_ndarray"]
    _segment_threshold = wire_ns["_SEGMENT_THRESHOLD"]
    if _compiled_mod is not None:
        try:
            _compiled_mod.setup(_Unsupported, _Buffer, _Vector,
                                _np.ndarray, _encode_array, _decode_array)
            _compiled_encode = _compiled_mod.encode_token
            _compiled_decode = _compiled_mod.decode_token
        except Exception:  # pragma: no cover - defensive: stale binary
            _compiled_encode = _compiled_decode = None
    set_codec(_mode)  # ``enabled`` depends on whether the binding took


# -- mode -------------------------------------------------------------------

_mode = "auto"
#: Whether ``wire.py`` should probe this module at all: ``auto`` mode with
#: the extension bound.  False means every message takes the pure visitor.
enabled = False


def set_codec(mode: str) -> None:
    """Select the process-wide codec mode (``auto`` | ``pure``)."""
    global _mode, enabled
    if mode not in CODEC_MODES:
        raise ValueError(
            f"codec must be one of {CODEC_MODES}, got {mode!r}")
    _mode = mode
    enabled = mode == "auto" and _compiled_encode is not None


def get_codec() -> str:
    return _mode


def compiled_available() -> bool:
    """Whether the C visitor imported and bound successfully."""
    return _compiled_encode is not None


def codec_in_use() -> str:
    """The visitor messages take first: ``compiled`` or ``pure``."""
    return "compiled" if enabled else "pure"


# -- counters ---------------------------------------------------------------

_compiled_hits = 0
_fallbacks = 0


def take_counters() -> Dict[str, int]:
    """Drain the fast-path counters (metrics fold points call this)."""
    global _compiled_hits, _fallbacks
    out = {
        "codec_compiled_hits": _compiled_hits,
        "codec_fallbacks": _fallbacks,
    }
    _compiled_hits = _fallbacks = 0
    return out


# -- encode / decode (called only while ``enabled``) ------------------------

def try_encode(token, name: bytes):
    """Compiled encode of *token*; ``None`` means use the pure visitor.

    Returns the full wire message as one writable ``bytearray`` segment
    (the same whole-message tail shape the pure visitor emits).  The
    caller has already validated the token type and resolved *name*
    through its registry, so error behavior up to this point is
    identical across paths.
    """
    global _compiled_hits, _fallbacks
    try:
        out = _compiled_encode(name, token.fields())
    except _Unsupported:
        _fallbacks += 1
        return None
    _compiled_hits += 1
    return out


def try_decode(data, reg: TokenRegistry, copy: bool):
    """Compiled decode; ``None`` means use the pure visitor.

    Any malformed input makes the compiled visitor miss, so the pure
    visitor re-parses and raises the canonical errors.
    """
    global _compiled_hits, _fallbacks
    view = data if type(data) is memoryview else memoryview(data)
    try:
        name, fields = _compiled_decode(view, copy)
    except _Unsupported:
        _fallbacks += 1
        return None
    cls = reg.lookup(name)
    obj = cls.__new__(cls)
    obj.__dict__ = fields
    _compiled_hits += 1
    return obj


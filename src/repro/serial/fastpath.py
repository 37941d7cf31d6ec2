"""Codec fast-path selection: plans, the compiled visitor, pure fallback.

This module is the runtime switchboard for the two accelerated wire
paths layered over the generic codec in :mod:`~repro.serial.wire`:

1. **Token-type plans** (:mod:`~repro.serial.plans`): per-token-type
   precompiled ``struct.Struct`` batches for all-scalar field layouts,
   built lazily from the first encode / first decode of each type and
   keyed by the type's signature.
2. **The compiled visitor** (``repro.serial._wirec``): an optional
   C extension handling the common value subset, built best-effort by
   ``setup.py`` and loaded best-effort here — importing :mod:`repro`
   never requires a C compiler or a built artifact.

Selection order per message: plan → compiled → pure.  Every fast path
is *total-fallback*: any value it does not handle bit-identically makes
the whole message take the pure visitor, so wire bytes are identical
across paths in both directions (pinned by the parity property suite).

The mode knob (``TransportPolicy.codec`` / ``REPRO_CODEC`` / CLI
``--codec``) takes ``"auto"`` (plans plus the compiled visitor when its
import succeeds — the default) or ``"pure"`` (generic visitor only, the
reference the parity tests compare against).

Counters (:func:`take_counters`) feed the ``codec_fast_path`` /
``codec_fallbacks`` metrics folded into each kernel's metrics registry.

Import order note: :mod:`~repro.serial.wire` imports this module at the
bottom of its own body and calls :func:`_bind`, handing over the
helpers the array paths delegate to; nothing here imports ``wire``.
"""

from __future__ import annotations

import os
import struct
from typing import Any, Callable, Dict, Optional

from .plans import PlanMiss, build_decode_plan, build_encode_plan
from .registry import TokenRegistry, registry as _default_registry

__all__ = [
    "CODEC_MODES",
    "set_codec",
    "get_codec",
    "codec_in_use",
    "compiled_available",
    "warm",
    "take_counters",
    "reset_plans",
]

CODEC_MODES = ("auto", "pure")


class _Unsupported(Exception):
    """A fast path cannot reproduce this message; use the pure visitor."""


# -- compiled extension (best-effort) ---------------------------------------

try:  # pragma: no cover - exercised via the codec-parity CI job
    from . import _wirec as _compiled_mod
except ImportError:
    _compiled_mod = None

_compiled_encode: Optional[Callable] = None
_compiled_decode: Optional[Callable] = None

# -- wire bindings (installed by wire.py at the bottom of its body) ---------

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")

_np = None
_Buffer = None
_Vector = None
_WireError = Exception
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
    if arr.dtype.hasobject:
        raise _WireError("object-dtype arrays are not serializable")
    contiguous = arr if arr.flags.c_contiguous \
        else _np.ascontiguousarray(arr)
    if contiguous.nbytes >= _segment_threshold:
        raise _Unsupported
    dtype_str = contiguous.dtype.str.encode("ascii")
    parts = [_U8.pack(len(dtype_str)), dtype_str, _U8.pack(arr.ndim)]
    for dim in arr.shape:
        parts.append(_U32.pack(dim))
    parts.append(contiguous.tobytes())
    return b"".join(parts)


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
    global _np, _Buffer, _Vector, _WireError, _decode_ndarray
    global _segment_threshold, _compiled_encode, _compiled_decode
    _np = wire_ns["np"]
    _Buffer = wire_ns["Buffer"]
    _Vector = wire_ns["Vector"]
    _WireError = wire_ns["WireError"]
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


# -- mode -------------------------------------------------------------------

_mode = "auto"
enabled = True


def set_codec(mode: str) -> None:
    """Select the process-wide codec mode (``auto`` | ``pure``)."""
    global _mode, enabled
    if mode not in CODEC_MODES:
        raise ValueError(
            f"codec must be one of {CODEC_MODES}, got {mode!r}")
    _mode = mode
    enabled = mode != "pure"


def get_codec() -> str:
    return _mode


def compiled_available() -> bool:
    """Whether the C visitor imported and bound successfully."""
    return _compiled_encode is not None


def codec_in_use() -> str:
    """Human-readable description of the active selection."""
    if not enabled:
        return "pure"
    if compiled_available():
        return "fast:plans+compiled"
    return "fast:plans"


# -- counters ---------------------------------------------------------------

_plan_hits = 0
_compiled_hits = 0
_fallbacks = 0


def take_counters() -> Dict[str, int]:
    """Drain the fast-path counters (metrics fold points call this)."""
    global _plan_hits, _compiled_hits, _fallbacks
    out = {
        "codec_fast_path": _plan_hits + _compiled_hits,
        "codec_plan_hits": _plan_hits,
        "codec_compiled_hits": _compiled_hits,
        "codec_fallbacks": _fallbacks,
    }
    _plan_hits = _compiled_hits = _fallbacks = 0
    return out


# -- plan registries --------------------------------------------------------

# type -> encode plan (None = unplannable layout).  Keyed on the token
# class; plans embed the default registry's name bytes, so they are only
# consulted for the default registry.
_encode_plans: Dict[type, Optional[Callable]] = {}
# registered-name bytes -> decode plan (None = unplannable/attempted).
_decode_plans: Dict[bytes, Optional[Callable]] = {}


def reset_plans() -> None:
    """Drop every compiled plan (tests and re-registration hooks)."""
    _encode_plans.clear()
    _decode_plans.clear()


def warm(token, reg: TokenRegistry = _default_registry) -> None:
    """Precompile encode/decode plans for *token*'s type, best-effort.

    Engines call this with the tokens they inject and the service tier
    with call/reply samples, so steady-state traffic starts planned
    instead of paying a generic first pass per type.  No-op for
    unplannable layouts, non-default registries and unregistered types.
    """
    if reg is not _default_registry:
        return
    cls = type(token)
    try:
        name = reg.name_bytes_of(cls)
    except Exception:
        return
    fields = token.fields()
    if cls not in _encode_plans:
        _encode_plans[cls] = build_encode_plan(name, fields)
    if name not in _decode_plans:
        _decode_plans[name] = build_decode_plan(cls, name, fields)


# -- encode -----------------------------------------------------------------

def try_encode(token, name: bytes, default_reg: bool):
    """Fast-path encode of *token*; ``None`` means use the pure visitor.

    Returns the full wire message as one writable ``bytearray`` segment
    (the same whole-message tail shape the pure visitor emits).  The
    caller has already validated the token type and resolved *name*
    through its registry, so error behavior up to this point is
    identical across paths.
    """
    global _plan_hits, _compiled_hits, _fallbacks
    cls = token.__class__
    if default_reg:
        plan = _encode_plans.get(cls, False)
        if plan is False:
            plan = _encode_plans[cls] = build_encode_plan(
                name, token.fields())
        if plan is not None:
            try:
                out = plan(token.fields())
            except PlanMiss:
                pass
            else:
                _plan_hits += 1
                return out
    if _compiled_encode is not None:
        try:
            out = _compiled_encode(name, token.fields())
        except _Unsupported:
            _fallbacks += 1
            return None
        _compiled_hits += 1
        return out
    _fallbacks += 1
    return None


# -- decode -----------------------------------------------------------------

def try_decode(data, reg: TokenRegistry, copy: bool):
    """Fast-path decode; ``None`` means use the pure visitor.

    Any malformed input makes the fast paths miss, so the pure visitor
    re-parses and raises the canonical errors.
    """
    global _plan_hits, _compiled_hits, _fallbacks
    view = data if type(data) is memoryview else memoryview(data)
    default_reg = reg is _default_registry
    if default_reg and view.nbytes >= 8:
        name_len = view[4] | (view[5] << 8)
        plan = _decode_plans.get(bytes(view[6:6 + name_len]))
        if plan is not None:
            try:
                token = plan(view)
            except PlanMiss:
                pass
            else:
                _plan_hits += 1
                return token
    if _compiled_decode is not None:
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
    _fallbacks += 1
    return None


def note_decoded(name: bytes, token) -> None:
    """Learn a decode (and encode) plan from a generic-decode sample.

    Called by ``wire.decode`` after a pure-path decode against the
    default registry; each registered name is attempted once.  The new
    decode plan is recorded permanently (``None`` when unplannable), so
    this runs at most once per token type.
    """
    if name in _decode_plans:
        return
    cls = type(token)
    fields = token.__dict__
    _decode_plans[name] = build_decode_plan(cls, name, fields)
    if cls not in _encode_plans:
        _encode_plans[cls] = build_encode_plan(name, fields)


_env_mode = os.environ.get("REPRO_CODEC")
if _env_mode in CODEC_MODES:
    set_codec(_env_mode)

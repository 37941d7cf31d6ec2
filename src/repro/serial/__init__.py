"""Serialization substrate: tokens, containers, registry, wire format."""

from .containers import Buffer, Vector
from .registry import TokenRegistry, registry
from .token import ComplexToken, SimpleToken, Token, TokenMeta
from .wire import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    MAGIC,
    WireError,
    codec_in_use,
    decode,
    encode,
    encode_into,
    encode_segments,
    encoded_size,
    frame,
    gather,
    measure,
    unframe,
)

__all__ = [
    "Buffer",
    "ComplexToken",
    "FRAME_HEADER_BYTES",
    "FRAME_VERSION",
    "MAGIC",
    "SimpleToken",
    "Token",
    "TokenMeta",
    "TokenRegistry",
    "Vector",
    "WireError",
    "codec_in_use",
    "decode",
    "encode",
    "encode_into",
    "encode_segments",
    "encoded_size",
    "frame",
    "gather",
    "measure",
    "registry",
    "unframe",
]

"""Peer bytes, mutated: the decoders raise ``WireError`` and nothing else.

``wire.decode`` and ``protocol.decode_message`` read what a peer sent.
Whatever those bytes are — a valid encoding with bytes flipped, cut off,
inserted, a length field blown up, or values nested past the stack —
each returns a value or raises :class:`WireError`.  Where the compiled
visitor is built, it returns what the pure visitor returns (compared
value for value) or raises as it does.

The samples are token encodings and one message of every kind.  Run the
module for a longer seeded run outside the tier-1 suite::

    PYTHONPATH=src python -m tests.net.test_wire_fuzz 1000000 [seed]
"""

import random
import struct
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gol_service import GolReadRequest
from repro.apps.ring import RingBlockToken
from repro.net import protocol as P
from repro.runtime.base import DataEnvelope
from repro.serial import (Buffer, ComplexToken, Token, Vector, WireError,
                          decode, encode)
from repro.serial import wire as W

from tests.net.test_protocol import _NAMES, _sample_message, proto_graph


class FuzzToken(ComplexToken):
    """Every value tag the codec has, in one token."""

    def __init__(self, payload=None):
        self.payload = payload


_GRAPH = proto_graph()
_GRAPHS = {_GRAPH.name: _GRAPH}

_TOKENS = [
    FuzzToken({
        "ints": [0, -1, 2**63 - 1, 2**70], "float": 0.25,
        "flags": (True, False), "none": None, "text": "héllo",
        "raw": b"\x00\xff", "vec": Vector([1, "two"]),
        "buf": Buffer(np.arange(6, dtype="<i4")),
        "grid": np.arange(12.0).reshape(3, 4), "nested": FuzzToken(7),
    }),
    RingBlockToken(Buffer(np.arange(64, dtype=np.uint8)), 3, 32),
    GolReadRequest(5, 2, 3, 8),
    FuzzToken(None),
]

#: ``(label, wire bytes, decoder)`` for every sample: a token for
#: ``wire.decode``, a message for ``protocol.decode_message``
SAMPLES = (
    [(f"token-{type(tok).__name__}-{i}", encode(tok), "token")
     for i, tok in enumerate(_TOKENS)]
    + [(_NAMES[kind], bytes(W.gather(_sample_message(kind, _GRAPH))),
        "message") for kind in sorted(_NAMES)])

_LIST_OF_ONE = bytes((W.Tag.LIST,)) + struct.pack("<I", 1)


def mutate(wire: bytes, ops) -> bytearray:
    """*wire* with *ops* applied in turn; positions wrap to the length."""
    out = bytearray(wire)
    for op, pos, arg in ops:
        pos %= len(out) + 1
        if op == "flip":
            if pos < len(out):
                out[pos] ^= arg
        elif op == "cut":
            del out[pos:]
        elif op == "insert":
            out[pos:pos] = arg
        elif op == "huge":  # a length field claiming ~all of u16/u32/u64
            out[pos:pos + arg] = b"\xff" * arg
        elif op == "nest":  # wrap what follows in *arg* one-item lists
            out[pos:pos] = _LIST_OF_ONE * arg
    return out


def _canon(value) -> list:
    """*value* flattened to plain, comparable items (NaNs and all).  No
    recursion: a decoded value nests as deep as the decoder's stack."""
    out, todo = [], [value]
    while todo:
        v = todo.pop()
        if isinstance(v, DataEnvelope):
            out.append(("env", v.graph.name, v.node_id, v.instance, v.ctx_id,
                        tuple(map(tuple, v.frames)), v.ctx_origin))
            todo.append(v.token)
        elif isinstance(v, (Token, BaseException)):
            out.append(type(v).__qualname__)
            todo.append(v.args if isinstance(v, BaseException) else v.__dict__)
        elif isinstance(v, np.ndarray):
            out.append(("nd", v.dtype.str, v.shape, v.tobytes()))
        elif isinstance(v, Buffer):
            out.append("buf")
            todo.append(v.array)
        elif isinstance(v, Vector):
            out.append("vec")
            todo.append(v.items)
        elif isinstance(v, (list, tuple)):
            out.append((type(v).__name__, len(v)))
            todo.extend(reversed(v))
        elif isinstance(v, dict):
            out.append(("dict", tuple(v)))
            todo.extend(reversed(v.values()))
        elif isinstance(v, float):
            out.append(("float", struct.pack("<d", v)))
        else:
            out.append((type(v).__name__, v))
    return out


@contextmanager
def _pure():
    bound = W._compiled_encode, W._compiled_decode
    W._compiled_encode = W._compiled_decode = None
    try:
        yield
    finally:
        W._compiled_encode, W._compiled_decode = bound


#: the pure visitor always; the compiled one too where it is built
TIERS = [_pure] + ([nullcontext] if W._compiled_decode is not None else [])


def outcomes(wire: bytes, decoder: str):
    """What each tier makes of *wire*: ``("ok", value)`` or
    ``("WireError",)``.  Any other exception propagates."""
    seen = []
    for tier in TIERS:
        data = bytearray(wire)  # a message borrows its buffer
        try:
            with tier():
                if decoder == "token":
                    value = decode(data, copy=False)
                else:
                    value = P.decode_message(data, _GRAPHS)
            seen.append(("ok", _canon(value)))
        except WireError:
            seen.append(("WireError",))
    return seen


def check(wire: bytes, decoder: str):
    seen = outcomes(wire, decoder)
    assert all(s == seen[0] for s in seen), seen
    return seen[0][0]


_POS = st.integers(0, 1 << 16)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("flip"), _POS, st.integers(1, 255)),
    st.tuples(st.just("cut"), _POS, st.none()),
    st.tuples(st.just("insert"), _POS, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("huge"), _POS, st.sampled_from([2, 4, 8])),
    st.tuples(st.just("nest"), _POS, st.integers(1, 6000)),
), min_size=1, max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SAMPLES), _OPS)
def test_mutated_bytes_decode_alike_or_raise_wire_error(sample, ops):
    _, wire, decoder = sample
    check(bytes(mutate(wire, ops)), decoder)


@pytest.mark.parametrize("label, wire, decoder", SAMPLES,
                         ids=[label for label, _, _ in SAMPLES])
def test_every_sample_decodes_alike_on_every_tier(label, wire, decoder):
    assert check(wire, decoder) == "ok"


@pytest.mark.parametrize("depth", [63, 64, 65, 500, 5000])
def test_nesting_past_the_stack_is_a_wire_error(depth):
    """A list nested 5 000 deep, as a token's field and as a beat's
    load: no ``RecursionError`` leaves either decoder."""
    token = encode(FuzzToken(None))
    beat = bytes(W.gather(P.encode_control(P.MSG_BEAT, "kernelX", None)))
    assert token[-1] == beat[-1] == W.Tag.NONE
    for wire, decoder in ((token, "token"), (beat, "message")):
        deep = mutate(wire, [("nest", len(wire) - 1, depth)])
        assert check(bytes(deep), decoder) == (
            "ok" if depth <= 500 else "WireError")


@pytest.mark.parametrize("dtype", [b"01i4", b"f8,(,)i4", b"S99999999999",
                                   b"(99999999999,)f8", b"O", b"i4,i4"])
def test_dtype_strings_numpy_cannot_read_are_wire_errors(dtype):
    """numpy parses a dtype string with its own errors (``SyntaxError``
    from ``literal_eval`` among them); the decoders raise WireError."""
    head, tail = encode(FuzzToken(np.zeros(3, "<i4"))).split(b"\x03<i4")
    assert check(head + bytes([len(dtype)]) + dtype + tail,
                 "token") == "WireError"


def _random_ops(rng: random.Random):
    ops = []
    for _ in range(rng.randint(1, 4)):
        op = rng.choice(("flip", "cut", "insert", "huge", "nest"))
        arg = {"flip": lambda: rng.randint(1, 255),
               "cut": lambda: None,
               "insert": lambda: rng.randbytes(rng.randint(1, 8)),
               "huge": lambda: rng.choice((2, 4, 8)),
               "nest": lambda: rng.randint(1, 6000)}[op]()
        ops.append((op, rng.randint(0, 1 << 16), arg))
    return ops


def main(count: int, seed: int = 0) -> None:
    rng = random.Random(seed)
    tally = {"ok": 0, "WireError": 0}
    started = time.perf_counter()
    for _ in range(count):
        _, wire, decoder = rng.choice(SAMPLES)
        tally[check(bytes(mutate(wire, _random_ops(rng))), decoder)] += 1
    print(f"{count} inputs, seed {seed}, tiers "
          f"{[t.__name__ for t in TIERS]}: {tally['ok']} decoded alike, "
          f"{tally['WireError']} WireError on every tier, no other "
          f"exception, {time.perf_counter() - started:.0f} s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100_000,
         int(sys.argv[2]) if len(sys.argv) > 2 else 0)

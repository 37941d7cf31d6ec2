"""Property suite pinning fast/pure codec byte-identity.

The fast path (the optional compiled visitor, selected by
:mod:`repro.serial.fastpath`) must be invisible on the wire: for every
payload the bytes it emits equal the pure visitor's bytes, and a
message encoded by either side decodes identically on the other.  These
tests drive both directions over arbitrary payload trees — including
the kinds the compiled visitor cannot handle, where the total-fallback
rule must kick in rather than diverge.

Run twice by the codec-parity CI job: once with the compiled extension
built, once without (``auto`` is then the pure visitor and the parity
properties reduce to pure round trips); they hold either way.  The
hex-literal pins at the bottom hold the wire format itself still.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.apps.gol_service import GolReadRequest
from repro.apps.ring import RingJobToken
from repro.apps.stream_pipeline import StreamItemToken
from repro.serial import (Buffer, ComplexToken, SimpleToken, Vector, WireError,
                          decode, encode)
from repro.serial import fastpath
from repro.serial.wire import _SEGMENT_THRESHOLD


class ParityToken(ComplexToken):
    """Generic carrier for parity payloads."""

    def __init__(self, payload=None):
        self.payload = payload


class ScalarToken(SimpleToken):
    """Scalar-heavy layout with a variable-width (str) field."""

    def __init__(self, seq=0, value=0.0, flag=False, note="", tag=None):
        self.seq = seq
        self.value = value
        self.flag = flag
        self.note = note
        self.tag = tag


class AllScalarToken(SimpleToken):
    """Fixed-width scalars only: the shape of the control tokens that
    dominate kernel-to-kernel traffic."""

    def __init__(self, seq=0, value=0.0, flag=False, tag=None):
        self.seq = seq
        self.value = value
        self.flag = flag
        self.tag = tag


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

np_dtypes = st.sampled_from(
    [np.int8, np.int32, np.int64, np.uint16, np.float32, np.float64, np.bool_]
)


def small_arrays():
    return np_dtypes.flatmap(
        lambda dt: arrays(
            dtype=dt,
            shape=array_shapes(max_dims=3, max_side=5),
            elements=st.booleans()
            if dt is np.bool_
            else st.integers(min_value=0, max_value=100)
            if np.issubdtype(dt, np.integer)
            else st.floats(width=32, allow_nan=False, allow_infinity=False),
        )
    )


payloads = st.recursive(
    st.one_of(scalars, small_arrays().map(Buffer), small_arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.lists(children, max_size=3).map(Vector),
    ),
    max_leaves=12,
)


def _pure_encode(tok):
    mode = fastpath.get_codec()
    fastpath.set_codec("pure")
    try:
        return encode(tok)
    finally:
        fastpath.set_codec(mode)


def _fast_encode(tok):
    mode = fastpath.get_codec()
    fastpath.set_codec("auto")
    try:
        return encode(tok)
    finally:
        fastpath.set_codec(mode)


def _pure_decode(data):
    mode = fastpath.get_codec()
    fastpath.set_codec("pure")
    try:
        return decode(data)
    finally:
        fastpath.set_codec(mode)


def _fast_decode(data):
    mode = fastpath.get_codec()
    fastpath.set_codec("auto")
    try:
        return decode(data)
    finally:
        fastpath.set_codec(mode)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_fast_and_pure_bytes_identical(payload):
    """The load-bearing property: identical wire bytes, both paths."""
    tok = ParityToken(payload)
    assert _fast_encode(tok) == _pure_encode(tok)


@settings(max_examples=120, deadline=None)
@given(payloads)
def test_cross_decode_both_directions(payload):
    """fast-encoded → pure-decoded and pure-encoded → fast-decoded."""
    tok = ParityToken(payload)
    wire = _fast_encode(tok)
    a = _pure_decode(wire)
    b = _fast_decode(_pure_encode(tok))
    # Re-encoding the two decodes (on either path) reproduces the
    # original bytes — field order and value types survived the trip.
    assert _pure_encode(a) == wire
    assert _fast_encode(b) == wire
    assert _fast_encode(a) == _pure_encode(b) == wire


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.booleans(),
    st.text(max_size=20),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
)
def test_scalar_token_parity(seq, value, flag, note, tag):
    """Every scalar kind and the None/bigint edges (ints beyond int64
    take the BIGINT tag identically on both paths)."""
    tok = ScalarToken(seq, value, flag, note, tag)
    wire = _fast_encode(tok)
    assert wire == _pure_encode(tok)
    back_fast = _fast_decode(wire)
    back_pure = _pure_decode(wire)
    assert back_fast.fields() == back_pure.fields() == tok.fields()
    for key in tok.fields():
        assert type(getattr(back_fast, key)) is type(getattr(tok, key))


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_borrowed_segment_arrays_fall_back(arr):
    """Arrays at/above the scatter threshold are pure-only: the fast
    paths must fall back whole-message, not truncate or diverge."""
    big = np.zeros(_SEGMENT_THRESHOLD, dtype=np.uint8)
    tok = ParityToken([Buffer(big), arr])
    wire = _fast_encode(tok)
    assert wire == _pure_encode(tok)
    back = _fast_decode(wire)
    assert np.array_equal(back.payload[0].array, big)
    assert np.array_equal(back.payload[1], arr)


def test_int64_boundary_parity():
    for n in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**200, 0):
        tok = ScalarToken(seq=n)
        assert _fast_encode(tok) == _pure_encode(tok)
        assert _fast_decode(_pure_encode(tok)).seq == n


def test_int64_bigint_boundary_on_the_wire():
    """int64 range is tag 3 + 8 bytes LE; one past either end is tag 7
    (BIGINT) + u32 length + ascii decimal."""
    for n, field in (
        (2**63 - 1, "03" + "ffffffffffffff7f"),
        (-(2**63), "03" + "0000000000000080"),
        (2**63, "07" + "13000000" + b"9223372036854775808".hex()),
        (-(2**63) - 1, "07" + "14000000" + b"-9223372036854775809".hex()),
    ):
        for enc in (_fast_encode, _pure_encode):
            wire = enc(AllScalarToken(seq=n)).hex()
            assert wire.split(b"seq".hex(), 1)[1].startswith(field)


def test_none_and_bool_tag_bytes():
    """None is tag 0, False tag 1, True tag 2, each with no payload."""
    expected = ("445053320e00416c6c5363616c6172546f6b656e0d04000000"
                "0300736571" "03" "0700000000000000"
                "050076616c7565" "04" "000000000000f83f"
                "0400666c6167" "{flag}"
                "0300746167" "00")
    for flag, tag in ((True, "02"), (False, "01")):
        tok = AllScalarToken(7, 1.5, flag, None)
        for enc in (_fast_encode, _pure_encode):
            assert enc(tok).hex() == expected.format(flag=tag)
        for dec in (_fast_decode, _pure_decode):
            back = dec(bytes.fromhex(expected.format(flag=tag)))
            assert back.flag is flag and back.tag is None


def test_field_order_is_wire_order():
    """Fields go out in ``__dict__`` order and come back in wire order:
    a token whose dict order differs encodes to different bytes, the same
    on both paths, and a decode → re-encode reproduces them."""
    tok = AllScalarToken(1, 2.0, True, None)
    reordered = AllScalarToken.__new__(AllScalarToken)
    reordered.__dict__ = dict(reversed(list(tok.fields().items())))
    wire = _fast_encode(reordered)
    assert wire == _pure_encode(reordered)
    assert wire != _fast_encode(tok) == _pure_encode(tok)
    for dec in (_fast_decode, _pure_decode):
        back = dec(wire)
        assert list(back.fields()) == ["tag", "flag", "value", "seq"]
        assert _pure_encode(back) == wire


def test_wrong_length_rejected_on_both_paths():
    """A message one byte long or short never decodes: the compiled
    visitor misses and the pure visitor raises the canonical error."""
    wire = _pure_encode(AllScalarToken(7, 1.5, True, None))
    for dec in (_fast_decode, _pure_decode):
        with pytest.raises(WireError, match="trailing"):
            dec(wire + b"\x00")
        with pytest.raises((WireError, struct.error, IndexError)):
            dec(wire[:-1])


def test_fast_output_is_writable_tail():
    """encode_segments documents a writable whole-message tail; the fast
    path must preserve that (gather() hands it over as-is)."""
    from repro.serial import encode_segments, gather

    segs = encode_segments(AllScalarToken(3, 4.0, False, None))
    assert len(segs) == 1 and type(segs[0]) is bytearray
    assert gather(segs) is segs[0]


def test_selection_is_compiled_or_pure():
    """``auto`` probes the compiled visitor only when it is bound; with
    no extension it is the pure visitor and nothing is counted."""
    compiled = fastpath.compiled_available()
    tok = AllScalarToken(3, 4.0, False, None)
    fastpath.take_counters()
    _fast_decode(_fast_encode(tok))
    _fast_encode(ParityToken(np.zeros(_SEGMENT_THRESHOLD, dtype=np.uint8)))
    assert fastpath.take_counters() == {
        "codec_compiled_hits": 2 if compiled else 0,
        "codec_fallbacks": 1 if compiled else 0}
    _pure_decode(_pure_encode(tok))
    assert not any(fastpath.take_counters().values())
    mode = fastpath.get_codec()
    try:
        fastpath.set_codec("auto")
        assert fastpath.codec_in_use() == ("compiled" if compiled else "pure")
        fastpath.set_codec("pure")
        assert fastpath.codec_in_use() == "pure"
    finally:
        fastpath.set_codec(mode)


# Captured at the commit before the struct-plan tier was deleted (where
# these three were plan-encoded under ``auto``): the bytes did not move.
WIRE_PINS = [
    (RingJobToken(512, 2000),
     "445053320c0052696e674a6f62546f6b656e0d020000000b00626c6f636b5f6279"
     "74657303000200000000000008006e5f626c6f636b7303d007000000000000"),
    (GolReadRequest(3, 5, 8, 8),
     "445053320e00476f6c52656164526571756573740d040000000300726f77030300"
     "0000000000000300636f6c03050000000000000006006865696768740308000000"
     "0000000005007769647468030800000000000000"),
    (StreamItemToken(seq=7, value=-3, window=8, slide=0, work=0.25),
     "445053320f0053747265616d4974656d546f6b656e0d0500000003007365710307"
     "00000000000000050076616c756503fdffffffffffffff060077696e646f770308"
     "000000000000000500736c6964650300000000000000000400776f726b04000000"
     "000000d03f"),
]


@pytest.mark.parametrize("tok,pinned", WIRE_PINS,
                         ids=[type(t).__name__ for t, _ in WIRE_PINS])
def test_workload_token_wire_pins(tok, pinned):
    for enc in (_fast_encode, _pure_encode):
        assert enc(tok).hex() == pinned
    for dec in (_fast_decode, _pure_decode):
        assert dec(bytes.fromhex(pinned)).fields() == tok.fields()

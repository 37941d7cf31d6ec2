"""Property suite pinning fast/pure codec byte-identity.

The fast paths (per-token-type plans and the optional compiled visitor,
:mod:`repro.serial.fastpath`) must be invisible on the wire: for every
payload the bytes they emit equal the pure visitor's bytes, and a
message encoded by either side decodes identically on the other.  These
tests drive both directions over arbitrary payload trees — including
the kinds the fast paths cannot handle, where the total-fallback rule
must kick in rather than diverge.

Run twice by the codec-parity CI job: once with the compiled extension
built, once without (plans only); the properties hold either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.serial import Buffer, ComplexToken, SimpleToken, Vector, decode, encode
from repro.serial import fastpath
from repro.serial.plans import PlanMiss, build_decode_plan, build_encode_plan
from repro.serial.wire import _SEGMENT_THRESHOLD


class ParityToken(ComplexToken):
    """Generic carrier for parity payloads."""

    def __init__(self, payload=None):
        self.payload = payload


class ScalarToken(SimpleToken):
    """Scalar-heavy layout (str field keeps it off the plan path)."""

    def __init__(self, seq=0, value=0.0, flag=False, note="", tag=None):
        self.seq = seq
        self.value = value
        self.flag = flag
        self.note = note
        self.tag = tag


class PlanToken(SimpleToken):
    """Fixed-width scalars only: the plan path's home turf."""

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
    """The plan-specialized layout: every scalar kind and the None/bigint
    edges (ints beyond int64 must fall back identically)."""
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


def test_plan_miss_falls_back_not_raises():
    """A built plan whose guards miss must fall back, never corrupt."""
    fastpath.warm(PlanToken())
    shifted = PlanToken(seq="now a string", value=[1, 2], tag={"k": 1})
    assert _fast_encode(shifted) == _pure_encode(shifted)


def test_plan_field_order_identity():
    """Plans embed the sample's field order; a token whose dict order
    differs must miss the plan and still produce identical bytes."""
    fastpath.warm(PlanToken())
    tok = PlanToken(1, 2.0, True, None)
    reordered = PlanToken.__new__(PlanToken)
    reordered.__dict__ = dict(reversed(list(tok.fields().items())))
    assert _fast_encode(reordered) == _pure_encode(reordered)
    assert _fast_encode(tok) == _pure_encode(tok)


def test_decode_plan_rejects_wrong_length():
    tok = PlanToken(7, 1.5, True, None)
    name = b"PlanToken"
    plan = build_decode_plan(PlanToken, name, tok.fields())
    assert plan is not None
    wire = bytes(_pure_encode(tok))
    with pytest.raises(PlanMiss):
        plan(memoryview(wire + b"\x00"))
    with pytest.raises(PlanMiss):
        plan(memoryview(wire[:-1]))


def test_encode_plan_unplannable_layouts():
    name = b"ParityToken"
    assert build_encode_plan(name, {"payload": [1, 2]}) is None
    assert build_encode_plan(name, {"payload": b"raw"}) is None
    assert build_encode_plan(name, {"payload": "strings vary"}) is None
    # all-scalar layouts plan fine
    assert build_encode_plan(name, {"a": 1, "b": 2.0, "c": None}) is not None


def test_fast_output_is_writable_tail():
    """encode_segments documents a writable whole-message tail; the fast
    paths must preserve that (gather() hands it over as-is)."""
    from repro.serial import encode_segments, gather

    fastpath.warm(PlanToken())
    segs = encode_segments(PlanToken(3, 4.0, False, None))
    assert len(segs) == 1 and type(segs[0]) is bytearray
    assert gather(segs) is segs[0]

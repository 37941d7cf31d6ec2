"""Property suite pinning fast/pure codec byte-identity.

The fast path (the optional compiled visitor ``repro.serial._wirec``,
bound by :mod:`repro.serial.wire` when it imports) must be invisible on
the wire: for every payload the bytes it emits equal the pure visitor's
bytes, and a message encoded by either side decodes identically on the
other.  These tests drive both directions over arbitrary payload trees
— including the kinds the compiled visitor cannot handle, where the
total-fallback rule must kick in rather than diverge.

Run twice by the codec CI job: once with the compiled extension built,
once without (the fast path is then the pure visitor and the parity
properties reduce to pure round trips); they hold either way.  The
hex-literal pins at the bottom hold the wire format itself still.
"""

import hashlib
import importlib.util
import struct
import sys
import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.apps.gol_service import GolReadRequest
from repro.apps.ring import RingBlockToken, RingJobToken, build_ring_graph
from repro.apps.stream_pipeline import StreamItemToken
from repro.net import protocol as P
from repro.runtime.base import DataEnvelope, GroupFrame
from repro.serial import (Buffer, ComplexToken, SimpleToken, TokenRegistry,
                          Vector, WireError, codec_in_use, decode, encode,
                          encode_segments, gather)
from repro.serial import wire as W
from repro.serial.token import TokenMeta
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


@contextmanager
def _pure():
    """Run the block on the pure visitor: unbind the compiled one."""
    bound = W._compiled_encode, W._compiled_decode
    W._compiled_encode = W._compiled_decode = None
    try:
        yield
    finally:
        W._compiled_encode, W._compiled_decode = bound


def _pure_encode(tok):
    with _pure():
        return encode(tok)


def _pure_decode(data):
    with _pure():
        return decode(data)


#: the fast path: the compiled visitor where it is bound, else the pure one
_fast_encode = encode
_fast_decode = decode


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
    """The compiled visitor binds whenever the extension is there and is
    probed only while bound; unbound, every message takes the pure
    visitor and nothing is counted."""
    compiled = importlib.util.find_spec("repro.serial._wirec") is not None
    assert codec_in_use() == ("compiled" if compiled else "pure")
    tok = AllScalarToken(3, 4.0, False, None)
    W.take_codec_counters()
    _fast_decode(_fast_encode(tok))
    _fast_encode(ParityToken(np.zeros(_SEGMENT_THRESHOLD, dtype=np.uint8)))
    assert W.take_codec_counters() == {
        "codec_compiled_hits": 2 if compiled else 0,
        "codec_fallbacks": 1 if compiled else 0}
    with _pure():
        assert codec_in_use() == "pure"
        decode(encode(tok))
    assert not any(W.take_codec_counters().values())


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


# Captured at the commit before the visitor cached field-name heads and
# dtype heads: the hot messages' bytes did not move.
def _sha(data):
    return hashlib.sha256(bytes(data)).hexdigest()


def _ring_block(nbytes, seq, n_blocks, modulus):
    payload = (np.arange(nbytes) % modulus).astype(np.uint8)
    return RingBlockToken(Buffer(payload), seq, n_blocks)


def test_ring_block_wire_pin():
    """The ring's 512 B block, the message ``ring_small`` ships."""
    tok = _ring_block(512, 7, 2000, 251)
    for enc in (_fast_encode, _pure_encode):
        assert _sha(enc(tok)) == (
            "f5b6c8df24dbcb4648c607298bd723c1d880b38aca264f9b8c217ca1e3d30d1b")
    for dec in (_fast_decode, _pure_decode):
        back = dec(_pure_encode(tok))
        assert (back.seq, back.n_blocks) == (7, 2000)
        assert np.array_equal(back.data.array, tok.data.array)


def test_segment_path_wire_pin():
    """A block at or above the scatter threshold: a borrowed segment."""
    tok = _ring_block(4096, 11, 500, 253)
    for tier in (nullcontext(), _pure()):
        with tier:
            segments = encode_segments(tok)
        assert len(segments) == 3 and type(segments[1]) is memoryview
        assert _sha(b"".join(segments)) == (
            "696e58916c0da8701e5832951a70e2a3a39726cbf8af404b9cddedf2b8a12989")


def test_2d_float64_array_wire_pin():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3) * 0.5
    pinned = ("445053320b00506172697479546f6b656e0d0100000007007061796c6f61"
              "6408033c66380202000000030000000000000000000000000000000000e0"
              "3f000000000000f03f000000000000f83f00000000000000400000000000"
              "000440")
    for enc in (_fast_encode, _pure_encode):
        assert enc(ParityToken(arr)).hex() == pinned
    for dec in (_fast_decode, _pure_decode):
        back = dec(bytes.fromhex(pinned)).payload
        assert back.shape == (2, 3) and np.array_equal(back, arr)


def test_data_message_wire_pin():
    """A whole ``MSG_DATA`` message: envelope ids, one group frame, the
    activation's origin kernel and the ring block."""
    graph = build_ring_graph(["node00", "node01", "node02", "node03"])
    frame = GroupFrame((3 << 40) + 9, 4, 0, 0, "node00", 1)
    env = DataEnvelope(_ring_block(512, 7, 2000, 251), graph, 2, 1,
                       (2 << 40) + 17, (frame,), ctx_origin="__driver__")
    for tier in (nullcontext(), _pure()):
        with tier:
            wire = gather(P.encode_data(env))
            kind, back = P.decode_message(bytearray(wire),
                                          {graph.name: graph})
        assert _sha(wire) == (
            "cb1bd8d15808c47e4612f201432225c8001a52aaeffc47b9938af48811910807")
        assert kind == P.MSG_DATA and back.graph is graph
        assert (back.node_id, back.instance, back.ctx_id, back.ctx_origin) \
            == (2, 1, (2 << 40) + 17, "__driver__")
        assert back.frames == (frame,)
        assert back.token.seq == 7
        assert np.array_equal(back.token.data.array, env.token.data.array)


_BLOCK_HEX = ("445053320e0052696e67426c6f636b546f6b656e0d030000000400646174"
              "6109037c753101080000000001020304050607030073657103030000000000"
              "000008006e5f626c6f636b73030a00000000000000")


def _small_block():
    return _ring_block(8, 3, 10, 251)


# The other six packed kinds, each captured before the control kinds
# moved to the token codec: their bytes did not move.
@pytest.mark.parametrize("message, pinned, value", [
    (lambda: P.encode_ack("ring", 2, 1, 3, (5 << 40) + 9, 4),
     "02040072696e6702000000010000000300000009000000000500000400"
     "0000", ("ring", 2, 1, 3, (5 << 40) + 9, 4)),
    (lambda: P.encode_group_total((5 << 40) + 2, 1234),
     "030200000000050000d204000000000000", ((5 << 40) + 2, 1234)),
    (lambda: P.encode_result((2 << 40) + 17, _small_block()),
     "041100000000020000" + _BLOCK_HEX, ((2 << 40) + 17, _small_block())),
    (lambda: P.encode_shm_data(4096, 65536),
     "0d001000000000000000000100", (4096, 65536)),
    (lambda: P.encode_svc_call("client-1", 42, "gol.read", _small_block()),
     "150800636c69656e742d312a000000000000000800676f6c2e72656164"
     + _BLOCK_HEX, ("client-1", 42, "gol.read", _small_block())),
    (lambda: P.encode_svc_reply(43, _small_block()),
     "162b00000000000000" + _BLOCK_HEX, (43, _small_block())),
], ids=["ack", "group_total", "result", "shm", "svc_call", "svc_reply"])
def test_packed_message_wire_pin(message, pinned, value):
    for tier in (nullcontext(), _pure()):
        with tier:
            wire = gather(message())
            kind, back = P.decode_message(bytearray(wire), {})
        assert wire.hex() == pinned
        assert kind == wire[0] and back == value


# ---------------------------------------------------------------------------
# the visitor's per-type caches: what a hit must not skip
# ---------------------------------------------------------------------------

def test_object_dtype_rejected_after_plain_dtype_with_same_str():
    plain = np.zeros(2, dtype=[("a", "i8"), ("b", "i8")])
    boxed = np.zeros(2, dtype=[("a", "O"), ("b", "i8")])
    assert plain.dtype.str == boxed.dtype.str == "|V16"
    for enc in (_fast_encode, _pure_encode):
        enc(ParityToken(plain))
        enc(ParityToken([Buffer(plain)]))
        for payload in (boxed, Buffer(boxed), [boxed], [Buffer(boxed)]):
            with pytest.raises(WireError, match="object-dtype"):
                enc(ParityToken(payload))


class LookAlikeKey:
    """Hashes and compares like the field name ``"seq"``."""

    def __hash__(self):
        return hash("seq")

    def __eq__(self, other):
        return other == "seq"


def test_lookalike_key_rejected_after_cached_field_name():
    for enc in (_fast_encode, _pure_encode):
        enc(ParityToken({"seq": 1}))
        with pytest.raises(WireError, match="dict keys must be str"):
            enc(ParityToken({LookAlikeKey(): 1}))


def test_every_cache_stays_at_or_below_its_cap(pure_visitor):
    """10 000 messages, each with a new token name, field name and array
    dtype: every cache was filled past its cap and holds no more than
    it."""
    caches = {
        "field-name heads": W._KEY_HEADS,
        "dtype heads": W._DTYPE_HEADS,
        "wire dtypes": W._DTYPE_CACHE,
        "message heads": W._MESSAGE_HEADS,
    }
    seen = dict.fromkeys(caches, 0)
    reg = TokenRegistry()
    for i in range(10_000):
        cls = TokenMeta(f"CacheProbe{i}", (ComplexToken,), {},
                        register=False)
        reg.register(cls)
        tok = cls()
        setattr(tok, f"field{i}", np.zeros((0, i + 1), f"V{i + 1}"))
        back = decode(encode(tok, reg), reg)
        assert getattr(back, f"field{i}").dtype == np.dtype(f"V{i + 1}")
        assert getattr(back, f"field{i}").shape == (0, i + 1)
        for name, cache in caches.items():
            seen[name] = max(seen[name], len(cache))
    for name, cache in caches.items():
        assert seen[name] == W._CACHE_CAP, name
        assert len(cache) <= W._CACHE_CAP, name


def test_caches_shared_by_threads_keep_round_trips_exact(pure_visitor):
    """Threads encoding and decoding new names and dtypes at once, with a
    short switch interval: every message round-trips exactly, and racing
    misses overshoot a cache's cap by at most one entry per thread."""
    threads, per_thread = 4, 3 * W._CACHE_CAP // 4
    failures = []

    def work(t):
        try:
            for i in range(per_thread):
                name = f"t{t}-{i}"
                arr = np.full((1, i % 5 + 1), name.encode(),
                              f"S{t * per_thread + i + 1}")
                back = decode(encode(ParityToken({name: arr, "i": i})))
                if back.payload["i"] != i \
                        or not np.array_equal(back.payload[name], arr):
                    failures.append(name)
        except Exception as exc:  # reported below, not lost in the thread
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,))
                   for t in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
    for cache in (W._KEY_HEADS, W._DTYPE_HEADS, W._DTYPE_CACHE):
        assert len(cache) <= W._CACHE_CAP + threads


def test_array_lengths_vary_under_one_cached_dtype():
    """The dtype head is cached, the dims are not: records of one dtype
    whose count changes from message to message round-trip each with its
    own shape, 1-D and 2-D."""
    for enc, dec in ((_fast_encode, _fast_decode),
                     (_pure_encode, _pure_decode)):
        for n in (3, 0, 7, 3, 1):
            for arr in (np.arange(2 * n, dtype=np.int32).reshape(n, 2),
                        np.arange(n, dtype=np.int32)):
                back = dec(enc(ParityToken(Buffer(arr)))).payload.array
                assert back.shape == arr.shape
                assert np.array_equal(back, arr)


def test_truncated_array_payload_raises_as_before_first_and_cached():
    """A payload cut short raises ``ValueError`` (the slice read's
    error) whether its dtype is parsed now or looked up, 2-D or 1-D (a
    1-D array skips the reshape only when its length is whole)."""
    for shape in ((3, 7), (21,)):
        wire = _pure_encode(
            ParityToken(np.arange(21, dtype=np.float64).reshape(shape)))
        at = wire.index(b"<f8") - 1
        dims = 4 * len(shape)
        header = wire[at:at + 1 + 3 + 1 + dims]
        huge = header[:-dims] + b"\xff" * dims  # every dim 2**32 - 1
        for damaged in (wire[:-3], wire[:-8], wire[:at] + huge + wire[-5:]):
            for dec in (_fast_decode, _pure_decode):
                W._DTYPE_CACHE.clear()
                for sight in ("first", "cached"):
                    with pytest.raises(ValueError) as caught:
                        dec(damaged)
                    assert type(caught.value) is ValueError, (shape, sight)
                assert len(W._DTYPE_CACHE) == 1


def test_damaged_dtype_headers_read_as_before():
    """A damaged header can name a sub-array dtype (``4f2``), whose dims
    fold into the declared shape, or a zero itemsize (``|V,``), which
    cannot be counted: both read as they always have."""
    def message(dtype, dim, payload):
        body = (b"\x08" + bytes([len(dtype)]) + dtype + b"\x01"
                + struct.pack("<I", dim) + payload)
        name = b"ParityToken"
        return (b"DPS2" + struct.pack("<H", len(name)) + name + b"\x0d"
                + struct.pack("<I", 1) + struct.pack("<H", 7) + b"payload"
                + body)
    for dec in (_fast_decode, _pure_decode):
        assert dec(message(b"4f2", 0, b"")).payload.shape == (0,)
        with pytest.raises(ValueError):
            dec(message(b"4f2", 2, bytes(16)))
        with pytest.raises(ValueError, match="itemsize is 0"):
            dec(message(b"|V,", 2, b""))

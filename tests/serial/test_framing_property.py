"""Property-based tests for the length-prefixed frame layer.

``frame()``/``unframe()`` sit between the token wire format and the
socket: every payload — single buffer or scatter-gather segment list —
must round-trip bit-exactly through the header, and corrupted headers
must be rejected rather than misparsed.

The batched transport extensions get the same treatment: arbitrary
interleavings of tiny and huge frames must round-trip through
``send_messages()`` + ``FrameReader`` identically to frames sent one at
a time (the wire format is shared, so batched and unbatched endpoints
interoperate).
"""

import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import FrameReader, send_messages
from repro.serial import (
    FRAME_HEADER_BYTES,
    FRAME_VERSION,
    WireError,
    frame,
    gather,
    unframe,
)


def roundtrip(payload):
    segments = frame(payload)
    wire = gather(segments)
    return bytes(unframe(wire))


@given(st.binary(max_size=4096))
def test_frame_roundtrip_single_buffer(payload):
    assert roundtrip(payload) == payload


@given(st.lists(st.binary(max_size=256), max_size=16))
def test_frame_roundtrip_segment_list(segments):
    expected = b"".join(segments)
    assert roundtrip([bytearray(s) for s in segments]) == expected


@given(st.lists(st.binary(min_size=1, max_size=64), min_size=1, max_size=8))
def test_frame_never_coalesces_segments(segments):
    out = frame([bytearray(s) for s in segments])
    # one header segment prepended; payload segments pass through untouched
    assert len(out) == 1 + len(segments)
    assert bytes(out[0])[:FRAME_HEADER_BYTES] == out[0]
    for original, framed in zip(segments, out[1:]):
        assert bytes(framed) == original


@given(st.binary(max_size=1024))
def test_frame_header_length_and_version(payload):
    head = bytes(frame(payload)[0])
    assert len(head) == FRAME_HEADER_BYTES
    length, version = struct.unpack("<IB", head)
    assert length == len(payload)
    assert version == FRAME_VERSION


@given(st.binary(max_size=256),
       st.integers(min_value=0, max_value=255).filter(
           lambda v: v != FRAME_VERSION))
def test_unframe_rejects_wrong_version(payload, version):
    wire = bytearray(gather(frame(payload)))
    wire[4] = version
    with pytest.raises(WireError, match="version"):
        unframe(wire)


@given(st.binary(min_size=1, max_size=256))
def test_unframe_rejects_truncated_payload(payload):
    wire = gather(frame(payload))
    with pytest.raises(WireError):
        unframe(memoryview(wire)[:len(wire) - 1])


@given(st.binary(max_size=256), st.binary(min_size=1, max_size=16))
def test_unframe_rejects_trailing_garbage(payload, extra):
    wire = bytes(gather(frame(payload))) + extra
    with pytest.raises(WireError):
        unframe(wire)


def test_unframe_rejects_short_header():
    with pytest.raises(WireError):
        unframe(b"\x00\x00")


def test_unframe_is_zero_copy():
    wire = gather(frame(b"payload-bytes"))
    view = unframe(wire)
    assert isinstance(view, memoryview)
    assert view.obj is wire


# ---------------------------------------------------------------------------
# batched transport: send_messages() + FrameReader
# ---------------------------------------------------------------------------

# Interleavings of tiny frames (coalesced many-per-syscall) and huge ones
# (exceeding the reader's staging buffer, taking the direct recv path).
_segment = st.one_of(
    st.binary(max_size=64),
    st.binary(min_size=1024, max_size=4096),
)
_messages = st.lists(
    st.lists(_segment, max_size=3), min_size=1, max_size=8)
_big = settings(deadline=None, max_examples=40,
                suppress_health_check=[HealthCheck.data_too_large])


def _exchange(messages, send_all, recv_bytes=512):
    """Run *send_all* against a FrameReader over a socketpair; returns
    every received payload (the sender runs on its own thread so large
    bursts cannot deadlock on the socket buffer)."""
    out_sock, in_sock = socket.socketpair()
    failure = []

    def sender():
        try:
            send_all(out_sock)
        except Exception as exc:  # pragma: no cover - surfaced in assert
            failure.append(exc)
        finally:
            out_sock.close()

    thread = threading.Thread(target=sender)
    thread.start()
    try:
        reader = FrameReader(in_sock, recv_bytes=recv_bytes)
        received = []
        while True:
            batch = reader.recv_batch()
            if batch is None:
                break
            assert len(batch) >= 1
            received.extend(batch)
    finally:
        thread.join()
        in_sock.close()
    assert not failure, failure[0]
    return received


@_big
@given(_messages, st.integers(min_value=64, max_value=1 << 16))
def test_send_messages_framereader_roundtrip(messages, max_batch_bytes):
    """Batched sender → batch-aware reader: payloads, order and frame
    boundaries all survive arbitrary tiny/huge interleavings."""
    payloads = [[bytearray(s) for s in message] for message in messages]
    received = _exchange(
        payloads,
        lambda sock: send_messages(sock, payloads,
                                   max_batch_bytes=max_batch_bytes))
    assert [bytes(r) for r in received] == \
        [b"".join(message) for message in messages]
    for r in received:
        assert isinstance(r, bytearray)  # owned, decode(copy=False) safe


@_big
@given(_messages)
def test_send_messages_bytes_identical_to_frame_at_a_time(messages):
    """The batched sender's wire bytes are bit-identical to sending one
    framed payload at a time — receivers cannot tell them apart."""
    expected = b"".join(
        bytes(gather(frame([bytearray(s) for s in message])))
        for message in messages)
    out_sock, in_sock = socket.socketpair()
    payloads = [[bytearray(s) for s in message] for message in messages]

    def sender():
        total, syscalls = send_messages(out_sock, payloads,
                                        max_batch_bytes=4096)
        assert total == len(expected)
        assert syscalls >= 1
        out_sock.close()

    thread = threading.Thread(target=sender)
    thread.start()
    try:
        got = bytearray()
        while True:
            chunk = in_sock.recv(1 << 16)
            if not chunk:
                break
            got += chunk
    finally:
        thread.join()
        in_sock.close()
    assert bytes(got) == expected


@_big
@given(_messages)
def test_framereader_interops_with_unbatched_sender(messages):
    """A frame-at-a-time sender against the batch-aware reader."""
    payloads = [[bytearray(s) for s in message] for message in messages]

    def send_all(sock):
        for payload in payloads:
            sock.sendall(gather(frame(payload)))

    received = _exchange(payloads, send_all)
    assert [bytes(r) for r in received] == \
        [b"".join(message) for message in messages]


def test_framereader_rejects_wrong_version():
    out_sock, in_sock = socket.socketpair()
    wire = bytearray(gather(frame(b"x" * 8)))
    wire[4] ^= 0xFF
    out_sock.sendall(wire)
    out_sock.close()
    reader = FrameReader(in_sock)
    with pytest.raises(WireError, match="version"):
        reader.recv_batch()
    in_sock.close()


def test_framereader_rejects_eof_mid_frame():
    out_sock, in_sock = socket.socketpair()
    wire = bytes(gather(frame(b"y" * 100)))
    out_sock.sendall(wire[:-3])  # die mid-payload
    out_sock.close()
    reader = FrameReader(in_sock)
    with pytest.raises(WireError, match="closed"):
        reader.recv_batch()
    in_sock.close()


def test_framereader_large_frame_direct_path():
    """A frame bigger than the staging buffer arrives intact through the
    direct recv_into path."""
    payload = bytes(range(256)) * 1024  # 256 KiB >> recv_bytes
    received = _exchange(
        [payload], lambda sock: send_messages(sock, [payload]),
        recv_bytes=1024)
    assert len(received) == 1
    assert bytes(received[0]) == payload

"""Shared-memory lane: arena allocator, one-block descriptor, borrowing.

Everything here exercises a sender/receiver *pair inside one process* —
the memory model (flag byte handshake, release on last reference) is
identical across processes because both sides map the same pages; the
cross-process path is covered by ``test_shm_ring.py``, the multiprocess
smoke and the cross-engine integration tests.
"""

import os
import queue
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.ring import RingBlockToken, build_ring_graph
from repro.net import (
    DistributedKernel,
    NameServer,
    ShmReceiver,
    ShmSender,
    host_fingerprint,
)
from repro.net import protocol as P
from repro.net.kernel import _ConnState
from repro.runtime.base import DataEnvelope
from repro.serial import Buffer, WireError, gather
from repro.trace import MetricsRegistry


def _pair(arena_bytes=1 << 16, threshold=256, metrics=None):
    sender = ShmSender(arena_bytes=arena_bytes, threshold=threshold,
                       metrics=metrics)
    receiver = ShmReceiver(sender.name, sender.size)
    return sender, receiver


@pytest.fixture
def lane():
    sender, receiver = _pair()
    yield sender, receiver
    receiver.close()
    sender.destroy()


def _place(sender, payload):
    return sender.place([memoryview(payload)])


def _mapped(name):
    with open("/proc/self/maps") as fh:
        return name in fh.read()


def test_host_fingerprint_stable_and_nonempty():
    fp = host_fingerprint()
    assert fp and fp == host_fingerprint()
    assert ":" in fp  # hostname:boot_id


def test_place_and_reassemble_roundtrip(lane):
    """Several segments land end to end in one block, and the receiver
    reads the message back in place — a view of the arena, not a copy."""
    sender, receiver = lane
    head, payload = b"\x01head", bytes(range(256)) * 4
    placed = sender.place([memoryview(head), memoryview(payload)])
    assert placed == (0, len(head) + len(payload))
    view = receiver.borrow(*placed)
    assert bytes(view) == head + payload
    sender._buf[1] = 0x7F  # the same pages: no copy was taken
    assert view[0] == 0x7F


def test_reassemble_clears_flag_and_sender_reclaims(lane):
    """The block goes back when the *last* reference into it dies."""
    sender, receiver = lane
    block, n = _place(sender, b"x" * 512)
    view = receiver.borrow(block, n)
    array = np.frombuffer(view[8:16], dtype=np.uint8)  # as decode() does
    del view
    assert sender._buf[block] == 1  # the array still holds the block
    assert _place(sender, b"y" * 512)[0] != block
    del array
    assert sender._buf[block] == 0
    assert _place(sender, b"z" * 512)[0] == block  # first gap: reused


def test_arena_full_returns_none_until_consumed(lane):
    sender, receiver = lane
    blocks = []
    while True:
        placed = _place(sender, b"y" * 4096)
        if placed is None:
            break
        blocks.append(placed)
    assert len(blocks) >= 2
    # One release anywhere is room for one more block of that size.
    receiver.borrow(*blocks[len(blocks) // 2])
    assert _place(sender, b"z" * 4096) == blocks[len(blocks) // 2]
    assert _place(sender, b"z" * 4096) is None


def test_ring_wraps_without_corrupting_in_flight_blocks(lane):
    sender, receiver = lane
    rng = random.Random(7)
    outstanding = []
    placed_bytes = 0

    def drain_oldest():
        block, expect = outstanding.pop(0)
        assert bytes(receiver.borrow(*block)) == expect

    for _ in range(200):
        payload = bytes([rng.randrange(256)]) * rng.randrange(300, 3000)
        placed = _place(sender, payload)
        while placed is None:
            drain_oldest()
            placed = _place(sender, payload)
        placed_bytes += len(payload)
        outstanding.append((placed, payload))
        while len(outstanding) > 3:
            drain_oldest()
    while outstanding:
        drain_oldest()
    assert placed_bytes > 4 * sender.size  # the space was reused


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocks_survive_arbitrary_release_order(data):
    """Live blocks never overlap, each reads back byte-identical until
    it is released — in any order — and a block somebody keeps costs
    the arena its own bytes only."""
    sender, receiver = _pair(arena_bytes=1 << 14)
    live = {}  # block offset -> (borrowed view, expected bytes)
    try:
        for step in range(data.draw(st.integers(1, 40))):
            if live and data.draw(st.booleans()):
                block = data.draw(st.sampled_from(sorted(live)))
                view, expect = live.pop(block)
                assert bytes(view) == expect
                del view
                assert sender._buf[block] == 0
                continue
            size = data.draw(st.integers(1, 6000))
            payload = bytes([step % 251 + 1]) * size
            spans = sorted((b, b + 1 + len(e)) for b, (_, e) in live.items())
            gaps = [start - end for (_, end), (start, _) in
                    zip([(0, 0)] + spans, spans + [(sender.size, 0)])]
            placed = _place(sender, payload)
            # No holder stops an allocation that fits beside it.
            assert (placed is not None) == (max(gaps) >= size + 1)
            if placed is None:
                continue
            block, n = placed
            assert n == size
            assert all(block + 1 + n <= start or end <= block
                       for start, end in spans)
            live[block] = (receiver.borrow(block, n), payload)
        for view, expect in live.values():
            assert bytes(view) == expect
    finally:
        live.clear()
        receiver.close()
        sender.destroy()


def test_release_from_other_threads_never_lets_a_live_block_be_reused():
    """Blocks are borrowed on the I/O loop and released by whichever
    worker thread drops the token last; a flag cleared early, or lost,
    shows as a wrong byte or as an arena that stays full."""
    sender, receiver = _pair(arena_bytes=1 << 15)
    handoff = queue.SimpleQueue()
    wrong = []

    def worker():
        while True:
            item = handoff.get()
            if item is None:
                return
            view, fill = item
            time.sleep(0)  # let the allocator run against a held block
            if bytes(view) != bytes([fill]) * view.nbytes:
                wrong.append(fill)
            del item, view  # or the blocked get() above keeps the block

    workers = [threading.Thread(target=worker) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in workers:
            thread.start()
        rng = random.Random(11)
        deadline = time.monotonic() + 20
        for step in range(3000):
            fill = step % 255 + 1
            payload = bytes([fill]) * rng.randrange(500, 5000)
            placed = _place(sender, payload)
            while placed is None:  # full: workers are still holding
                assert time.monotonic() < deadline, "blocks never came back"
                time.sleep(0)
                placed = _place(sender, payload)
            handoff.put((receiver.borrow(*placed), fill))
    finally:
        for _ in workers:
            handoff.put(None)
        for thread in workers:
            thread.join(timeout=20)
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in workers)
        assert not wrong
        assert _place(sender, b"e" * (sender.size - 1)) is not None  # empty
    finally:
        receiver.close()
        sender.destroy()


def test_rewrite_below_threshold_is_identity(lane):
    sender, _ = lane
    segments = [bytearray(b"abc"), memoryview(b"d" * 255)]
    assert sender.rewrite(segments) is segments


def test_rewrite_roundtrip_through_codec(lane):
    """A data message with one large segment becomes one descriptor for
    one block holding header and payload; decoding the borrowed block
    yields a token whose array aliases the arena until it dies."""
    sender, receiver = lane
    graph = build_ring_graph(["a", "b"])
    data = np.arange(3000, dtype=np.uint16)
    env = DataEnvelope(RingBlockToken(Buffer(data), 3, 9), graph, 1, 0, 77, ())
    message = P.encode_data(env)
    nbytes = sum(memoryview(seg).nbytes for seg in message)
    segs = sender.rewrite(message)
    assert len(segs) == 1  # nothing rides inline beside the descriptor
    kind, (block, length) = P.decode_message(bytearray(gather(segs)), {})
    assert (kind, block, length) == (P.MSG_SHM, 0, nbytes)
    kind, out = P.decode_message(receiver.borrow(block, length),
                                 {"ring": graph})
    assert kind == P.MSG_DATA
    assert (out.node_id, out.ctx_id, out.token.seq) == (1, 77, 3)
    array = out.token.data.array
    assert array.dtype == np.uint16 and np.array_equal(array, data)
    del out
    assert sender._buf[block] == 1  # the decoded array is the borrower
    marked = b"\xef\xbe\x01\x00\x02\x00"
    assert marked not in bytes(sender._buf[block:block + 1 + length])
    array[0] = 0xBEEF  # writable, and it writes the arena itself
    assert marked in bytes(sender._buf[block:block + 1 + length])
    del array
    assert sender._buf[block] == 0


def test_rewrite_falls_back_inline_when_arena_full():
    sender, receiver = _pair(arena_bytes=4096)
    try:
        big = b"q" * 2048
        first = sender.rewrite([bytearray(big)])
        kind, placed = P.decode_message(bytearray(gather(first)), {})
        assert kind == P.MSG_SHM
        # Arena now too full for a 4 KiB message: it must still be
        # delivered, inline over TCP.
        overflow = [bytearray(big), bytearray(big)]
        assert sender.rewrite(overflow) is overflow
        assert bytes(receiver.borrow(*placed)) == big
    finally:
        receiver.close()
        sender.destroy()


def test_rewrite_counts_bypassed_bytes():
    metrics = MetricsRegistry()
    sender, receiver = _pair(metrics=metrics)
    try:
        sender.rewrite([bytearray(b"w" * 1000), bytearray(b"t" * 10)])
        # The whole message bypasses TCP, small segments included.
        assert metrics.counter("shm_bytes_bypassed").value == 1010
    finally:
        receiver.close()
        sender.destroy()


def test_receiver_rejects_undersized_arena():
    # No receiver of its own first: that would have unlinked the name.
    sender = ShmSender(arena_bytes=1 << 16, threshold=256)
    try:
        with pytest.raises(ValueError, match="smaller than announced"):
            ShmReceiver(sender.name, sender.size + (1 << 20))
    finally:
        sender.destroy()


def test_receiver_unlinks_the_name_it_maps(lane):
    """The name is gone once the receiver has the arena mapped; the
    mapping still shares the sender's pages, and destroy() tolerates
    the missing name."""
    sender, receiver = lane
    assert not os.path.exists(f"/dev/shm/{sender.name}")
    placed = _place(sender, b"still shared")
    assert bytes(receiver.borrow(*placed)) == b"still shared"


@pytest.mark.parametrize("block, length", [
    (1 << 16, 10),          # starts past the end
    ((1 << 16) - 8, 64),    # overlaps the end
    (0, 1 << 16),           # one byte too long: the state byte counts
    (0, 0),                 # no message at all
])
def test_borrow_rejects_descriptor_outside_arena(lane, block, length):
    _, receiver = lane
    with pytest.raises(WireError, match="outside the"):
        receiver.borrow(block, length)


def test_borrow_rejects_unpublished_block(lane):
    sender, receiver = lane
    block, n = _place(sender, b"p" * 600)
    with pytest.raises(WireError, match="not published"):
        receiver.borrow(block + 1 + n, 16)  # never placed: flag 0
    receiver.borrow(block, n)  # borrowed and dropped: flag back to 0
    with pytest.raises(WireError, match="not published"):
        receiver.borrow(block, n)  # a replayed descriptor
    sender._buf[block] = 2
    with pytest.raises(WireError, match="not published"):
        receiver.borrow(block, n)


def test_close_with_live_borrow_unmaps_on_last_release(capfd):
    """close() (connection gone, kernel shutting down) must neither
    unmap under a block still in use nor leave the mapping to a
    destructor that cannot close it."""
    sender, receiver = _pair()
    name = sender.name
    payload = bytes(range(256)) * 3
    view = receiver.borrow(*_place(sender, payload))
    receiver.close()
    sender.destroy()  # the name is gone; the receiver's mapping is not
    assert _mapped(name)
    assert bytes(view) == payload
    del view
    assert not _mapped(name)
    out, err = capfd.readouterr()
    assert not out and not err


def test_kernel_keeps_a_token_across_connection_close(capfd):
    """The kernel's receive path end to end: attach, decode in place,
    lose the connection with the token still held by an operation."""
    graph = build_ring_graph(["a", "b"])
    data = np.arange(4000, dtype=np.uint8)
    env = DataEnvelope(RingBlockToken(Buffer(data), 5, 9), graph, 1, 0, 7, ())
    sender = ShmSender(arena_bytes=1 << 16, threshold=256)
    name = sender.name
    with NameServer() as ns:
        kernel = DistributedKernel("b", 1, ns.address, ["a"])
        try:
            kernel.register_graph(graph)
            held = []
            kernel._dispatch_message = lambda kind, value: held.append(value)
            state = _ConnState()
            kernel._process_frames(state, [
                bytearray(gather(P.encode_control(
                    P.MSG_SHM_ATTACH, name, sender.size))),
                bytearray(gather(sender.rewrite(P.encode_data(env))))])
            with pytest.raises(WireError, match="not published"):
                kernel._process_frames(state, [bytearray(gather(
                    P.encode_shm_data(1 << 15, 64)))])
            kernel._on_conn_close(state, None)
            sender.destroy()
            assert _mapped(name)
            assert np.array_equal(held[0].token.data.array, data)
            held.clear()
            assert not _mapped(name)
        finally:
            kernel.shutdown()
    out, err = capfd.readouterr()
    assert not out and not err


def test_reclaim_all_recovers_slots_leaked_by_dead_peer():
    """A peer that dies never clears the flags of the blocks it held or
    was never told about.  reclaim_all (called at connection teardown)
    must restore the full arena."""
    sender, receiver = _pair(arena_bytes=1 << 14)
    try:
        # Descriptors "sent" but the peer dies before consuming them.
        leaked = [_place(sender, b"L" * 4096) for _ in range(3)]
        assert all(p is not None for p in leaked)
        assert _place(sender, b"f" * 8192) is None
        assert len(sender._live) == 3  # nothing was released

        sender.reclaim_all()
        assert not sender._live
        # Full capacity is back: the large block fits again.
        placed = _place(sender, b"f" * 8192)
        assert placed is not None
        assert bytes(receiver.borrow(*placed)) == b"f" * 8192
    finally:
        receiver.close()
        sender.destroy()

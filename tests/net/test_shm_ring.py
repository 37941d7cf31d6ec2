"""The shm lane across real kernel processes, with content that can tell.

The Fig. 6 ring ships blocks of zeros, so a block read after its arena
space was reused looks exactly like one read before.  Here every block
carries bytes derived from its sequence number, the arenas are small
enough to be reused dozens of times per run, and the sink checks every
byte — once as blocks arrive, and once after holding the whole group
(every block it keeps stays borrowed from the last hop's arena while
the other hops keep reusing theirs).
"""

import os
import zlib

import numpy as np
import pytest

from repro import MetricsRegistry, MultiprocessEngine
from repro.apps.ring import RingBlockToken, RingForward, RingThread
from repro.core import (
    ConstantRoute,
    Flowgraph,
    FlowgraphNode,
    MergeOperation,
    SplitOperation,
    ThreadCollection,
)
from repro.net import TransportPolicy
from repro.net.recovery import FaultPolicy
from repro.serial import Buffer, SimpleToken

NODES = ["node01", "node02", "node03", "node04"]
BLOCK_BYTES = 8192
N_BLOCKS = 400
ARENA_BYTES = 1 << 16  # seven blocks: the window alone overflows it
LANE = TransportPolicy(shm_threshold=1024, shm_arena_bytes=ARENA_BYTES)
_M61 = (1 << 61) - 1


def pattern(seq: int, nbytes: int) -> np.ndarray:
    """Block *seq*'s payload: no two blocks of a run share a prefix."""
    idx = np.arange(nbytes, dtype=np.uint32)
    return ((idx * (2 * seq + 1) + seq * 97) >> 3).astype(np.uint8)


class PatternJob(SimpleToken):
    def __init__(self, block_bytes: int = 0, n_blocks: int = 0):
        self.block_bytes = block_bytes
        self.n_blocks = n_blocks


class PatternDone(SimpleToken):
    def __init__(self, blocks: int = 0, bad: int = 0, digest: int = 0):
        self.blocks = blocks
        self.bad = bad
        #: order-independent, so a replayed run can be compared
        self.digest = digest


class PatternSource(SplitOperation):
    thread_type = RingThread
    in_types = (PatternJob,)
    out_types = (RingBlockToken,)

    def execute(self, tok: PatternJob):
        for seq in range(tok.n_blocks):
            self.post(RingBlockToken(
                Buffer(pattern(seq, tok.block_bytes)), seq, tok.n_blocks))


def _check(tok: RingBlockToken):
    """``(wrong, digest term)`` of one block as it reads right now."""
    got = tok.data.array
    return (not np.array_equal(got, pattern(tok.seq, got.size)),
            (tok.seq + 1) * zlib.crc32(got))


def _summary(tokens) -> PatternDone:
    checks = [_check(tok) for tok in tokens]
    return PatternDone(len(checks), sum(wrong for wrong, _ in checks),
                       sum(term for _, term in checks) % _M61)


class VerifySink(MergeOperation):
    """Check each block the moment it arrives, then let it go."""

    thread_type = RingThread
    in_types = (RingBlockToken,)
    out_types = (PatternDone,)

    def execute(self, tok: RingBlockToken):
        blocks = bad = digest = 0
        while tok is not None:
            wrong, term = _check(tok)
            blocks += 1
            bad += wrong
            digest = (digest + term) % _M61
            tok = yield self.next_token()
        yield self.post(PatternDone(blocks, bad, digest))


class HoldSink(MergeOperation):
    """Keep every block of the group until it closes, then check all."""

    thread_type = RingThread
    in_types = (RingBlockToken,)
    out_types = (PatternDone,)

    def execute(self, tok: RingBlockToken):
        held = []
        while tok is not None:
            held.append(tok)
            tok = yield self.next_token()
        yield self.post(_summary(held))


def build_pattern_ring(sink, name: str) -> Flowgraph:
    head = ThreadCollection(RingThread, f"{name}-head").map(NODES[0])
    builder = FlowgraphNode(PatternSource, head, ConstantRoute).as_builder()
    for i, node in enumerate(NODES[1:], start=1):
        hop = ThreadCollection(RingThread, f"{name}-hop{i}").map(node)
        builder = builder >> FlowgraphNode(RingForward, hop, ConstantRoute)
    return Flowgraph(builder >> FlowgraphNode(sink, head, ConstantRoute),
                     name)


def _result(done: PatternDone):
    return done.blocks, done.bad, done.digest


def run_pattern_ring(sink=VerifySink, transport=LANE, metrics=None, **engine):
    graph = build_pattern_ring(sink, f"pattern-{sink.__name__}")
    with MultiprocessEngine(transport=transport, metrics=metrics,
                            **engine) as eng:
        eng.register_graph(graph)
        done = eng.run(graph, PatternJob(BLOCK_BYTES, N_BLOCKS), timeout=120)
        return _result(done), eng.last_result


EXPECTED = _result(_summary(
    RingBlockToken(Buffer(pattern(seq, BLOCK_BYTES)), seq)
    for seq in range(N_BLOCKS)))


@pytest.mark.parametrize("sink, lane_hops", [(VerifySink, 4), (HoldSink, 3)])
def test_patterned_ring_identical_with_lane_on_and_off(sink, lane_hops):
    """Every block arrives byte-exact while each arena is reused at
    least twenty times over, and the result is the one TCP alone gives.
    ``HoldSink`` pins the last hop's arena full, so that hop falls back
    to inline TCP and only the other three keep reusing theirs."""
    metrics = MetricsRegistry()
    with_lane, _ = run_pattern_ring(sink, metrics=metrics)
    without, _ = run_pattern_ring(sink, TransportPolicy(shm_enabled=False))
    assert with_lane == without == EXPECTED
    bypassed = metrics.counter("shm_bytes_bypassed").value
    assert bypassed >= 20 * lane_hops * ARENA_BYTES, bypassed


def _arenas():
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except OSError:  # pragma: no cover - no /dev/shm: nothing to leak
        return set()


def test_patterned_ring_survives_kernel_kill_on_the_lane():
    """node03 dies holding borrowed blocks of node02's arena and with
    blocks of its own arena out at node04; replay refills the ring and
    the sink sees every block once, byte-exact.  The killed kernel
    never destroys its arenas, yet none is left once the engine is
    down: each receiver unlinked its name when it mapped it."""
    before = _arenas()
    faults = FaultPolicy(kill_kernel="node03", kill_after_messages=150)
    done, result = run_pattern_ring(recover=True, faults=faults)
    assert result.recovered is True and result.replayed_tokens > 0
    assert done == EXPECTED
    assert _arenas() - before == set()

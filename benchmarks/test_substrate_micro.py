"""Micro-benchmarks of the substrates (real wall-clock performance).

These guard the usability of the reproduction itself: wire-format
throughput, simulation-kernel event rate, and end-to-end engine token
rate.  Each test also asserts a hard wall-clock ceiling (~10x the
measured post-optimization times on a developer laptop) so a gross
regression fails CI outright; the benchmark table is the finer signal.
"""

import numpy as np

from repro.apps.strings import StringToken, build_uppercase_graph
from repro.cluster import paper_cluster
from repro.net import ConnectionPool, IOLoop
from repro.runtime import SimEngine
from repro.serial import Buffer, ComplexToken, decode, encode
from repro.simkernel import Simulator

# Hard ceilings in seconds on the *best* observed round.  Post-optimization
# best times are ~0.8 ms / 15 ms / 10 ms / 50 ms respectively; 10-20x slack
# absorbs slow shared CI machines while still catching order-of-magnitude
# regressions (e.g. the wire path silently falling back to per-field copies).
CEILING_WIRE_1MB = 0.020
CEILING_SMALL_BURST = 0.300
CEILING_EVENT_RATE = 0.150
CEILING_ENGINE_RATE = 0.800
CEILING_POOL_SEND_BURST = 0.100


def _best_seconds(benchmark):
    stats = getattr(benchmark, "stats", None)
    if stats is None:  # --benchmark-disable: nothing was timed
        return 0.0
    return stats.stats.min


class MicroToken(ComplexToken):
    def __init__(self, payload=None, seq=0):
        self.payload = Buffer(payload if payload is not None else [])
        self.seq = seq


def test_wire_encode_decode_throughput(benchmark):
    """Round-trip a 1 MB numpy payload through the wire format."""
    tok = MicroToken(np.random.default_rng(0).random(131_072), 7)  # 1 MiB

    def roundtrip():
        return decode(encode(tok))

    out = benchmark(roundtrip)
    assert out.seq == 7
    assert np.array_equal(out.payload.array, tok.payload.array)
    assert _best_seconds(benchmark) < CEILING_WIRE_1MB


def test_wire_small_token_rate(benchmark):
    """Encode+decode of small control-sized tokens."""
    tok = MicroToken(np.arange(4, dtype=np.int64), 1)

    def burst():
        for _ in range(1000):
            decode(encode(tok))

    benchmark(burst)
    assert _best_seconds(benchmark) < CEILING_SMALL_BURST


def test_simkernel_event_rate(benchmark):
    """Raw event throughput of the discrete-event kernel."""

    def run_events():
        sim = Simulator()

        def ping(sim, n):
            for _ in range(n):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.spawn(ping(sim, 1000))
        sim.run()
        return sim.now

    now = benchmark(run_events)
    assert now == 1000.0
    assert _best_seconds(benchmark) < CEILING_EVENT_RATE


def test_engine_token_rate(benchmark):
    """End-to-end schedule throughput: tokens through split>>leaf>>merge."""

    def run_schedule():
        engine = SimEngine(paper_cluster(3))
        graph, *_ = build_uppercase_graph("node01", "node02 node03")
        result = engine.run(graph, StringToken("a" * 300))
        return result.token.text

    text = benchmark.pedantic(run_schedule, rounds=3, iterations=1)
    assert text == "A" * 300
    assert _best_seconds(benchmark) < CEILING_ENGINE_RATE


def test_pool_send_hot_path_rate(benchmark):
    """``ConnectionPool.send`` to an already-dialed peer: a lock-free dict
    probe plus an outbox append.  PR 2 paid a lock acquire/release per
    token here; this pins the fixed cost down."""

    class NullConn:
        sent = 0

        def send(self, segments):
            NullConn.sent += 1

        def close(self, flush_timeout=5.0):
            pass

    loop = IOLoop("bench").start()
    pool = ConnectionPool(None, loop=loop,
                          on_error=lambda peer, exc: None)
    pool._peers["peer"] = NullConn()
    payload = [bytearray(b"x" * 64)]

    def burst():
        send = pool.send
        for _ in range(10_000):
            send("peer", payload)

    try:
        benchmark(burst)
    finally:
        loop.close()
    assert NullConn.sent >= 10_000
    assert _best_seconds(benchmark) < CEILING_POOL_SEND_BURST

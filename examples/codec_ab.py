#!/usr/bin/env python
"""A/B the wire-codec fast path against the pure reference codec.

``TransportPolicy(codec=...)`` (CLI ``--codec``, env ``REPRO_CODEC``)
takes ``pure``, which forces the reference pure-Python visitor, or
``auto``, which takes the compiled ``_wirec`` extension when it is
built (``python setup.py build_ext --inplace``).  Wire bytes are
bit-identical either way — the fast path is purely a CPU saving.
Without the extension ``auto`` *is* the pure visitor: both rows then
run the same code and differ only by run-to-run noise.

This example runs the same small-token ring under both and prints
throughput plus the transport's own evidence: the
``codec_compiled_hits`` counter and the ``frames_per_syscall`` histogram.

Run:  python examples/codec_ab.py [--blocks N]
"""

import argparse
import time

from repro.apps.ring import RingJobToken, build_ring_graph
from repro.net import TransportPolicy
from repro.runtime import MultiprocessEngine
from repro.serial import fastpath
from repro.trace import MetricsRegistry

NODES = ["node01", "node02", "node03", "node04"]


def run_config(label: str, policy: TransportPolicy, *,
               blocks: int, block_bytes: int) -> None:
    metrics = MetricsRegistry()
    graph = build_ring_graph(NODES)
    with MultiprocessEngine(transport=policy, metrics=metrics) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(block_bytes, 4))  # warm-up
        t0 = time.perf_counter()
        done = engine.run(graph, RingJobToken(block_bytes, blocks))
        wall = time.perf_counter() - t0
        assert done.blocks == blocks
        engine.collect_traces()
    counters = metrics.snapshot().get("counters", {})
    fps = metrics.histogram("frames_per_syscall")
    print(f"  {label:<12} {blocks / wall:7.0f} tok/s   "
          f"codec_compiled_hits={counters.get('codec_compiled_hits', 0):<6} "
          f"frames/syscall="
          f"{fps.total / fps.count if fps.count else 0.0:.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--blocks", type=int, default=200)
    parser.add_argument("--block-bytes", type=int, default=512)
    args = parser.parse_args()

    print(f"compiled codec available: {fastpath.compiled_available()} "
          f"(in use: {fastpath.codec_in_use()})")
    if not fastpath.compiled_available():
        print("no extension built: both rows below run the pure visitor")
    print(f"ring: {args.blocks} x {args.block_bytes} B over "
          f"{len(NODES)} kernel processes\n")

    for codec in ("pure", "auto"):
        run_config(f"codec={codec}", TransportPolicy(codec=codec),
                   blocks=args.blocks, block_bytes=args.block_bytes)


if __name__ == "__main__":
    main()

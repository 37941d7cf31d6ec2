#!/usr/bin/env python
"""A/B the wire-codec fast path against the pure reference codec.

The codec tier is not an option: messages take the compiled ``_wirec``
extension when it is built (``python setup.py build_ext --inplace``)
and the pure-Python visitor otherwise.  ``fastpath.set_codec("pure")``
is the seam the parity suite uses to reach the reference visitor with
the extension present; set *before* the engine forks, every kernel
inherits it, which is what this example does to get its A side.  Wire
bytes are bit-identical either way — the fast path is purely a CPU
saving.  Without the extension ``auto`` *is* the pure visitor: both
rows then run the same code and differ only by run-to-run noise.

This example runs the same small-token ring under both and prints
throughput plus the transport's own evidence: the
``codec_compiled_hits`` counter, and the mean of the
``frames_per_syscall`` histogram — ≈ 1 on both rows, since a frame
leaves on one ``sendmsg`` when it is made and only frames that waited
for the I/O loop share a write; the codec changes how fast frames are
made, not how they are written.

Run:  python examples/codec_ab.py [--blocks N]
"""

import argparse
import time

from repro.apps.ring import RingJobToken, build_ring_graph
from repro.runtime import MultiprocessEngine
from repro.serial import fastpath
from repro.trace import MetricsRegistry

NODES = ["node01", "node02", "node03", "node04"]


def run_config(codec: str, *, blocks: int, block_bytes: int) -> None:
    fastpath.set_codec(codec)  # before the fork: the kernels inherit it
    metrics = MetricsRegistry()
    graph = build_ring_graph(NODES)
    with MultiprocessEngine(metrics=metrics) as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(block_bytes, 4))  # warm-up
        t0 = time.perf_counter()
        done = engine.run(graph, RingJobToken(block_bytes, blocks))
        wall = time.perf_counter() - t0
        assert done.blocks == blocks
        engine.collect_traces()
    counters = metrics.snapshot().get("counters", {})
    fps = metrics.histogram("frames_per_syscall")
    print(f"  {'codec=' + codec:<12} {blocks / wall:7.0f} tok/s   "
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
        run_config(codec, blocks=args.blocks, block_bytes=args.block_bytes)


if __name__ == "__main__":
    main()

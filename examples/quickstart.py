#!/usr/bin/env python
"""Quickstart: the paper's tutorial application, step by step.

Builds the split-compute-merge flow graph of section 3 of the paper —
convert a string to uppercase by splitting it into characters — and runs
it twice: on the simulated 4-node cluster (virtual time, deterministic)
and in real time on the threaded engine's I/O loop.

Run:  python examples/quickstart.py
"""

from repro.apps.strings import (
    CharToken,
    ComputeThread,
    MainThread,
    MergeString,
    RoundRobinByPos,
    SplitString,
    StringToken,
    ToUpperCase,
)
from repro.cluster import paper_cluster
from repro.core import ConstantRoute, Flowgraph, FlowgraphNode, ThreadCollection
from repro.runtime import SimEngine
from repro.runtime.threaded_engine import ThreadedEngine
from repro.trace import Tracer, message_summary, op_summary


def build_graph():
    """The Figure 2 flow graph: SplitString >> ToUpperCase >> MergeString.

    Thread collections are mapped dynamically at runtime — the same
    mapping-string syntax as the paper ("nodeA*2 nodeB").
    """
    main = ThreadCollection(MainThread, "main").map("node01")
    workers = ThreadCollection(ComputeThread, "proc").map("node02*2 node03")
    builder = (
        FlowgraphNode(SplitString, main, ConstantRoute)
        >> FlowgraphNode(ToUpperCase, workers, RoundRobinByPos)
        >> FlowgraphNode(MergeString, main, ConstantRoute)
    )
    return Flowgraph(builder, "uppercase")


def main() -> None:
    text = "hello dynamic parallel schedules"

    # --- simulated cluster: virtual time on the paper's testbed model ---
    tracer = Tracer()
    engine = SimEngine(paper_cluster(4), tracer=tracer)
    graph = build_graph()
    result = engine.run(graph, StringToken(text))
    print("simulated cluster")
    print(f"  input  : {text!r}")
    print(f"  output : {result.token.text!r}")
    print(f"  virtual time: {result.makespan * 1e3:.2f} ms")
    metrics = engine.stats()
    print(f"  network: {metrics['network_messages']} messages, "
          f"{metrics['network_bytes']} bytes")
    print()
    print(op_summary(tracer))
    print()
    print(message_summary(tracer))

    # --- real time: same graph code, stepped on one I/O loop -------------
    with ThreadedEngine() as tengine:
        graph2 = build_graph()
        out = tengine.run(graph2, StringToken(text))
        print()
        print("real-thread engine")
        print(f"  output : {out.text!r}")


if __name__ == "__main__":
    main()

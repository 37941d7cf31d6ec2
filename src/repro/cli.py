"""Command-line runner for the paper-reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli fig6 [--fast]
    python -m repro.cli all --fast
    python -m repro.cli demo            # quickstart: parallel uppercase
    python -m repro.cli demo --engine multiprocess   # real OS processes
    python -m repro.cli ring --engine threaded --trace ring.json
    python -m repro.cli ring --engine multiprocess --kill-kernel node03@#5
    python -m repro.cli stream --engine sim --items 512
    python -m repro.cli stream --engine multiprocess --items 256 \
        --kill-kernel node02@#40
    python -m repro.cli stream --credit-window 8 --shedding shed
    python -m repro.cli serve --ns-port 7780      # resident GoL service
    python -m repro.cli call --ns-port 7780 --discover
    python -m repro.cli call --ns-port 7780 --service gol.read \
        --block 0 0 8 8 --count 20
    python -m repro.cli join --ns-port 7780 --name node05   # live join
    python -m repro.cli fig9 --fast --trace fig9.json

Each experiment prints its measured table next to the paper's reference
values; ``--fast`` shrinks sweeps for a quick look.  ``--trace FILE``
records a unified event timeline (any engine) and writes it as Chrome
trace-event JSON — open it at https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .experiments import ALL

__all__ = ["main"]


def _export_trace(tracer, path: str) -> None:
    from .trace import export_chrome_trace

    n = export_chrome_trace(tracer, path)
    print(f"trace: {n} events -> {path} (open at https://ui.perfetto.dev)")


def _run_experiment(name: str, fast: bool,
                    trace_path: Optional[str] = None) -> None:
    runner = ALL[name]
    tracer = None
    if trace_path is not None:
        from .trace import Tracer

        tracer = Tracer()
    t0 = time.perf_counter()
    result = runner(fast=fast, tracer=tracer)
    wall = time.perf_counter() - t0
    print(result.report())
    if result.paper_reference:
        print(f"paper: {result.paper_reference}")
    print(f"(wall time {wall:.1f} s{', fast mode' if fast else ''})")
    if tracer is not None:
        _export_trace(tracer, trace_path)
    print()


#: Commands that build an engine from the command line; every other
#: one (experiment ids pin the paper's parameters inside their runners,
#: ``list`` / ``call`` / ``join`` build no engine) refuses engine flags.
_ENGINE_COMMANDS = ("demo", "ring", "stream", "serve")

#: The engine flags, by argparse dest.
_ENGINE_FLAGS = ("no_shm", "routing", "min_kernels", "max_kernels",
                 "kill_kernel", "drop_rate", "fault_seed")


def _engine_opts(args) -> dict:
    """The engine flags as ``create_engine`` keyword arguments.

    A flag that was not given contributes nothing, so an engine built
    without flags is built from its own defaults.  Raises ``ValueError``
    from the policy constructors on an out-of-range value.
    """
    from .core.routing import RoutingPolicy
    from .net.connections import TransportPolicy
    from .net.recovery import FaultPolicy
    from .runtime.scaling import ScalingPolicy

    def given(**fields):
        return {k: v for k, v in fields.items() if v is not None}

    opts: dict = {}
    if args.no_shm:
        opts["transport"] = TransportPolicy(shm_enabled=False)
    if args.routing is not None:
        opts["routing"] = RoutingPolicy(kind=args.routing)
    scaling = given(min_kernels=args.min_kernels,
                    max_kernels=args.max_kernels)
    if scaling:
        opts["scaling"] = ScalingPolicy(**scaling)
    faults = given(drop_rate=args.drop_rate, seed=args.fault_seed)
    if args.kill_kernel is not None:
        (faults["kill_kernel"], faults["kill_after"],
         faults["kill_after_messages"]) = FaultPolicy.parse_kill(
            args.kill_kernel)
    if faults:
        opts["faults"] = FaultPolicy(**faults)
        # A kill without recovery just fails the run and a dropped
        # frame stalls it, so those two also opt into recovery.
        if args.kill_kernel is not None or args.drop_rate is not None:
            opts["recover"] = True
    return opts


def _demo(make_engine, engine_kind: str,
          trace_path: Optional[str] = None) -> None:
    from .apps.strings import StringToken, build_uppercase_graph
    from .trace import Tracer, activity_timeline, op_summary

    text = "dynamic parallel schedules"
    graph, *_ = build_uppercase_graph("node01", "node02 node03 node04")
    tracer = Tracer() if trace_path is not None or engine_kind == "sim" \
        else None

    t0 = time.perf_counter()
    with make_engine(tracer=tracer) as engine:
        if engine_kind == "multiprocess":
            engine.register_graph(graph)
        out = engine.run(graph, StringToken(text))
        wall = time.perf_counter() - t0
        kernels = getattr(engine, "kernel_names", None)
    print(f"input : {text!r}")
    if engine_kind == "sim":
        print(f"output: {out.token.text!r}")
        print(f"virtual time: {out.makespan * 1e3:.2f} ms on 4 nodes")
        print()
        print(op_summary(tracer))
        print()
        print(activity_timeline(tracer, width=60))
    elif engine_kind == "threaded":
        print(f"output: {out.text!r}")
        print(f"wall time: {wall * 1e3:.1f} ms on one I/O loop (1 process)")
    else:
        print(f"output: {out.text!r}")
        print(f"wall time: {wall * 1e3:.1f} ms across kernel processes "
              f"[{', '.join(kernels or [])}] + console")
    if trace_path is not None:
        _export_trace(tracer, trace_path)


def _ring(make_engine, engine_kind: str,
          trace_path: Optional[str] = None,
          block_bytes: int = 4096, blocks: int = 32) -> None:
    """Push *blocks* blocks around a 4-node ring on any engine."""
    from .apps.ring import RingJobToken, build_ring_graph

    tracer = None
    if trace_path is not None:
        from .trace import Tracer

        tracer = Tracer()
    nodes = ["node01", "node02", "node03", "node04"]
    graph = build_ring_graph(nodes)
    t0 = time.perf_counter()
    with make_engine(tracer=tracer) as engine:
        engine.register_graph(graph)
        out = engine.run(graph, RingJobToken(block_bytes, blocks))
        wall = time.perf_counter() - t0
    done = out.token if engine_kind == "sim" else out
    print(f"ring on {engine_kind} engine: {done.blocks} blocks x "
          f"{block_bytes} B round-tripped over {len(nodes)} hops "
          f"({done.received_bytes} bytes) in {wall * 1e3:.1f} ms")
    if trace_path is not None:
        _export_trace(tracer, trace_path)


def _stream(make_engine, args) -> int:
    """Run the bursty windowed streaming pipeline on any engine."""
    from .apps.stream_pipeline import (
        StreamJob,
        oracle_digest,
        run_stream_pipeline,
    )
    from .core import StreamPolicy
    from .trace import MetricsRegistry

    job = StreamJob(items=args.items)
    stream = None
    if args.credit_window is not None or args.shedding != "block":
        stream = StreamPolicy(credit_window=args.credit_window,
                              shedding=args.shedding)
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    with make_engine(stream=stream, metrics=metrics) as engine:
        stats = run_stream_pipeline(
            engine, job, "node01", ["node02", "node03"], "node04",
            name="cli-stream")
        wall = time.perf_counter() - t0
    shed = metrics.counter("tokens_shed").value
    print(f"stream on {args.engine} engine: {stats.items} tokens -> "
          f"{stats.windows} windows ({stats.complete_windows} complete), "
          f"digest {stats.digest}")
    print(f"sustained {stats.sustained_tps:.0f} tokens/s, p99 window "
          f"latency {stats.p99_window_latency * 1e3:.2f} ms "
          f"({'virtual' if args.engine == 'sim' else 'wall'} clock), "
          f"wall time {wall * 1e3:.0f} ms")
    if stats.recovered:
        print(f"recovered from a kernel kill mid-stream: "
              f"{stats.replayed_tokens} tokens replayed")
    if shed:
        print(f"lossy credit window shed {shed} tokens "
              f"({args.shedding}); digest reflects the surviving "
              f"{stats.items} tokens")
    elif stream is None or args.shedding == "block":
        ok = stats.digest == oracle_digest(job).digest
        print(f"digest vs engine-free oracle: "
              f"{'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def _serve(args, engine_opts: dict) -> int:
    """Boot a resident GoL service and serve until interrupted."""
    import numpy as np

    from .apps.gol_service import GameOfLifeService
    from .service import AdmissionPolicy, ServiceEngine

    worker_nodes = [f"node{i + 1:02d}" for i in range(args.workers)]
    rows, cols = args.world
    rng = np.random.default_rng(args.seed)
    world = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    engine = ServiceEngine(
        admission=AdmissionPolicy(max_concurrent=args.max_concurrent,
                                  max_queue=args.max_queue,
                                  session_window=args.session_window),
        ns_port=args.ns_port, **engine_opts)
    gol = GameOfLifeService(engine, world, worker_nodes)
    engine.expose(gol.read_graph, "gol.read")
    host, port = engine.serve()
    gol.load()
    print(f"resident GoL service: {rows}x{cols} world on "
          f"{len(worker_nodes)} workers")
    print(f"name server at {host}:{port} — call with:")
    print(f"    python -m repro.cli call --ns-port {port} --discover")
    print("Ctrl-C to drain and shut down")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\ndraining ...")
        drained = engine.drain_and_shutdown()
        print(f"drained={drained}")
    return 0


def _join(args) -> int:
    """Join a running cluster as a fresh kernel, mid-run.

    Rebuilds the serving application's graphs locally (the same
    parameters the ``serve`` command used, so graph and collection names
    line up), registers with the cluster's name server, and serves: the
    resident engine's liveness tick spots the new kernel's first beat,
    runs a voluntary rebalance onto this kernel, and starts shipping it
    work.
    Blocks until the cluster orders shutdown (Ctrl-C to leave early —
    the cluster then treats it as a failure and recovers).
    """
    import zlib

    import numpy as np

    from .apps.gol_service import GameOfLifeService
    from .net.kernel import CONSOLE_KERNEL, run_kernel_process
    from .net.nameserver import NameServerClient
    from .runtime.base import Engine

    name = args.name or f"joiner{os.getpid() % 10000:04d}"
    address = ("127.0.0.1", args.ns_port)
    ns = NameServerClient(address)
    try:
        peers = sorted(set(ns.kernels()) | {CONSOLE_KERNEL, name})
    finally:
        ns.close()

    # Rebuild the same world/graphs the 'serve' process registered.  The
    # graph uid counter is process-local, so this must be the first
    # service instance built in this process (it is: fresh interpreter).
    rows, cols = args.world
    rng = np.random.default_rng(args.seed)
    world = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
    worker_nodes = [f"node{i + 1:02d}" for i in range(args.workers)]
    collector = Engine()
    GameOfLifeService(collector, world, worker_nodes)
    graphs = list(collector._graphs.values())

    # CLI joiners take crc32-derived ordinals far above anything the
    # engine hands out, so ctx/group id ranges can never collide.
    ordinal = 1_000_000 + (zlib.crc32(name.encode("utf-8")) % 1_000_000)
    print(f"joining cluster at {address[0]}:{address[1]} as {name!r} "
          f"(ordinal {ordinal}); Ctrl-C to leave")
    run_kernel_process(name, ordinal, address, peers, graphs, recover=True,
                       heartbeat_interval=0.25)
    return 0


def _call(args) -> int:
    """Call a resident service (or just discover what is registered)."""
    from .apps.gol_service import GolReadRequest  # registers the tokens
    from .service import ServiceClient

    address = ("127.0.0.1", args.ns_port)
    with ServiceClient(address) as client:
        if args.discover:
            records = client.discover()
            if not records:
                print("(no live services registered)")
            for rec in records:
                ins = ", ".join(rec["in_types"])
                outs = ", ".join(rec["out_types"])
                print(f"{rec['service']:<20} {rec['provider']:<12} "
                      f"({ins}) -> ({outs})")
            return 0
        row, col, height, width = args.block
        latencies = []
        for _ in range(args.count):
            t0 = time.perf_counter()
            result = client.call(args.service,
                                 GolReadRequest(row, col, height, width),
                                 timeout=60, retries=8)
            latencies.append(time.perf_counter() - t0)
        latencies.sort()
        block = result.data.array
        print(f"{args.count} x {args.service} "
              f"[{row}:{row + height}, {col}:{col + width}] "
              f"-> {block.shape[0]}x{block.shape[1]} block, "
              f"{int(block.sum())} live cells")
        print(f"latency p50 {latencies[len(latencies) // 2] * 1e3:.1f} ms, "
              f"max {latencies[-1] * 1e3:.1f} ms; "
              f"busy retries {client.busy_retries}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dps-repro",
        description="Reproduce the evaluation of 'DPS - Dynamic Parallel "
                    "Schedules' (Gerlach & Hersch, 2003)",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL) + ["all", "list", "demo", "ring", "stream",
                               "serve", "call", "join"],
        help="experiment id (table/figure), 'all', 'list', 'demo', 'ring', "
             "'stream' (bursty windowed streaming pipeline), 'serve' "
             "(resident GoL service), 'call' (service client) or "
             "'join' (add a kernel to a running cluster)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="shrunk parameter sweeps (seconds instead of minutes)",
    )
    parser.add_argument(
        "--engine", choices=["sim", "threaded", "multiprocess"],
        default="sim",
        help="engine for 'demo'/'ring'/'stream': simulated cluster "
             "(default), one I/O loop, or one OS process per node over TCP",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a unified event timeline and write Chrome trace-event "
             "JSON to FILE (view at https://ui.perfetto.dev)",
    )
    eng = parser.add_argument_group(
        "engine flags ('demo' / 'ring' / 'stream' / 'serve')",
        "each becomes the named create_engine() argument; an engine that "
        "cannot honour one refuses it")
    eng.add_argument(
        "--no-shm", action="store_true", default=None,
        help="transport=TransportPolicy(shm_enabled=False): disable the "
             "shared-memory payload lane between co-located kernels "
             "(multiprocess engine)",
    )
    eng.add_argument(
        "--routing", choices=["round_robin", "queue_depth"], default=None,
        help="routing=RoutingPolicy(kind): as declared by the graph "
             "(default) or queue-depth adaptive — round-robin routes pick "
             "the instance with the shortest observed queue instead "
             "(any engine)",
    )
    eng.add_argument(
        "--min-kernels", type=int, metavar="N", default=None,
        help="scaling=ScalingPolicy(min_kernels=N): autoscaling floor; "
             "switches the autoscaler on (multiprocess engine)",
    )
    eng.add_argument(
        "--max-kernels", type=int, metavar="N", default=None,
        help="scaling=ScalingPolicy(max_kernels=N): autoscaling ceiling; "
             "switches the autoscaler on (multiprocess engine)",
    )
    eng.add_argument(
        "--kill-kernel", metavar="NODE@WHEN", default=None,
        help="faults=FaultPolicy(kill_kernel=...) with recover=True: kill "
             "the named kernel process, e.g. 'node03@0.5' (seconds after "
             "start) or 'node03@#5' (before its 5th data message) "
             "(multiprocess engine)",
    )
    eng.add_argument(
        "--drop-rate", type=float, metavar="P", default=None,
        help="faults=FaultPolicy(drop_rate=P) with recover=True: drop each "
             "received data frame with probability P in [0,1); "
             "deterministic per kernel from --fault-seed (multiprocess "
             "engine)",
    )
    eng.add_argument(
        "--fault-seed", type=int, metavar="N", default=None,
        help="faults=FaultPolicy(seed=N): seed for the deterministic "
             "chaos schedule (multiprocess engine)",
    )
    stm = parser.add_argument_group("streaming ('stream')")
    stm.add_argument(
        "--items", type=int, metavar="N", default=512,
        help="stream: tokens the bursty source injects (default 512)",
    )
    stm.add_argument(
        "--credit-window", type=int, metavar="N", default=None,
        help="stream: per-edge credit window for streaming openers "
             "(default: inherit the schedule-wide flow-control window)",
    )
    stm.add_argument(
        "--shedding", choices=["block", "drop-oldest", "shed"],
        default="block",
        help="stream: behaviour when the credit window saturates — "
             "stall the source (default), ring-buffer the freshest "
             "tokens, or tail-drop the incoming ones",
    )
    svc = parser.add_argument_group("service tier ('serve' / 'call')")
    svc.add_argument(
        "--ns-port", type=int, metavar="PORT", default=7780,
        help="name-server TCP port the service binds / the client "
             "connects to (default 7780)",
    )
    svc.add_argument(
        "--workers", type=int, metavar="N", default=4,
        help="serve: worker kernels hosting world bands (default 4)",
    )
    svc.add_argument(
        "--world", type=int, nargs=2, metavar=("ROWS", "COLS"),
        default=(64, 64),
        help="serve: Game of Life world shape (default 64 64)",
    )
    svc.add_argument(
        "--seed", type=int, metavar="N", default=12345,
        help="serve: RNG seed for the initial world (default 12345)",
    )
    svc.add_argument(
        "--max-concurrent", type=int, metavar="N", default=4,
        help="serve: graph calls executing at once (default 4)",
    )
    svc.add_argument(
        "--max-queue", type=int, metavar="N", default=16,
        help="serve: admitted calls allowed to queue; beyond this "
             "requests are shed with MSG_SVC_BUSY (default 16)",
    )
    svc.add_argument(
        "--session-window", type=int, metavar="N", default=8,
        help="serve: per-client in-flight window (default 8)",
    )
    svc.add_argument(
        "--discover", action="store_true",
        help="call: list live service records (name, provider, token "
             "signature) instead of calling",
    )
    svc.add_argument(
        "--service", metavar="NAME", default="gol.read",
        help="call: service name to invoke (default gol.read)",
    )
    svc.add_argument(
        "--block", type=int, nargs=4, metavar=("ROW", "COL", "H", "W"),
        default=(0, 0, 8, 8),
        help="call: world block to read (default 0 0 8 8)",
    )
    svc.add_argument(
        "--count", type=int, metavar="N", default=1,
        help="call: number of calls to issue (default 1)",
    )
    svc.add_argument(
        "--name", metavar="KERNEL", default=None,
        help="join: name for the joining kernel (default joinerNNNN from "
             "the pid)",
    )
    args = parser.parse_args(argv)

    command = args.experiment
    flags = " ".join("--" + dest.replace("_", "-") for dest in _ENGINE_FLAGS
                     if getattr(args, dest) is not None)
    engine_opts: dict = {}
    if flags:
        if command not in _ENGINE_COMMANDS:
            parser.error(
                f"{flags}: {command!r} takes no engine flags (experiments "
                f"build their engines with the paper's pinned parameters); "
                f"they apply to {', '.join(_ENGINE_COMMANDS)}")
        try:
            engine_opts = _engine_opts(args)
        except ValueError as exc:
            parser.error(f"{flags}: {exc}")

    def make_engine(**extra):
        """``create_engine`` with the engine flags' options; what the
        chosen engine refuses is a usage error, not a traceback."""
        from .runtime import create_engine
        try:
            return create_engine(args.engine, nodes=4, **engine_opts, **extra)
        except ValueError as exc:
            parser.error(f"{flags} with --engine {args.engine}: {exc}")

    if command == "list":
        for name, runner in sorted(ALL.items()):
            doc = (runner.__module__ or "").rsplit(".", 1)[-1]
            print(f"{name:8} {doc}")
        return 0
    if command == "demo":
        _demo(make_engine, args.engine, args.trace)
        return 0
    if command == "ring":
        _ring(make_engine, args.engine, args.trace)
        return 0
    if command == "stream":
        return _stream(make_engine, args)
    if command == "serve":
        return _serve(args, engine_opts)
    if command == "call":
        return _call(args)
    if command == "join":
        return _join(args)
    names = sorted(ALL) if command == "all" else [command]
    for name in names:
        _run_experiment(name, args.fast, args.trace)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

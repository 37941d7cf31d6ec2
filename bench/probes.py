"""Layer probes: time each layer's public functions from outside.

Every probe feeds a layer the workload's own tokens and reports the
median cost of one call in microseconds.  A probe whose import or call
fails (a later change renamed or removed the function) reports
``UNAVAILABLE`` and fails nothing; a probe that does not apply to a
workload (no name server behind a threaded engine) reports 0.
"""

from __future__ import annotations

import socket
import statistics
import time
from typing import Callable, Dict, Optional

#: value of a metric whose source has disappeared from the program
UNAVAILABLE = -1.0
#: frames above this size take the shared-memory lane in the program,
#: and would block a single-threaded socketpair round trip here
_MAX_PROBE_FRAME = 32 * 1024


def time_us(fn: Callable[[], object], budget_s: float = 0.05) -> float:
    """Median microseconds per call of *fn* over seven timed batches."""
    fn()  # warm caches and lazily compiled plans off the clock
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        took = time.perf_counter() - start
        if took >= budget_s / 14 or calls >= 1 << 20:
            break
        calls *= 2
    batches = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        batches.append((time.perf_counter() - start) / calls)
    return statistics.median(batches) * 1e6


def _guarded(probe: Callable[[], Dict[str, float]], names) -> Dict[str, float]:
    try:
        return probe()
    except Exception:
        return {name: UNAVAILABLE for name in names}


def codec(token) -> Dict[str, float]:
    def probe():
        from repro.serial import decode, encode
        wire = encode(token)
        return {"serial.encode_us": time_us(lambda: encode(token)),
                "serial.decode_us": time_us(lambda: decode(wire))}
    return _guarded(probe, ("serial.encode_us", "serial.decode_us"))


def framing(token) -> Dict[str, float]:
    names = ("net.framing.send_recv_us", "net.framing.batch16_send_recv_us")

    def probe():
        from repro.net import FrameReader, send_messages
        from repro.serial import encode_segments
        segments = encode_segments(token)
        nbytes = sum(memoryview(s).nbytes for s in segments)
        if nbytes > _MAX_PROBE_FRAME:
            return {name: 0.0 for name in names}
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right)

            def round_trip(batch: int) -> None:
                send_messages(left, [segments] * batch)
                got = 0
                while got < batch:
                    got += len(reader.recv_batch())

            return {names[0]: time_us(lambda: round_trip(1)),
                    names[1]: time_us(lambda: round_trip(16)) / 16}
        finally:
            left.close()
            right.close()
    return _guarded(probe, names)


def protocol(token, graph) -> Dict[str, float]:
    names = ("net.protocol.encode_data_us", "net.protocol.decode_message_us")

    def probe():
        from repro.net import protocol as wire_protocol
        from repro.runtime.base import DataEnvelope, GroupFrame
        from repro.serial import gather
        frame = GroupFrame(group_id=7, index=3, opener=0, opener_instance=0,
                           origin_node="node01", routed_instance=0)
        envelope = DataEnvelope(token, graph, 1, 0, 5, (frame,),
                                ctx_origin="__driver__")
        payload = gather(wire_protocol.encode_data(envelope))
        graphs = {graph.name: graph}
        return {
            names[0]: time_us(lambda: wire_protocol.encode_data(envelope)),
            names[1]: time_us(
                lambda: wire_protocol.decode_message(payload, graphs)),
        }
    return _guarded(probe, names)


def window_cycle() -> Dict[str, float]:
    def probe():
        from repro.core.flowcontrol import SplitWindow
        window = SplitWindow(8)

        def cycle() -> None:
            if window.can_send:
                window.on_post(0)
            window.on_ack(0)

        return {"core.flowcontrol.window_cycle_us": time_us(cycle)}
    return _guarded(probe, ("core.flowcontrol.window_cycle_us",))


def sim_events() -> Dict[str, float]:
    def probe():
        from repro.simkernel import Simulator
        events = 20_000

        def run() -> None:
            sim = Simulator()

            def ticker():
                for _ in range(events):
                    yield sim.timeout(1.0)

            sim.spawn(ticker())
            sim.run()

        return {"simkernel.events_per_s": events / (time_us(run, 0.3) / 1e6)}
    return _guarded(probe, ("simkernel.events_per_s",))


def window_accumulate() -> Dict[str, float]:
    def probe():
        from repro.core.windows import WindowAccumulator
        acc = WindowAccumulator()
        return {"core.windows.accumulate_us":
                time_us(lambda: acc.add(12345, 987654321))}
    return _guarded(probe, ("core.windows.accumulate_us",))


def nameserver_lookup(ns_address: Optional[tuple], name: str) -> Dict[str, float]:
    key = "net.nameserver.lookup_us"
    if ns_address is None:
        return {key: 0.0}

    def probe():
        from repro.net import NameServerClient
        with NameServerClient(ns_address) as client:
            return {key: time_us(lambda: client.lookup(name))}
    return _guarded(probe, (key,))


def graph_build(build: Optional[Callable[[], object]]) -> Dict[str, float]:
    key = "core.graph.build_us"
    if build is None:
        return {key: 0.0}
    return _guarded(lambda: {key: time_us(build)}, (key,))

"""Stream soak/chaos harness for the bursty streaming pipeline.

``run_soak`` drives ``repro.apps.stream_pipeline`` through four runs:

1. **sim oracle** — the pipeline on the simulated engine, checked
   bit-for-bit against the engine-free pure fold (``oracle_digest``);
2. **clean multiprocess** — real kernels over TCP; publishes sustained
   tokens/sec and p99 window latency (merge receipt minus window close);
3. **chaos multiprocess** — the same job with a worker kernel killed
   mid-stream (``kill_after_messages``, deterministic) and recovery
   armed: the run must report a recovery with replayed tokens and still
   produce the oracle digest — windowed results are exactly-once per
   window across the kill (a duplicate or lost window member changes a
   window checksum and breaks the digest);
4. **overload shed** — the simulated engine with a small lossy credit
   window (``shedding="shed"``), publishing how many tokens the window
   shed under a burst the pipeline cannot absorb.

The pytest wrapper keeps a small but complete version of the same
protocol in the tier-1 suite.

Run the minutes-scale soak directly::

    PYTHONPATH=src python benchmarks/test_stream_soak.py [items]
"""

import sys
import time

from repro.apps.stream_pipeline import (
    StreamJob,
    oracle_digest,
    run_stream_pipeline,
)
from repro.core import StreamPolicy
from repro.runtime import FaultPolicy, create_engine
from repro.trace import MetricsRegistry

MAIN_NODE = "node01"
WORKER_NODES = ["node02", "node03"]
AGG_NODE = "node04"
#: The kernel the chaos run kills: a worker hosting only stateless leaf
#: transforms (merge/stream state cannot be masked by replay — see the
#: recovery contract in DESIGN.md).
KILL_NODE = "node02"


def _job(items: int) -> StreamJob:
    return StreamJob(items=items, rate=8000.0, burst=16, gap=0.002,
                     seed=7, window=32, work=0.0001)


def run_soak(items: int = 512, kill_after_messages: int = 40,
             timeout: float = 300.0) -> dict:
    """Run the four-phase soak; returns the ``streaming`` bench report."""
    job = _job(items)
    oracle = oracle_digest(job)

    # 1. simulated engine vs the pure fold
    sim = run_stream_pipeline(create_engine("sim", nodes=4), job,
                              MAIN_NODE, WORKER_NODES, AGG_NODE,
                              name="soak-sim")

    # 2. clean multiprocess run
    with create_engine("multiprocess") as engine:
        clean = run_stream_pipeline(engine, job, MAIN_NODE, WORKER_NODES,
                                    AGG_NODE, name="soak-mp",
                                    timeout=timeout)

    # 3. kill a worker kernel mid-stream, recovery armed
    faults = FaultPolicy(kill_kernel=KILL_NODE,
                         kill_after_messages=kill_after_messages)
    with create_engine("multiprocess", recover=True,
                       faults=faults) as engine:
        chaos = run_stream_pipeline(engine, job, MAIN_NODE, WORKER_NODES,
                                    AGG_NODE, name="soak-chaos",
                                    timeout=timeout)

    # 4. overload a small lossy credit window (virtual time: exact)
    shed_job = StreamJob(items=min(items, 512), rate=50000.0, burst=64,
                         gap=0.0005, seed=7, window=32, work=0.002)
    metrics = MetricsRegistry()
    shed_engine = create_engine(
        "sim", nodes=4, metrics=metrics,
        stream=StreamPolicy(credit_window=8, shedding="shed"))
    shed = run_stream_pipeline(shed_engine, shed_job, MAIN_NODE,
                               WORKER_NODES, AGG_NODE, name="soak-shed")
    shed_count = metrics.counter("tokens_shed").value

    return {
        "items": items,
        "oracle_digest": oracle.digest,
        "sim_digest_matches": sim.digest == oracle.digest,
        "mp_digest_matches": clean.digest == oracle.digest,
        "chaos_digest_matches": chaos.digest == oracle.digest,
        "windows": clean.windows,
        "complete_windows": clean.complete_windows,
        "sustained_tokens_per_sec": round(clean.sustained_tps, 1),
        "p99_window_latency_ms": round(clean.p99_window_latency * 1e3, 2),
        "chaos_recovered": chaos.recovered,
        "chaos_replayed_tokens": chaos.replayed_tokens,
        "recovery_gap_s": round(max(0.0, chaos.makespan - clean.makespan),
                                3),
        "shed_tokens": shed_count,
        "shed_aggregated": shed.items,
    }


def test_stream_soak_smoke():
    report = run_soak(items=256, kill_after_messages=30, timeout=120.0)
    print()
    print(f"[stream-soak] {report}")
    # every engine, including the one that lost a kernel, agrees with
    # the engine-free oracle bit for bit
    assert report["sim_digest_matches"]
    assert report["mp_digest_matches"]
    assert report["chaos_digest_matches"]
    # the kill really happened and was masked by split-boundary replay
    assert report["chaos_recovered"] is True
    assert report["chaos_replayed_tokens"] > 0
    # the overload run really shed: lossy window + conserved totals
    assert report["shed_tokens"] > 0
    assert report["shed_aggregated"] + report["shed_tokens"] == 256
    assert report["sustained_tokens_per_sec"] > 0


if __name__ == "__main__":
    import os

    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    t0 = time.perf_counter()
    out = run_soak(items=n)
    print(f"[stream-soak] {time.perf_counter() - t0:.1f}s {out}")

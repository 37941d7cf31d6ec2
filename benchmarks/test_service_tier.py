"""Load harness for the resident service tier (paper §"Parallel services").

``run_load`` boots a resident Game of Life service and hammers it with
``n_clients`` *external client processes* (fork-spawned, each holding
its own :class:`~repro.service.ServiceClient` session over TCP):

- phase A, overload: every client releases a burst of ``burst`` async
  calls from a shared barrier — deliberately more in-flight requests
  than the admission policy's capacity, so the console must shed with
  ``MSG_SVC_BUSY`` and clients must retry (new request ids, backoff);
- phase B, throughput: each client issues ``n_calls`` sequential reads.

Every reply is verified bit-for-bit against the fork-inherited world,
so the reported numbers certify *correct* requests per second, not
just bytes moved.

The pytest wrapper keeps the default load small enough for the tier-1
suite on a shared box; rates are reported, only correctness and the
shed/retry behaviour are asserted.
"""

import multiprocessing
import time

import numpy as np

from repro.apps.gol_service import GameOfLifeService, GolReadRequest
from repro.service import AdmissionPolicy, ServiceClient, ServiceEngine

WORLD_SHAPE = (48, 48)
WORLD_SEED = 20260808
GOL_NODES = ["node01", "node02"]
BLOCK = 8  # every read is a BLOCK x BLOCK region


def _make_world():
    rng = np.random.RandomState(WORLD_SEED)
    return (rng.rand(*WORLD_SHAPE) < 0.35).astype(np.uint8)


def _block_origin(client_idx, call_idx):
    """Deterministic per-call block placement, distinct across clients."""
    limit_r = WORLD_SHAPE[0] - BLOCK
    limit_c = WORLD_SHAPE[1] - BLOCK
    return ((client_idx * 7 + call_idx * 5) % limit_r,
            (client_idx * 11 + call_idx * 3) % limit_c)


def _client_proc(address, idx, burst, n_calls, barrier, world, out):
    """One external client process; self-verifies every reply."""
    try:
        latencies, wrong, ok = [], 0, 0
        with ServiceClient(address, name=f"load-client-{idx}") as client:
            client.open()
            barrier.wait(timeout=60)

            def verify(call_idx, array):
                row, col = _block_origin(idx, call_idx)
                return np.array_equal(
                    array, world[row:row + BLOCK, col:col + BLOCK])

            # phase A: synchronized burst far beyond server capacity
            t0 = time.perf_counter()
            pending = []
            for j in range(burst):
                row, col = _block_origin(idx, j)
                pending.append((j, client.call_async(
                    "gol.read", GolReadRequest(row, col, BLOCK, BLOCK))))
            for j, call in pending:
                try:
                    token = call.result(timeout=120)
                except Exception:
                    row, col = _block_origin(idx, j)
                    token = client.call(  # shed: retry under a new id
                        "gol.read", GolReadRequest(row, col, BLOCK, BLOCK),
                        timeout=120, retries=200, backoff=0.01)
                latencies.append(time.perf_counter() - t0)
                ok += 1
                if not verify(j, token.data.array):
                    wrong += 1

            # phase B: sequential reads, per-call latency
            for j in range(burst, burst + n_calls):
                row, col = _block_origin(idx, j)
                t0 = time.perf_counter()
                token = client.call(
                    "gol.read", GolReadRequest(row, col, BLOCK, BLOCK),
                    timeout=120, retries=200, backoff=0.01)
                latencies.append(time.perf_counter() - t0)
                ok += 1
                if not verify(j, token.data.array):
                    wrong += 1
            retries = client.busy_retries + client.failure_retries
        out.put((idx, "ok", ok, wrong, retries, latencies))
    except Exception as exc:  # pragma: no cover - harness failure path
        out.put((idx, f"error: {exc!r}", 0, 0, 0, []))


def run_load(n_clients=8, burst=4, n_calls=6,
             admission=AdmissionPolicy(max_concurrent=2, max_queue=2,
                                       session_window=8),
             faults=None, recover=None):
    """Boot the service, run the two-phase client load, return a report."""
    from repro.trace import MetricsRegistry

    world = _make_world()
    metrics = MetricsRegistry()
    engine = ServiceEngine(admission=admission, metrics=metrics,
                           faults=faults, recover=recover)
    gol = GameOfLifeService(engine, world, GOL_NODES)
    engine.expose(gol.read_graph, "gol.read")
    address = engine.serve()
    gol.load()

    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    barrier = ctx.Barrier(n_clients)
    procs = [ctx.Process(target=_client_proc,
                         args=(address, i, burst, n_calls, barrier,
                               world, out))
             for i in range(n_clients)]
    t0 = time.perf_counter()
    try:
        for p in procs:
            p.start()
        reports = [out.get(timeout=300) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        elapsed = time.perf_counter() - t0

        errors = [s for _, s, *_ in reports if s != "ok"]
        ok = sum(r[2] for r in reports)
        wrong = sum(r[3] for r in reports)
        retries = sum(r[4] for r in reports)
        latencies = sorted(lat for r in reports for lat in r[5])

        def pct(values, q):
            if not values:
                return 0.0
            idx = min(len(values) - 1, max(0, round(q * (len(values) - 1))))
            return values[idx]

        recovered, replayed = engine.recovery_snapshot()
        counters = metrics.snapshot().get("counters", {})
        drained = engine.drain(timeout=60)
        return {
            "clients": n_clients,
            "calls_ok": ok,
            "calls_expected": n_clients * (burst + n_calls),
            "incorrect": wrong,
            "errors": errors,
            "shed": counters.get("svc_shed", 0),
            "duplicates": counters.get("svc_duplicates", 0),
            "client_retries": retries,
            "requests_per_sec": round(ok / elapsed, 1) if elapsed else 0.0,
            "latency_ms_p50": round(pct(latencies, 0.50) * 1e3, 2),
            "latency_ms_p99": round(pct(latencies, 0.99) * 1e3, 2),
            "recovered": recovered,
            "replayed_tokens": replayed,
            "drained": drained,
        }
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        engine.shutdown()


def test_service_tier_load():
    report = run_load()
    print()
    print(f"[service-tier] {report}")
    assert not report["errors"], report["errors"]
    assert report["clients"] >= 8
    assert report["calls_ok"] == report["calls_expected"]
    assert report["incorrect"] == 0
    # the synchronized burst (8 clients x 4 calls vs capacity 4) must
    # overload admission: sheds answered BUSY, clients retried through
    assert report["shed"] > 0
    assert report["client_retries"] > 0
    assert report["drained"] is True

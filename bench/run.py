"""Run the benchmark: ``python -m bench.run`` from the repository root.

Two ways to call it:

``--workload W --seed N --seconds S --trace 0|1``
    One run of one workload.  ``--trace 0`` is the timed pass — no
    tracer, no registry — and prints every end-to-end metric, timings
    divided by the machine's slowdown (``measure.slowdown``);
    ``--trace 1`` is the traced pass plus the layer probes and prints
    every per-layer metric.  The last line of standard output is one
    JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

no ``--workload``
    Every workload, both passes, each in a process of its own (an
    engine forks, and a fork wants a parent without leftover threads).
    ``--out FILE`` keeps the snapshot; ``--repeat 2`` runs two sets
    back to back and compares them with ``bench.compare``.

The exit code is 0 only when every output checked was correct.  On the
way out the process waits for every descendant to end, and kills what
does not (``measure.leave_no_process``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from . import ROOT, load_contract

# a checkout is not an installed package: import the program from src/
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import MetricsRegistry, Tracer, export_chrome_trace  # noqa: E402

from . import ledger  # noqa: E402
from .measure import (  # noqa: E402
    REFERENCE_SPIN_MS,
    Processes,
    Spans,
    adopt_orphans,
    cpu_delta,
    iqr_frac,
    leave_no_process,
    percentile,
    slowdown,
    summarize,
)
from .workloads import WORKLOADS, Rep, Workload  # noqa: E402

#: cold engine lifetimes timed for ``setup_s``: at least this many, and
#: more while they are cheap, so millisecond set-ups get a steady median
MIN_SETUP_LIFETIMES = 9
MAX_SETUP_LIFETIMES = 25
SETUP_BUDGET_S = 1.0
MIN_REPS = 2
#: Warm up for at least this long as well as for one full rep.  After the
#: machine has been idle, thread and process hand-offs run up to twice
#: as fast for the first second or two of load (bench/README.md,
#: "Hazards"); timed reps must not straddle the end of that phase.
WARM_S = 2.0


# ---------------------------------------------------------------------------
# measuring reps
# ---------------------------------------------------------------------------

class TimedRep:
    """One rep with what was measured around it."""

    def __init__(self, rep: Rep, cpu: Dict[str, List[float]], slow: float):
        self.rep = rep
        self.cpu = cpu
        #: ``measure.slowdown()``, mean of the readings before and after
        self.slowdown = slow

    @property
    def tok_per_s(self) -> float:
        return self.rep.tokens / self.rep.seconds

    @property
    def cpu_us_per_tok(self) -> float:
        seconds = sum(sum(values) for values in self.cpu.values())
        return seconds * 1e6 / self.rep.tokens

    def latency_ms(self, q: float) -> float:
        """Percentile of this rep's operation latencies; a rep that is
        one operation (a batch job) has its own duration at every q."""
        if not self.rep.ops:
            return self.rep.seconds * 1e3
        return percentile(
            sorted(end - start for start, end in self.rep.ops), q) * 1e3


def run_reps(workload: Workload, procs: Processes, seconds: float,
             spans: Optional[Spans] = None,
             min_reps: int = MIN_REPS) -> List[TimedRep]:
    """Repeat ``workload.rep()`` for about *seconds*.

    Stops before the rep that would overrun, but never short of
    *min_reps*.  A rep that raises counts all its tokens as failed and
    ends the loop: the engine is not trusted after an error.
    """
    reps: List[TimedRep] = []
    began = time.perf_counter()
    slow_after = slowdown()
    while True:
        slow_before = slow_after
        before = procs.cpu_seconds()
        rep_began = time.perf_counter()
        try:
            if spans is not None:
                with spans.span("rep") as span_id:
                    rep = workload.rep()
                for start, end in rep.ops:
                    spans.add("op", start, end, span_id)
            else:
                rep = workload.rep()
        except Exception as exc:
            print(f"# {workload.name}: rep failed: {exc!r}", file=sys.stderr)
            tokens = reps[-1].rep.tokens if reps else 1
            reps.append(TimedRep(
                Rep(tokens, tokens, time.perf_counter() - rep_began), {},
                slow_before))
            break
        cpu = cpu_delta(before, procs.cpu_seconds())
        slow_after = slowdown()
        reps.append(TimedRep(rep, cpu, (slow_before + slow_after) / 2))
        elapsed = time.perf_counter() - began
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            break
    return reps


def warm_up(workload: Workload, procs: Processes,
            spans: Optional[Spans] = None) -> List[TimedRep]:
    """The discarded warm-up: lazy dials, plans and caches fill here.
    Only its outputs count, towards the verdict."""
    floor = WARM_S * min(1.0, workload.scale)
    return run_reps(workload, procs, floor, spans, min_reps=1)


def usable(reps: List[TimedRep]) -> List[TimedRep]:
    """The reps whose outputs were all correct; numbers come from these.
    With none, every rep is kept: the verdict already says incorrect."""
    return [r for r in reps if r.rep.failed == 0] or reps


def time_setups(cls, seed: int, scale: float) -> List[Tuple[float, float]]:
    """``(seconds, slowdown)`` from constructing the engine to a first
    verified result, over several cold lifetimes."""
    samples: List[Tuple[float, float]] = []
    budget = SETUP_BUDGET_S * min(1.0, scale)
    at_least = max(2, round(MIN_SETUP_LIFETIMES * min(1.0, scale)))
    began = time.perf_counter()
    while len(samples) < at_least or (
            len(samples) < MAX_SETUP_LIFETIMES
            and time.perf_counter() - began < budget):
        workload = cls(seed, scale)
        slow_before = slowdown()
        start = time.perf_counter()
        try:
            workload.open()
            seconds = time.perf_counter() - start
            samples.append((seconds, (slow_before + slowdown()) / 2))
        finally:
            workload.close()
    return samples


def _verdict(reps: List[TimedRep]) -> dict:
    attempted = sum(r.rep.tokens for r in reps)
    failed = sum(r.rep.failed for r in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------
# the two passes
# ---------------------------------------------------------------------------

def timed_pass(cls, seed: int, seconds: float, scale: float) -> dict:
    """End-to-end metrics: no tracer, no registry.

    Every timing is divided by the machine's slowdown measured right
    around it, so a slow minute of the machine does not read as a slow
    program; ``as_measured`` keeps the undivided medians.
    """
    setups = time_setups(cls, seed, scale)
    workload = cls(seed, scale)
    procs = Processes()
    workload.open()
    try:
        warm = warm_up(workload, procs)
        reps = run_reps(workload, procs, seconds)
        peak_rss = procs.peak_rss_mb()
    finally:
        workload.close()
    good = usable(reps)
    metrics = {
        "setup_s": summarize([s / slow for s, slow in setups]),
        "tok_per_s": summarize([r.tok_per_s * r.slowdown for r in good]),
        "cpu_us_per_tok": summarize([r.cpu_us_per_tok / r.slowdown
                                     for r in good]),
        "peak_rss_mb": summarize([peak_rss]),
    }
    as_measured = {
        "setup_s": statistics.median(s for s, _ in setups),
        "tok_per_s": statistics.median(r.tok_per_s for r in good),
        "cpu_us_per_tok": statistics.median(r.cpu_us_per_tok for r in good),
        "slowdown": statistics.median(r.slowdown for r in reps),
    }
    return {**_verdict(warm + reps), "metrics": metrics,
            "as_measured": as_measured}


def traced_pass(cls, seed: int, seconds: float, scale: float,
                trace_out: Optional[str]) -> dict:
    """Per-layer metrics: an untraced lifetime, a traced one, the probes.

    The same reps run with and without the program's ``tracer=`` and
    ``metrics=`` attached; the throughput lost between the two is the
    cost of tracing.  The kernels' buffers are collected once, after the
    last rep, so counts cover the traced lifetime whole — first result
    and every rep — and are divided by all its tokens.
    """
    spans = Spans()
    procs = Processes()
    share = seconds * 0.3
    with spans.span(cls.name):
        with spans.span("lifetime:untraced"):
            plain = cls(seed, scale)
            with spans.span("open"):
                began = time.perf_counter()
                plain.open()
                fork_s = time.perf_counter() - began
            try:
                warm = warm_up(plain, procs, spans)
                plain_reps = run_reps(plain, procs, share, spans, min_reps=1)
            finally:
                with spans.span("close"):
                    began = time.perf_counter()
                    plain.close()
                    shutdown_s = time.perf_counter() - began

        tracer, registry = Tracer(), MetricsRegistry()
        with spans.span("lifetime:traced"):
            workload = cls(seed, scale)
            with spans.span("open"):
                workload.open(tracer=tracer, metrics=registry)
            try:
                cpu_before = procs.cpu_seconds()
                reps = run_reps(workload, procs, share, spans, min_reps=1)
                cpu = cpu_delta(cpu_before, procs.cpu_seconds())
                collect_s = 0.0
                collect = getattr(workload.engine, "collect_traces", None)
                if collect is not None:
                    with spans.span("collect_traces"):
                        began = time.perf_counter()
                        collect()
                        collect_s = time.perf_counter() - began
                threads = procs.kernel_threads()
                nameserver_cpu = sum(procs.cpu_seconds().get("nameserver", []))
                with spans.span("probes"):
                    probed = ledger.run_probes(workload)
            finally:
                with spans.span("close"):
                    workload.close()

    good = usable(reps)
    good_reps = [r.rep for r in good]
    tokens = sum(rep.tokens for rep in good_reps)
    # the first traced rep also dials and fills caches: leave it out of
    # the rate when there is another
    traced_rate = statistics.median(r.tok_per_s for r in good[1:] or good)
    plain_good = usable(plain_reps)
    plain_rates = [r.tok_per_s for r in plain_good]
    plain_rate = statistics.median(plain_rates)

    metrics: Dict[str, float] = dict(probed)
    metrics.update(ledger.from_registry(registry.snapshot(), tokens))
    metrics.update(ledger.from_cpu(cpu, tokens))
    metrics.update(ledger.from_events(cls, tracer.events, good_reps, tokens))
    metrics.update(ledger.from_reps([r.rep for r in plain_good]))
    metrics.update(ledger.hop_budget(cls, metrics, plain_rate))
    metrics.update({
        "net.kernel.threads": float(max(threads)) if threads else 0.0,
        "net.nameserver.cpu_ms": nameserver_cpu * 1e3,
        "runtime.multiprocess_engine.fork_s": fork_s,
        "runtime.multiprocess_engine.shutdown_s": shutdown_s,
        "runtime.multiprocess_engine.collect_traces_s": collect_s,
        "trace.overhead_frac": 1.0 - traced_rate / plain_rate,
        "untraced.latency_ms_p50":
            statistics.median(r.latency_ms(0.50) for r in plain_good),
        "untraced.latency_ms_p99":
            statistics.median(r.latency_ms(0.99) for r in plain_good),
        "bench.spin_ms": REFERENCE_SPIN_MS * statistics.median(
            r.slowdown for r in plain_reps + reps),
        "bench.rep_iqr_frac": iqr_frac(plain_rates),
        "bench.warm_rep_tok_per_s": warm[0].tok_per_s,
    })
    if trace_out:
        # timing is over: the benchmark's spans join the program's events
        for name, start, end, parent in spans.records:
            tracer.emit(end, "op_end", pid="bench", node="spans", op=name,
                        duration=end - start,
                        parent=-1 if parent is None else parent)
        export_chrome_trace(tracer, trace_out)
    return {**_verdict(warm + plain_reps + reps),
            "metrics": {name: {"value": value} for name, value in metrics.items()},
            "self_seconds": spans.self_seconds()}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def host_block() -> dict:
    from repro.serial import codec_in_use
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "codec": codec_in_use()}


def attach_units(result: dict, declared: List[dict]) -> None:
    """Give every metric its declared unit; the contract and the code
    must name the same metrics."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    produced = set(result["metrics"])
    if produced != set(units):
        raise SystemExit(
            "BENCHMARK.json and bench/ disagree on metric names: "
            f"missing {sorted(set(units) - produced)}, "
            f"undeclared {sorted(produced - set(units))}")
    for name, entry in result["metrics"].items():
        entry["unit"] = units[name]


def print_table(workload: str, result: dict) -> None:
    for name in sorted(result["metrics"]):
        entry = result["metrics"][name]
        line = f"{workload:<16} {name:<52} {entry['value']:>14.6g} {entry['unit']:<6}"
        if entry.get("n", 1) > 1:
            line += (f" q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}"
                     f"  n {entry['n']}")
        print(line)
    failed_frac = result["failed"] / result["attempted"]
    print(f"{workload:<16} {'failed_frac':<52} {failed_frac:>14.6g} "
          f"{'':<6} {result['failed']} of {result['attempted']}")
    if "as_measured" in result:
        print(f"# {workload}: as measured, before dividing by the slowdown: "
              + "  ".join(f"{name} {value:.6g}"
                          for name, value in result["as_measured"].items()))


def print_hop_budget(workload: str, metrics: dict) -> None:
    """Where one token hop's time goes (``ledger.hop_budget``)."""
    total = metrics["hop.total_us"]["value"]
    if not total:
        return
    print(f"# {workload}: one-hop budget, {total:.1f} us "
          "(window / throughput / process boundaries)")
    for part in ("codec", "frame_syscall", "op_body", "window_wait",
                 "unattributed"):
        value = metrics[f"hop.{part}_us"]["value"]
        print(f"#   {part:<14} {value:>8.1f} us  {value / total:>6.1%}")


def run_one(args) -> int:
    contract = load_contract()
    cls = WORKLOADS[args.workload]
    if args.trace:
        result = traced_pass(cls, args.seed, args.seconds, args.scale,
                             args.trace_out)
        attach_units(result, contract["per_layer"])
    else:
        result = timed_pass(cls, args.seed, args.seconds, args.scale)
        attach_units(result, contract["end_to_end"])
    print_table(args.workload, result)
    if args.trace:
        print_hop_budget(args.workload, result["metrics"])
        for name, seconds in sorted(result["self_seconds"].items()):
            print(f"# span self time  {name:<20} {seconds:>8.3f} s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"host": host_block(), "seed": args.seed,
                       "workloads": {args.workload: {
                           "per_layer" if args.trace else "end_to_end": result}}},
                      fh, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def run_all(args, out_path: str) -> int:
    """Every workload, both passes, one child process each."""
    snapshot: dict = {"host": None, "seed": args.seed, "workloads": {}}
    status = 0
    names = list(WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for trace in (0, 1):
                part = os.path.join(tmp, f"{name}.{trace}.json")
                command = [sys.executable, "-m", "bench.run",
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--scale", str(args.scale),
                           "--trace", str(trace), "--out", part]
                began = time.perf_counter()
                done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                took = time.perf_counter() - began
                # the child's last line is for machines
                sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
                print(f"# {name} trace={trace}: {took:.1f} s wall, "
                      f"exit {done.returncode}")
                status = status or done.returncode
                if os.path.exists(part):
                    with open(part) as fh:
                        piece = json.load(fh)
                    snapshot["host"] = piece["host"]
                    snapshot["workloads"].setdefault(name, {}).update(
                        piece["workloads"][name])
    with open(out_path, "w") as fh:
        json.dump(snapshot, fh, indent=1)
    print(f"# snapshot written to {out_path}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python -m bench.run",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the snapshot to this JSON file")
    parser.add_argument("--trace-out",
                        help="with --trace 1: write a Chrome trace here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: run this many full sets "
                             "and compare consecutive ones")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink per-rep sizes (self-test only)")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)

    from . import compare
    status = 0
    previous = None
    out = args.out or os.path.join(tempfile.gettempdir(), "bench.json")
    for index in range(args.repeat):
        path = out if args.repeat == 1 else \
            f"{os.path.splitext(out)[0]}.{index}.json"
        status = run_all(args, path) or status
        if previous is not None:
            status = compare.main([previous, path]) or status
        previous = path
    return status


def _terminated(signum, frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # every way out of a run, a SIGTERM included, ends with the process
    # sweep: no kernel, name server or resource tracker outlives it
    signal.signal(signal.SIGTERM, _terminated)
    adopt_orphans()
    try:
        status = main()
        sys.stdout.flush()
    finally:
        leave_no_process()
    sys.exit(status)

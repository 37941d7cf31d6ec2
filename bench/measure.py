"""Measurement primitives: order statistics, /proc accounting, spin, spans,
the shared-memory sweep and the process sweep.

Nothing here imports the program under test, so the accounting keeps
working whatever later changes do to ``src/``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def quartiles(samples: Sequence[float]) -> Tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a single
    sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median with the quartiles, the count and the samples behind it."""
    q1, q3 = quartiles(samples)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": list(samples)}


def iqr_frac(samples: Sequence[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    q1, q3 = quartiles(samples)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------
# machine drift
# ---------------------------------------------------------------------------

def spin_ms(iterations: int = 200_000) -> float:
    """Time a fixed pure-Python loop.

    The program under test is not involved, so a change in this number
    between two runs is the machine (another tenant, frequency, steal),
    not the code.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i
    return (time.perf_counter() - start) * 1e3


#: What ``spin_ms()`` reads on the box the baselines were taken on, in
#: its normal state.  End-to-end timings are reported as if the machine
#: ran at this speed throughout.
REFERENCE_SPIN_MS = 10.0


def slowdown() -> float:
    """How slow the machine is right now: 1.0 at reference speed, 1.4
    when a fixed amount of work takes 40 % longer.

    This box slows down by 10-45 % for tens of seconds to minutes at a
    time; the spin loop and every workload slow down together
    (bench/README.md, "Machine speed").  The best of three short spins
    ignores a single preemption and still follows a phase.
    """
    return min(spin_ms() for _ in range(3)) / REFERENCE_SPIN_MS


# ---------------------------------------------------------------------------
# /proc accounting of this process and its multiprocessing children
# ---------------------------------------------------------------------------

def _stat_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        # the command name may contain spaces; fields resume after ")"
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def _status_field(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


class Processes:
    """CPU seconds, peak memory and thread counts, per process role.

    Roles: ``self`` (the benchmark process, which also hosts the
    console kernel and the load generator), ``kernel`` and
    ``nameserver`` (told apart by the names the engine gives its
    children), ``other`` for any child it names differently.  Children
    that exited between two readings are skipped, so take readings
    while the engine is up.
    """

    def _children(self) -> List[Tuple[str, int]]:
        out = []
        for child in multiprocessing.active_children():
            if child.pid is None:
                continue
            name = child.name or ""
            if "kernel" in name:
                role = "kernel"
            elif "nameserver" in name:
                role = "nameserver"
            else:
                role = "other"
            out.append((role, child.pid))
        return out

    def cpu_seconds(self) -> Dict[str, List[float]]:
        """User+system seconds so far: ``{role: [one per process]}``."""
        out: Dict[str, List[float]] = {"self": [time.process_time()]}
        for role, pid in self._children():
            try:
                out.setdefault(role, []).append(_stat_cpu_seconds(pid))
            except (OSError, IndexError):
                continue
        return out

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over this process and its live children."""
        total_kb = _status_field(os.getpid(), "VmHWM")
        for _, pid in self._children():
            try:
                total_kb += _status_field(pid, "VmHWM")
            except (OSError, KeyError):
                continue
        return total_kb / 1024.0

    def kernel_threads(self) -> List[int]:
        """Thread count of each live kernel process."""
        counts = []
        for role, pid in self._children():
            if role != "kernel":
                continue
            try:
                counts.append(_status_field(pid, "Threads"))
            except (OSError, KeyError):
                continue
        return counts


def cpu_delta(before: Dict[str, List[float]],
              after: Dict[str, List[float]]) -> Dict[str, List[float]]:
    """Per-process CPU seconds spent between two ``cpu_seconds()``."""
    out = {}
    for role, values in after.items():
        base = before.get(role, [])
        if len(base) == len(values):
            out[role] = [b - a for a, b in zip(base, values)]
    return out


# ---------------------------------------------------------------------------
# shared-memory sweep
# ---------------------------------------------------------------------------

_SHM_DIR = "/dev/shm"


def shm_segments() -> Set[str]:
    """Names of the POSIX shared-memory segments that exist now."""
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def sweep_shm(before: Set[str]) -> int:
    """Unlink the segments an engine lifetime left behind.

    From the second engine lifetime in a process on, the program leaks
    its ``psm_*`` arenas past shutdown and past exit (16 MiB each,
    bench/README.md "Hazards").  A benchmark must leave nothing behind,
    so after every lifetime this removes the segments that appeared
    since *before*, belong to this user and are mapped by no other live
    process — another benchmark running beside this one keeps its own.
    This process's own stale mappings (the console kernel never unmaps
    its peers' arenas) do not count: its engine is already down.
    """
    fresh = {name for name in shm_segments() - before
             if name.startswith("psm_")}
    if not fresh:
        return 0
    mapped = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        if int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/maps") as fh:
                for line in fh:
                    if _SHM_DIR in line:
                        mapped.add(line.split()[-1].rsplit("/", 1)[-1])
        except OSError:
            continue
    removed = 0
    for name in fresh - mapped:
        path = os.path.join(_SHM_DIR, name)
        try:
            if os.stat(path).st_uid == os.getuid():
                os.unlink(path)
                removed += 1
        except OSError:
            continue
    return removed


# ---------------------------------------------------------------------------
# leaving no process behind
# ---------------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of its orphaned descendants.

    A kernel process that touches shared memory starts a resource
    tracker of its own, which outlives it by a moment; without this the
    tracker is handed to init and can outlive the benchmark too.  Call
    once, before the first engine is built.
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (ImportError, OSError, AttributeError):
        return False


def _child_states() -> Dict[int, str]:
    """``{pid: state}`` of every process whose parent is this one."""
    me = os.getpid()
    out: Dict[int, str] = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            out[int(pid)] = fields[0]
    return out


def leave_no_process(grace: float = 5.0) -> int:
    """Wait until every descendant has ended; returns how many had to be
    killed.

    After ``adopt_orphans()`` every descendant is, or becomes when its
    parent ends, a child of this process, so an empty child list means
    nothing is left.  Engines still up (an error path) are terminated,
    this process's own resource tracker is told to stop, and what has
    not ended *grace* seconds later is killed.
    """
    stray = multiprocessing.active_children()
    for child in stray:
        child.terminate()
    for child in stray:
        child.join(grace)
    try:
        # the tracker ignores SIGTERM and lives until its pipe closes;
        # no public call closes it before interpreter exit
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    killed: Set[int] = set()
    began = time.monotonic()
    while time.monotonic() - began < 3 * grace:
        children = _child_states()
        if not children:
            break
        overdue = time.monotonic() - began > grace
        for pid, state in children.items():
            try:
                if overdue and state != "Z" and pid not in killed:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                continue
        time.sleep(0.002)
    return len(killed)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory span recorder: name, start, end, parent.

    Spans are recorded around the calls into the program, from the
    benchmark's side only, and written out after timing ends.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]``
        self.records: List[list] = []
        self._stack = threading.local()

    def _parents(self) -> List[int]:
        stack = getattr(self._stack, "ids", None)
        if stack is None:
            stack = self._stack.ids = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the block, nested under the open one."""
        parents = self._parents()
        index = len(self.records)
        record = [name, time.monotonic(), None, parents[-1] if parents else None]
        self.records.append(record)
        parents.append(index)
        try:
            yield index
        finally:
            record[2] = time.monotonic()
            parents.pop()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> None:
        """Record a span measured elsewhere (e.g. one request)."""
        self.records.append([name, start, end, parent])

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None and end is not None:
                covered[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _), child_time in zip(self.records, covered):
            if end is not None:
                out[name] = out.get(name, 0.0) + max(0.0, end - start - child_time)
        return out

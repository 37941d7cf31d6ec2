"""Shutdown reaps every forked process — even on interrupted startup.

Regression suite for the orphaned-process bug: a failure (or ^C) after
the first child forked but before the console was up used to leak a
process holding the name-service port.  Every path out of
``_ensure_started`` must now reap the whole brood and free the port
(each kernel inherits the listener), and a GC'd engine that was never
shut down has a ``weakref.finalize`` backstop.
"""

import multiprocessing
import socket
import time

import pytest

from repro.apps.ring import RingJobToken, build_ring_graph
from repro.apps.strings import StringToken, build_uppercase_graph
from repro.runtime import MultiprocessEngine, create_engine
from repro.runtime.multiprocess_engine import _reap_processes
from repro.trace import MetricsRegistry


def _graph(name):
    graph, *_ = build_uppercase_graph("node01", "node01", name=name)
    return graph


def _assert_all_dead(procs):
    for proc in procs:
        proc.join(timeout=10)
        assert not proc.is_alive(), f"{proc.name} leaked"


def _assert_port_free(address):
    """Nothing listens on *address* any more: it can be bound again."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
        sock.listen(1)


class _KernelForkRefused:
    """mp-context wrapper whose kernel Process() calls explode — the
    name-service listener is bound by then."""

    def __init__(self, real):
        self._real = real

    def Process(self, *args, **kwargs):
        if kwargs.get("name", "").startswith("dps-kernel"):
            raise RuntimeError("fork refused (injected)")
        return self._real.Process(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_failed_kernel_fork_reaps_name_server():
    engine = MultiprocessEngine()
    engine.register_graph(_graph("reap.fork"))
    wrapper = _KernelForkRefused(engine._mp)
    engine._mp = wrapper
    with pytest.raises(RuntimeError, match="fork refused"):
        engine.run(engine._graphs["reap.fork"], StringToken("x"))
    assert engine.ns_address, "the listener was never bound: test is vacuous"
    _assert_port_free(engine.ns_address)
    assert not engine._orphans
    assert not multiprocessing.active_children()


class _InterruptBeforeConsole(MultiprocessEngine):
    """^C arriving after every kernel process forked, before the console
    kernel exists — the worst spot for the old leak, and by now the
    console's loop has adopted the listener."""

    def _make_console(self, *args, **kwargs):
        self.forked = list(self._orphans)
        raise KeyboardInterrupt


def test_interrupt_during_startup_reaps_all_processes():
    engine = _InterruptBeforeConsole()
    engine.register_graph(_graph("reap.sigint"))
    with pytest.raises(KeyboardInterrupt):
        engine.run(engine._graphs["reap.sigint"], StringToken("x"))
    # the one kernel had forked by the time the "signal" hit
    assert len(engine.forked) == 1
    _assert_all_dead(engine.forked)
    _assert_port_free(engine.ns_address)
    assert not engine._orphans


def test_shutdown_is_idempotent_and_clears_orphans():
    engine = MultiprocessEngine()
    engine.register_graph(_graph("reap.twice"))
    result = engine.run(engine._graphs["reap.twice"], StringToken("ab"))
    assert result.text == "AB"
    procs = list(engine._orphans)
    assert procs
    engine.shutdown()
    engine.shutdown()  # second call is a no-op, not an error
    _assert_all_dead(procs)
    assert not engine._orphans


def test_shutdown_after_a_ring_run_does_not_sleep():
    """Kernel shutdown must wake the ack flusher, not wait out its idle
    poll: every lifetime used to end ~0.5 s late on each kernel."""
    nodes = ["node01", "node02", "node03", "node04"]
    graph = build_ring_graph(nodes)
    engine = MultiprocessEngine()
    engine.register_graph(graph)
    try:
        done = engine.run(graph, RingJobToken(512, 4), timeout=60)
        assert done.blocks == 4
    finally:
        t0 = time.monotonic()
        engine.shutdown()
        elapsed = time.monotonic() - t0
    assert elapsed < 0.25, f"shutdown took {elapsed:.3f}s"


@pytest.mark.parametrize("recover", [False, True])
def test_shutdown_after_a_kernel_kill_does_not_wait_for_the_dead(recover):
    """Only kernels that can still hear it are asked to stop.  Asking a
    dead one made the console dial a name nobody holds and then sit out
    a 5 s flush timeout (eight tier-1 tests each paid it)."""
    nodes = ["node01", "node02", "node03", "node04"]
    graph = build_ring_graph(nodes)
    engine = MultiprocessEngine(recover=recover)
    engine.register_graph(graph)
    try:
        assert engine.run(graph, RingJobToken(512, 4), timeout=60).blocks == 4
        engine.fail_node("node03")
    finally:
        t0 = time.monotonic()
        engine.shutdown()
        elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"shutdown took {elapsed:.3f}s"
    assert not multiprocessing.active_children()


def _sleep_forever():
    time.sleep(3600)


def test_reap_processes_terminates_and_swallows_errors():
    proc = multiprocessing.get_context("fork").Process(
        target=_sleep_forever, daemon=True)
    proc.start()

    class Unreapable:
        def is_alive(self):
            return True

        def terminate(self):
            raise OSError("already gone")

    # the broken handle must not prevent the real process being reaped
    _reap_processes([Unreapable(), proc])
    _assert_all_dead([proc])
    _reap_processes([proc])  # reaping the dead again is fine


def test_ns_port_is_a_multiprocess_option():
    engine = create_engine("multiprocess", ns_port=0)
    assert isinstance(engine, MultiprocessEngine)
    assert engine.ns_address is None  # not started yet
    engine.shutdown()
    with pytest.raises(ValueError, match="'ns_port' is a multiprocess"):
        create_engine("sim", ns_port=7780)


def test_a_fixed_ns_port_serves_again_right_after_shutdown():
    """Every kernel that inherited the name-service listener is reaped by
    ``shutdown()``: the next engine on the same fixed port starts."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    for life in range(2):
        engine = MultiprocessEngine(ns_port=port)
        engine.register_graph(_graph(f"reap.port{life}"))
        try:
            assert engine.run(engine._graphs[f"reap.port{life}"],
                              StringToken("ab")).text == "AB"
            assert engine.ns_address == ("127.0.0.1", port)
        finally:
            engine.shutdown()


def test_ns_address_resolves_on_start():
    engine = MultiprocessEngine()
    engine.register_graph(_graph("reap.addr"))
    try:
        assert engine.run(engine._graphs["reap.addr"],
                          StringToken("hi")).text == "HI"
        host, port = engine.ns_address
        assert host == "127.0.0.1" and port > 0
    finally:
        engine.shutdown()


class _ExitingProc:
    """Process handle of a kernel that exits as soon as it is joined
    (it had been asked to stop) or killed."""

    def __init__(self):
        self.alive = True

    def join(self, timeout=None):
        self.alive = False

    kill = join

    def is_alive(self):
        return self.alive


class _ResizingConsole:
    """Console stand-in whose trace pull walks its peers and grows the
    engine's kernel table between two of them — what a join on the
    console's loop does between two of the loop's callbacks."""

    def __init__(self, engine):
        self.engine = engine
        self.pulls = []
        self._dead_kernels = set()

    def _call(self, fn):
        return fn()

    def leaving(self):
        pass

    def collect_traces(self, peers, timeout=5.0):
        seen = []
        for peer in peers:
            if not seen:
                self.engine._kernel_procs["late"] = _ExitingProc()
            seen.append(peer)
        self.pulls.append(seen)
        return []

    def request_shutdown(self, name):
        pass

    def shutdown(self):
        pass


@pytest.mark.parametrize("pull", ["collect_traces", "shutdown"])
def test_trace_pull_survives_kernel_table_resize(pull):
    """Both trace pulls hand the console a snapshot of the kernel names,
    not the live table another thread may resize ("dictionary changed
    size during iteration", which shutdown() swallowed along with the
    traces)."""
    engine = MultiprocessEngine(metrics=MetricsRegistry())
    engine._kernel_procs.update(k1=_ExitingProc(), k2=_ExitingProc())
    console = engine._console = _ResizingConsole(engine)
    try:
        getattr(engine, pull)()
        assert console.pulls[0] == ["k1", "k2"]
        assert "late" in engine._kernel_procs
    finally:
        engine.shutdown()


def test_ten_lifetimes_leave_no_arena_and_no_process():
    """bench/README hazard (e): every engine lifetime from the second on
    left its ``psm_*`` arenas in /dev/shm (the peers' teardown was queued
    on an I/O loop that closed before running it)."""
    measure = pytest.importorskip("bench.measure")
    nodes = ["node01", "node02", "node03", "node04"]
    before = measure.shm_segments()
    for life in range(10):
        graph = build_ring_graph(nodes)
        engine = MultiprocessEngine()
        engine.register_graph(graph)
        try:
            # 64 KiB blocks cross shm_threshold: every hop uses the lane.
            done = engine.run(graph, RingJobToken(1 << 16, 8), timeout=60)
            assert done.blocks == 8
        finally:
            engine.shutdown()
        leaked = {name for name in measure.shm_segments() - before
                  if name.startswith("psm_")}
        assert not leaked, f"lifetime {life + 1} left {sorted(leaked)}"
    assert measure.sweep_shm(before) == 0
    assert not multiprocessing.active_children()
    # No resource tracker either, this process's or a kernel's.
    assert measure._child_states() == {}

"""End-to-end resident service tier: sessions, calls, admission, drain.

One module-scoped cluster serves an ``echo`` graph (uppercase with an
optional slow path and a poison input) to real :class:`ServiceClient`
sessions over TCP.  Admission numbers are deliberately tiny
(2 executing + 2 queued) so overload is easy to provoke.
"""

import gc
import socket
import threading
import time
import warnings

import pytest

from repro.core import (
    ConstantRoute,
    DpsThread,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    MergeOperation,
    SplitOperation,
    ThreadCollection,
)
from repro.net import DuplicateRegistration, NameServerClient, \
    UnknownKernel
from repro.runtime import ScheduleError
from repro.serial import SimpleToken
from repro.service import (
    AdmissionPolicy,
    ServiceBusy,
    ServiceClient,
    ServiceEngine,
    ServiceTimeout,
)
from repro.trace import MetricsRegistry


class TierJob(SimpleToken):
    def __init__(self, text: str = ""):
        self.text = text


class TierChunk(SimpleToken):
    def __init__(self, text: str = ""):
        self.text = text


class TierMain(DpsThread):
    pass


class TierWork(DpsThread):
    pass


class TierSplit(SplitOperation):
    thread_type = TierMain
    in_types = (TierJob,)
    out_types = (TierChunk,)

    def execute(self, tok):
        self.post(TierChunk(tok.text))


class TierLeaf(LeafOperation):
    """Uppercase; 'slow ...' sleeps, 'boom ...' raises."""

    thread_type = TierWork
    in_types = (TierChunk,)
    out_types = (TierChunk,)

    def execute(self, tok):
        if tok.text.startswith("slow"):
            time.sleep(0.3)
        if tok.text.startswith("boom"):
            raise ValueError(f"poison input {tok.text!r}")
        self.post(TierChunk(tok.text.upper()))


class TierMerge(MergeOperation):
    thread_type = TierMain
    in_types = (TierChunk,)
    out_types = (TierJob,)

    def execute(self, tok):
        text = tok.text
        while tok is not None:
            tok = yield self.next_token()
        yield self.post(TierJob(text))


def build_tier_graph(name="tier.echo"):
    main = ThreadCollection(TierMain, f"{name}-main").map("node01")
    work = ThreadCollection(TierWork, f"{name}-work").map("node01 node02")
    builder = (
        FlowgraphNode(TierSplit, main)
        >> FlowgraphNode(TierLeaf, work, ConstantRoute)
        >> FlowgraphNode(TierMerge, main)
    )
    return Flowgraph(builder, name)


ADMISSION = AdmissionPolicy(max_concurrent=2, max_queue=2, session_window=8)


@pytest.fixture(scope="module")
def tier():
    metrics = MetricsRegistry()
    engine = ServiceEngine(admission=ADMISSION, metrics=metrics)
    engine.expose(build_tier_graph(), "echo")
    address = engine.serve()
    yield engine, address, metrics
    engine.drain_and_shutdown()


def test_basic_call(tier):
    _, address, _ = tier
    with ServiceClient(address) as client:
        assert client.window == ADMISSION.session_window
        assert client.session_id is not None
        result = client.call("echo", TierJob("hello service"), timeout=30)
        assert result.text == "HELLO SERVICE"


def test_calls_run_on_the_console_loop_not_on_worker_threads(tier):
    """An admitted call is an activation started on the console's I/O
    loop: serving starts no service worker thread."""
    _, address, _ = tier
    with ServiceClient(address) as client:
        calls = [client.call_async("echo", TierJob(f"loop {i}"))
                 for i in range(ADMISSION.max_concurrent + 1)]
        assert [c.result(30).text for c in calls] == [
            f"LOOP {i}" for i in range(ADMISSION.max_concurrent + 1)]
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("dps-svc-worker")]


def test_out_of_order_correlation(tier):
    """Replies correlate by request id even when they finish out of
    order (a slow call issued first must not steal a fast reply)."""
    _, address, _ = tier
    with ServiceClient(address) as client:
        slow = client.call_async("echo", TierJob("slow first"))
        fast = [client.call_async("echo", TierJob(f"fast {i}"))
                for i in range(3)]
        results = [c.result(30) for c in fast]
        assert [r.text for r in results] == \
            ["FAST 0", "FAST 1", "FAST 2"]
        assert slow.result(30).text == "SLOW FIRST"


def test_discover_lists_signature(tier):
    _, address, _ = tier
    with ServiceClient(address) as client:
        records = {r["service"]: r for r in client.discover()}
        assert "echo" in records
        assert records["echo"]["provider"] == "__driver__"
        assert records["echo"]["in_types"] == ["TierJob"]
        assert records["echo"]["out_types"] == ["TierJob"]


def test_unknown_service_raises(tier):
    _, address, _ = tier
    with ServiceClient(address) as client:
        with pytest.raises(ScheduleError, match="unknown service"):
            client.call("nosuch", TierJob("x"), timeout=30)
        # the session is still usable afterwards
        assert client.call("echo", TierJob("ok"), timeout=30).text == "OK"


def test_bad_input_type_rejected_cheaply(tier):
    """A token the entry operation does not accept is refused on the
    protocol path, without running the graph — the session stays alive."""
    _, address, _ = tier
    with ServiceClient(address) as client:
        with pytest.raises(ScheduleError, match="does not accept"):
            client.call("echo", TierChunk("wrong type"), timeout=30)
        assert client.call("echo", TierJob("alive"), timeout=30).text \
            == "ALIVE"


def test_two_clients_get_distinct_sessions(tier):
    _, address, _ = tier
    with ServiceClient(address) as c1, ServiceClient(address) as c2:
        assert c1.session_id != c2.session_id
        a = c1.call_async("echo", TierJob("from one"))
        b = c2.call_async("echo", TierJob("from two"))
        assert a.result(30).text == "FROM ONE"
        assert b.result(30).text == "FROM TWO"


def test_client_runs_exactly_one_io_thread(tier):
    """The client's whole wire side — accepting the console's dial-back,
    reading replies, sending calls — is one ``dps-io:`` loop thread,
    gone again after ``close()``."""
    _, address, _ = tier

    def census():
        return sorted(t.name for t in threading.enumerate())

    before = census()
    with ServiceClient(address, name="census-client") as client:
        assert client.call("echo", TierJob("census"), timeout=30).text \
            == "CENSUS"
        gained = census()
        for name in before:
            gained.remove(name)
        assert gained == ["dps-io:census-client"]
    assert census() == before


def test_same_name_reopens_back_to_back(tier):
    """A client name is reusable as soon as its session is closed: the
    console answers each OPEN through a fresh dial to the new listener,
    not the channel cached for the previous session."""
    _, address, _ = tier
    sessions = []
    for i in range(3):
        with ServiceClient(address, name="same-name") as client:
            assert client.window == ADMISSION.session_window
            sessions.append(client.session_id)
            assert client.call("echo", TierJob(f"round {i}"),
                               timeout=30).text == f"ROUND {i}"
    assert len(set(sessions)) == 3


def test_reply_to_a_closed_session_is_not_delivered_to_its_successor(tier):
    """Request ids restart with every client object, so a reply that
    outlives its session must not settle the same id of the next one."""
    _, address, _ = tier
    with ServiceClient(address, name="hasty") as first:
        orphan = first.call_async("echo", TierJob("slow orphan"))
    with ServiceClient(address, name="hasty") as second:
        call = second.call_async("echo", TierJob("slow heir"))
        assert call.request_id == orphan.request_id
        assert call.result(30).text == "SLOW HEIR"


def test_failed_open_leaves_nothing_behind(tier):
    """``with ServiceClient(...)`` whose OPEN is never answered raises
    and releases what the constructor took: loop thread, listener, name."""
    _, address, _ = tier

    class Impatient(ServiceClient):
        def open(self, timeout=0.2):
            return super().open(timeout)

    with socket.socket() as mute, NameServerClient(address) as ns:
        mute.bind(("127.0.0.1", 0))
        mute.listen(1)  # connects succeed; nothing ever reads or answers
        ns.register("mute-console", *mute.getsockname()[:2])
        with pytest.raises(ServiceTimeout):
            with Impatient(address, name="jilted", server="mute-console"):
                pass
        assert "dps-io:jilted" not in {t.name for t in threading.enumerate()}
        with pytest.raises(UnknownKernel):
            ns.lookup("jilted")


def test_a_taken_name_leaves_no_socket_open(tier):
    """A client whose registration is refused closes its listener and
    its name-service connection before the error leaves the
    constructor: nothing is left for the collector to warn about."""
    _, address, _ = tier
    with NameServerClient(address) as ns:
        ns.register("taken", "127.0.0.1", 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(DuplicateRegistration):
                ServiceClient(address, name="taken")
            gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def test_overload_sheds_with_busy(tier):
    """More in-flight calls than capacity: the excess is answered
    MSG_SVC_BUSY immediately, the admitted ones all complete."""
    _, address, metrics = tier
    shed_before = metrics.counter("svc_shed").value
    with ServiceClient(address) as client:
        calls = [client.call_async("echo", TierJob(f"slow burst {i}"))
                 for i in range(8)]
        ok, busy = [], []
        for call in calls:
            try:
                ok.append(call.result(60).text)
            except ServiceBusy as exc:
                busy.append(str(exc))
        assert len(ok) + len(busy) == 8
        assert len(ok) >= ADMISSION.capacity  # everything admitted finished
        assert busy, "expected at least one shed under 2x overload"
        assert all(text.startswith("SLOW BURST") for text in ok)
    assert metrics.counter("svc_shed").value > shed_before


def test_busy_retries_eventually_succeed(tier):
    """client.call retries sheds with backoff under NEW request ids;
    under sustained 2x overload every call still completes correctly."""
    _, address, _ = tier
    results = {}
    errors = []

    def one(client, i):
        try:
            results[i] = client.call(
                "echo", TierJob(f"slow retry {i}"), timeout=60,
                retries=30, backoff=0.05).text
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    with ServiceClient(address) as client:
        threads = [threading.Thread(target=one, args=(client, i))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert sorted(results.values()) == sorted(
            f"SLOW RETRY {i}".upper() for i in range(8))


def test_service_metrics_populated(tier):
    engine, _, metrics = tier
    assert metrics.counter("svc_calls").value > 0
    latency = metrics.histogram("svc_latency_seconds:echo")
    assert latency.count > 0 and latency.max > 0
    stats = engine.service_stats()
    assert stats["services"] == ["echo"]
    assert stats["outstanding"] == 0


def test_only_a_loop_thread_writes_a_socket(monkeypatch):
    """Every ``sendmsg`` in this process — two clients' opens, calls from
    two caller threads, a resent call, closes, the console's replies and
    its shutdown requests — is made by a ``dps-io:`` loop thread: a
    caller hands its send over and never writes a socket itself."""
    writers = []
    sendmsg = socket.socket.sendmsg

    def recording(self, *args):
        writers.append(threading.current_thread().name)
        return sendmsg(self, *args)

    monkeypatch.setattr(socket.socket, "sendmsg", recording)
    metrics = MetricsRegistry()
    engine = ServiceEngine(admission=ADMISSION, metrics=metrics)
    engine.expose(build_tier_graph("tier.writers"), "echo")
    address = engine.serve()
    try:
        with ServiceClient(address) as c1, ServiceClient(address) as c2:
            texts = {}

            def calls(client, tag):
                texts[tag] = [client.call("echo", TierJob(f"{tag} {i}"),
                                          timeout=30).text for i in range(4)]

            callers = [threading.Thread(target=calls, args=(c, tag))
                       for c, tag in ((c1, "one"), (c2, "two"))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
            assert texts == {tag: [f"{tag} {i}".upper() for i in range(4)]
                             for tag in ("one", "two")}
            resent = c1.call_async("echo", TierJob("slow resent"))
            assert resent.result(30, resend_after=0.05).text == "SLOW RESENT"
            assert metrics.counter("svc_duplicates").value > 0
    finally:
        engine.shutdown()
    assert writers
    assert {w for w in writers if not w.startswith("dps-io:")} == set()


def test_drain_sheds_then_shutdown():
    """A draining console sheds new calls with reason 'draining', lets
    in-flight ones finish, and tears down cleanly."""
    engine = ServiceEngine(
        admission=AdmissionPolicy(max_concurrent=2, max_queue=2,
                                  session_window=4))
    engine.expose(build_tier_graph("tier.drain"), "echo")
    address = engine.serve()
    try:
        with ServiceClient(address) as client:
            inflight = client.call_async("echo", TierJob("slow last"))
            time.sleep(0.05)  # let the call be admitted
            drained_box = {}
            drainer = threading.Thread(
                target=lambda: drained_box.setdefault(
                    "drained", engine.drain(timeout=30)))
            drainer.start()
            time.sleep(0.05)  # drain flag is set while the call runs
            with pytest.raises(ServiceBusy, match="draining"):
                client.call("echo", TierJob("too late"), timeout=30)
            assert inflight.result(60).text == "SLOW LAST"
            drainer.join(timeout=30)
            assert drained_box["drained"] is True
    finally:
        engine.shutdown()


def test_op_exception_reraises_but_poisons_engine():
    """An exception raised *inside* an operation follows the
    run-to-completion model: the original exception reaches the caller,
    but the engine is failed afterwards (operations must not raise; use
    protocol-level errors for expected failures).  Runs last on its own
    cluster because it deliberately kills it."""
    engine = ServiceEngine(
        admission=AdmissionPolicy(max_concurrent=2, max_queue=2,
                                  session_window=4),
        recover=False)
    engine.expose(build_tier_graph("tier.boom"), "echo")
    address = engine.serve()
    try:
        with ServiceClient(address) as client:
            with pytest.raises(ValueError, match="poison input"):
                client.call("echo", TierJob("boom now"), timeout=30)
            with pytest.raises(ScheduleError, match="failed"):
                client.call("echo", TierJob("dead now"), timeout=30)
    finally:
        engine.shutdown()

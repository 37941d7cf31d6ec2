"""Round-trips for every kernel-to-kernel protocol message."""

import pickle

import numpy as np
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
from repro.net import protocol as P
from repro.runtime.base import DataEnvelope, GroupFrame
from repro.serial import (FRAME_VERSION, Buffer, ComplexToken, SimpleToken,
                          WireError, encode, gather)


class ProtoJob(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class ProtoChunk(ComplexToken):
    def __init__(self, idx=0, data=None):
        self.idx = idx
        self.data = Buffer(data if data is not None else [])


class ProtoThread(DpsThread):
    pass


class ProtoSplit(SplitOperation):
    thread_type = ProtoThread
    in_types = (ProtoJob,)
    out_types = (ProtoChunk,)

    def execute(self, tok):
        self.post(ProtoChunk(0, np.zeros(1)))


class ProtoWork(LeafOperation):
    thread_type = ProtoThread
    in_types = (ProtoChunk,)
    out_types = (ProtoChunk,)

    def execute(self, tok):
        self.post(tok)


class ProtoMerge(MergeOperation):
    thread_type = ProtoThread
    in_types = (ProtoChunk,)
    out_types = (ProtoJob,)

    def execute(self, tok):
        while tok is not None:
            tok = yield self.next_token()
        yield self.post(ProtoJob())


@pytest.fixture
def graph():
    main = ThreadCollection(ProtoThread, "pmain").map("nodeA")
    work = ThreadCollection(ProtoThread, "pwork").map("nodeB nodeC")
    g = Flowgraph(
        FlowgraphNode(ProtoSplit, main)
        >> FlowgraphNode(ProtoWork, work, ConstantRoute)
        >> FlowgraphNode(ProtoMerge, main),
        "proto-graph",
    )
    return g


def roundtrip(segments, graphs):
    return P.decode_message(bytearray(gather(segments)), graphs)


def test_data_roundtrip(graph):
    payload = np.arange(7, dtype=np.float64)
    frames = (
        GroupFrame(group_id=(3 << 40) + 9, index=4, opener=0,
                   opener_instance=0, origin_node="nodeA",
                   routed_instance=1),
    )
    env = DataEnvelope(ProtoChunk(5, payload), graph, 1, 1,
                       (2 << 40) + 17, frames, ctx_origin="__driver__")
    kind, out = roundtrip(P.encode_data(env), {graph.name: graph})
    assert kind == P.MSG_DATA
    assert out.graph is graph
    assert (out.node_id, out.instance, out.ctx_id) == (1, 1, (2 << 40) + 17)
    assert out.ctx_origin == "__driver__"
    assert out.frames == frames
    assert out.token.idx == 5
    assert np.array_equal(out.token.data.array, payload)


def test_data_without_origin_or_frames(graph):
    env = DataEnvelope(ProtoJob(3), graph, 0, 0, 1, ())
    kind, out = roundtrip(P.encode_data(env), {graph.name: graph})
    assert kind == P.MSG_DATA
    assert out.ctx_origin is None
    assert out.frames == ()
    assert out.token.n == 3


def test_data_unknown_graph_rejected(graph):
    env = DataEnvelope(ProtoJob(1), graph, 0, 0, 1, ())
    wire = bytearray(gather(P.encode_data(env)))
    with pytest.raises(WireError, match="unknown graph"):
        P.decode_message(wire, {})


def test_ack_roundtrip():
    kind, ack = roundtrip(P.encode_ack("g", 3, 1, 2), {})
    assert kind == P.MSG_ACK
    assert ack == ("g", 3, 1, 2, 0, 0)


def test_group_total_roundtrip():
    kind, value = roundtrip(P.encode_group_total((5 << 40) + 2, 1234), {})
    assert kind == P.MSG_GROUP_TOTAL
    assert value == ((5 << 40) + 2, 1234)


def test_result_roundtrip():
    token = ProtoChunk(9, np.linspace(0, 1, 5))
    kind, (ctx_id, out) = roundtrip(P.encode_result(42, token), {})
    assert kind == P.MSG_RESULT
    assert ctx_id == 42
    assert out.idx == 9
    assert np.array_equal(out.data.array, token.data.array)


def test_failure_roundtrip():
    kind, (exc,) = roundtrip(
        P.encode_control(P.MSG_FAILURE, ValueError("boom across")), {})
    assert kind == P.MSG_FAILURE
    assert isinstance(exc, ValueError)
    assert str(exc) == "boom across"


def test_unpicklable_failure_degrades_to_remote_failure():
    class Local(Exception):  # defined in a function: not picklable
        pass

    kind, (exc,) = roundtrip(
        P.encode_control(P.MSG_FAILURE, Local("nested detail")), {})
    assert kind == P.MSG_FAILURE
    assert isinstance(exc, P.RemoteFailure)
    assert "Local" in str(exc) and "nested detail" in str(exc)


def test_undecodable_failure_degrades_to_remote_failure():
    """The receiving side's fallback: bytes that do not unpickle, or
    unpickle to something other than an exception."""
    for raw, text in ((b"not a pickle", "undecodable remote failure"),
                      (pickle.dumps(["a list"]), "remote failure payload")):
        wire = bytes([P.MSG_FAILURE]) + encode(P.ControlFields((raw,)))
        kind, (exc,) = P.decode_message(wire, {})
        assert isinstance(exc, P.RemoteFailure) and text in str(exc)


def test_shutdown_and_replay_decode_to_tuples():
    assert roundtrip(P.encode_control(P.MSG_SHUTDOWN), {}) == \
        (P.MSG_SHUTDOWN, ())
    assert roundtrip(P.encode_control(P.MSG_REPLAY, 7), {}) == \
        (P.MSG_REPLAY, (7,))


# ---------------------------------------------------------------------------
# control kinds: one format, one table
# ---------------------------------------------------------------------------

def _migrant():
    thread = ProtoThread()
    thread.index, thread.collection_name = 1, "pwork"
    thread.seen = [3, 4]
    return thread


#: one sample field tuple per control kind
CONTROL_SAMPLES = {
    P.MSG_SCATTER_TOTAL: ((2 << 40) + 17, 100),
    P.MSG_FAILURE: (ValueError("boom across"),),
    P.MSG_SHUTDOWN: (),
    P.MSG_TRACE_FLUSH: ("__driver__",),
    P.MSG_TRACE: (
        "nodeB",
        [(0.5, "op_start", {"node": "nodeB", "op": "ProtoWork"}),
         (0.75, "admit", {"node": "nodeB", "waited": 0.25, "pid": "nodeB"})],
        {"counters": {"acks": 4},
         "gauges": {"queue_depth": (2.0, 5.0)},
         "histograms": {"stall_seconds": (1, 0.25, 0.25, 0.25)}}),
    P.MSG_SHM_ATTACH: ("psm_12ab", 1 << 24),
    P.MSG_KERNEL_DOWN: ("nodeC", "peer connection failed: EOF"),
    P.MSG_REMAP: (3, {"pwork": ["nodeB", "nodeB"]}, "nodeC"),
    P.MSG_REMAP_OK: ("nodeB", 3),
    P.MSG_REPLAY: (3,),
    P.MSG_REPLAY_DONE: ("nodeB", 3, 12),
    P.MSG_SVC_OPEN: ("client-1", 6),
    P.MSG_SVC_OPEN_OK: (8, 7 << 33),
    P.MSG_SVC_BUSY: (44, "at capacity (6/6)"),
    P.MSG_SVC_ERROR: (45, KeyError("bad block")),
    P.MSG_SVC_CLOSE: ("client-1",),
    P.MSG_MEMBER: (4, {"pwork": ["nodeB", "nodeC"]},
                   {"pwork": ["nodeB", "nodeD"]}, ["nodeD"], ["nodeC"]),
    P.MSG_THREAD_STATE: ("pwork", 1, 4, _migrant()),
    P.MSG_BEAT: ("kernelX", 17),
}

_NAMES = {value: name for name, value in vars(P).items()
          if name.startswith("MSG_")}


def _same(a, b):
    if isinstance(a, BaseException):
        return type(a) is type(b) and a.args == b.args
    if isinstance(a, ProtoThread):
        return type(a) is type(b) and vars(a) == vars(b)
    return type(a) is type(b) and a == b


def test_control_table_covers_every_kind_but_the_seven_packed():
    assert len(_NAMES) == 26
    packed = {P.MSG_DATA, P.MSG_ACK, P.MSG_GROUP_TOTAL, P.MSG_RESULT,
              P.MSG_SHM, P.MSG_SVC_CALL, P.MSG_SVC_REPLY}
    assert set(P.CONTROL_FIELDS) == set(_NAMES) - packed
    assert set(CONTROL_SAMPLES) == set(P.CONTROL_FIELDS)
    for kind, fields in CONTROL_SAMPLES.items():
        assert len(fields) == len(P.CONTROL_FIELDS[kind]), _NAMES[kind]
    # the control bodies changed format: an older build is refused at
    # the frame header instead of misparsing them
    assert FRAME_VERSION == 2


@pytest.mark.parametrize("tier", ["default", "pure"])
@pytest.mark.parametrize("kind", sorted(P.CONTROL_FIELDS),
                         ids=lambda kind: _NAMES[kind])
def test_control_roundtrip(kind, tier, request):
    if tier == "pure":
        request.getfixturevalue("pure_visitor")
    fields = CONTROL_SAMPLES[kind]
    segments = P.encode_control(kind, *fields)
    assert bytes(segments[0]) == bytes([kind])
    out_kind, values = roundtrip(segments, {})
    assert out_kind == kind and type(values) is tuple
    assert len(values) == len(fields)
    for got, sent in zip(values, fields):
        assert _same(sent, got), (_NAMES[kind], sent, got)


def test_encode_control_checks_kind_and_arity():
    with pytest.raises(WireError, match="takes fields"):
        P.encode_control(P.MSG_BEAT, "kernelX")
    with pytest.raises(WireError, match="takes fields"):
        P.encode_control(P.MSG_SHUTDOWN, 1)
    with pytest.raises(WireError, match="takes fields"):
        P.encode_control(P.MSG_DATA, "g")


@pytest.mark.parametrize("body", [
    P.ControlFields(("kernelX",)),             # one field short
    P.ControlFields(("kernelX", 17, 0)),       # one field over
    P.ControlFields(["kernelX", 17]),          # a list, not a tuple
    ProtoJob(17),                              # a user token
], ids=["short", "long", "list", "user-token"])
def test_control_body_of_the_wrong_shape_rejected(body):
    wire = bytes([P.MSG_BEAT]) + encode(body)
    with pytest.raises(WireError, match="wants a ControlFields body"):
        P.decode_message(wire, {})


def test_unknown_kind_rejected():
    with pytest.raises(WireError, match="unknown protocol message kind"):
        P.decode_message(b"\xfe", {})
    with pytest.raises(WireError, match="empty"):
        P.decode_message(b"", {})


def test_data_token_borrows_from_payload(graph):
    """MSG_DATA tokens must decode zero-copy out of the receive buffer."""
    env = DataEnvelope(ProtoChunk(0, np.arange(16, dtype=np.int64)),
                       graph, 1, 0, 1, ())
    buf = bytearray(gather(P.encode_data(env)))
    _, out = P.decode_message(buf, {graph.name: graph})
    arr = out.token.data.array
    assert not arr.flags.owndata  # borrowed, not copied
    base = arr.base
    while getattr(base, "base", None) is not None and base is not buf:
        base = base.base
    assert base is buf or (isinstance(base, memoryview) and base.obj is buf)


def test_kind_11_is_unassigned():
    """There is no batched ack frame: one ``MSG_ACK`` per token is the
    whole ack protocol, and kind 11 was not handed to anything else."""
    assert 11 not in {value for name, value in vars(P).items()
                      if name.startswith("MSG_")}
    with pytest.raises(WireError, match="unknown protocol message kind 11"):
        P.decode_message(bytes([11, 0, 0]), {})


def test_shm_data_roundtrip():
    """One descriptor form: the whole message sits in one arena block."""
    segs = P.encode_shm_data(4096, 65536)
    assert len(segs) == 1 and len(segs[0]) == 1 + 8 + 4
    assert roundtrip(segs, {}) == (P.MSG_SHM, (4096, 65536))
    assert roundtrip(P.encode_shm_data(0, 1), {}) == (P.MSG_SHM, (0, 1))


# ---------------------------------------------------------------------------
# truncation: WireError and nothing else, for every kind
# ---------------------------------------------------------------------------

def _sample_message(kind, graph):
    if kind in CONTROL_SAMPLES:
        return P.encode_control(kind, *CONTROL_SAMPLES[kind])
    chunk = ProtoChunk(5, np.arange(7, dtype=np.float64))
    frame = GroupFrame((3 << 40) + 9, 4, 0, 0, "nodeA", 1)
    return {
        P.MSG_DATA: lambda: P.encode_data(DataEnvelope(
            chunk, graph, 1, 1, (2 << 40) + 17, (frame,),
            ctx_origin="__driver__")),
        P.MSG_ACK: lambda: P.encode_ack(graph.name, 3, 1, 2, (3 << 40) + 9, 4),
        P.MSG_GROUP_TOTAL: lambda: P.encode_group_total((5 << 40) + 2, 12),
        P.MSG_RESULT: lambda: P.encode_result(42, chunk),
        P.MSG_SHM: lambda: P.encode_shm_data(4096, 65536),
        P.MSG_SVC_CALL: lambda: P.encode_svc_call("client-1", 42,
                                                  "gol.read", chunk),
        P.MSG_SVC_REPLY: lambda: P.encode_svc_reply(43, chunk),
    }[kind]()


@pytest.mark.parametrize("tier", ["default", "pure"])
@pytest.mark.parametrize("kind", sorted(_NAMES), ids=lambda kind: _NAMES[kind])
def test_every_proper_prefix_raises_wire_error(kind, tier, graph, request):
    if tier == "pure":
        request.getfixturevalue("pure_visitor")
    wire = bytes(gather(_sample_message(kind, graph)))
    graphs = {graph.name: graph}
    assert P.decode_message(bytearray(wire), graphs)[0] == kind
    for n in range(len(wire)):
        with pytest.raises(WireError):
            P.decode_message(bytearray(wire[:n]), graphs)


def test_string_running_past_the_message_rejected():
    wire = bytearray(gather(P.encode_ack("graph", 3, 1, 2)))
    wire[1] += 1  # the graph name claims one byte more than it has
    with pytest.raises(WireError, match="runs past the message"):
        P.decode_message(wire[:8], {})


def test_bad_utf8_rejected():
    wire = bytearray(gather(P.encode_ack("graph", 3, 1, 2)))
    wire[3] = 0xFF
    with pytest.raises(WireError, match="malformed"):
        P.decode_message(wire, {})

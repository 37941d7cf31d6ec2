"""Round-trips for every kernel-to-kernel protocol message."""

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
from repro.serial import Buffer, ComplexToken, SimpleToken, WireError, gather


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
    assert ack == P.AckWire("g", 3, 1, 2)


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


def test_scatter_total_roundtrip():
    kind, value = roundtrip(P.encode_scatter_total(7, 100), {})
    assert kind == P.MSG_SCATTER_TOTAL
    assert value == (7, 100)


def test_failure_roundtrip():
    kind, exc = roundtrip(P.encode_failure(ValueError("boom across")), {})
    assert kind == P.MSG_FAILURE
    assert isinstance(exc, ValueError)
    assert str(exc) == "boom across"


def test_unpicklable_failure_degrades_to_remote_failure():
    class Local(Exception):  # defined in a function: not picklable
        pass

    kind, exc = roundtrip(P.encode_failure(Local("nested detail")), {})
    assert kind == P.MSG_FAILURE
    assert isinstance(exc, P.RemoteFailure)
    assert "Local" in str(exc) and "nested detail" in str(exc)


def test_hello_and_shutdown_roundtrip():
    assert roundtrip(P.encode_shutdown(), {}) == (P.MSG_SHUTDOWN, None)


def test_beat_roundtrip():
    assert roundtrip(P.encode_beat("kernelX", 17), {}) == \
        (P.MSG_BEAT, ("kernelX", 17))


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


def test_shm_attach_roundtrip():
    kind, out = roundtrip(P.encode_shm_attach("psm_12ab", 1 << 24), {})
    assert kind == P.MSG_SHM_ATTACH
    assert out == ("psm_12ab", 1 << 24)


def test_shm_data_roundtrip():
    """One descriptor form: the whole message sits in one arena block."""
    segs = P.encode_shm_data(4096, 65536)
    assert len(segs) == 1 and len(segs[0]) == 1 + 8 + 4
    assert roundtrip(segs, {}) == (P.MSG_SHM, (4096, 65536))
    assert roundtrip(P.encode_shm_data(0, 1), {}) == (P.MSG_SHM, (0, 1))

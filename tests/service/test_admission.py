"""AdmissionPolicy semantics and MSG_SVC_* wire round-trips."""

import numpy as np
import pytest

from repro.net import protocol as P
from repro.serial import Buffer, ComplexToken, SimpleToken, gather
from repro.service import AdmissionPolicy
from repro.service.records import graph_signature


class SvcReq(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class SvcBlock(ComplexToken):
    def __init__(self, data=None):
        self.data = Buffer(data if data is not None else [])


def roundtrip(segments):
    return P.decode_message(bytearray(gather(segments)), {})


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

def test_policy_defaults_and_capacity():
    p = AdmissionPolicy()
    assert p.capacity == p.max_concurrent + p.max_queue
    assert p.session_window >= 1


@pytest.mark.parametrize("kwargs", [
    {"max_concurrent": 0},
    {"max_queue": -1},
    {"session_window": 0},
])
def test_policy_validates(kwargs):
    with pytest.raises(ValueError):
        AdmissionPolicy(**kwargs)


def test_policy_grant_window_clamps():
    p = AdmissionPolicy(session_window=8)
    assert p.grant_window(0) == 8      # 0 = server default
    assert p.grant_window(3) == 3
    assert p.grant_window(100) == 8    # never above the policy cap
    assert p.grant_window(-5) == 8


def test_policy_is_frozen():
    p = AdmissionPolicy()
    with pytest.raises(AttributeError):
        p.max_concurrent = 99


# ---------------------------------------------------------------------------
# wire messages
# ---------------------------------------------------------------------------

def test_svc_open_roundtrip():
    kind, value = roundtrip(P.encode_control(P.MSG_SVC_OPEN, "client-1", 6))
    assert kind == P.MSG_SVC_OPEN
    assert value == ("client-1", 6)
    kind, value = roundtrip(P.encode_control(P.MSG_SVC_OPEN, "client-2", 0))
    assert value == ("client-2", 0)  # 0 = ask for the server default


def test_svc_open_ok_roundtrip():
    kind, value = roundtrip(P.encode_control(P.MSG_SVC_OPEN_OK, 8, 7 << 33))
    assert kind == P.MSG_SVC_OPEN_OK
    assert value == (8, 7 << 33)


def test_svc_call_roundtrip_with_payload():
    payload = np.arange(12, dtype=np.uint8).reshape(3, 4)
    kind, value = roundtrip(P.encode_svc_call(
        "client-1", 42, "gol.read", SvcBlock(payload)))
    assert kind == P.MSG_SVC_CALL
    client, request_id, service, token = value
    assert (client, request_id, service) == ("client-1", 42, "gol.read")
    assert np.array_equal(token.data.array, payload)


def test_svc_reply_roundtrip():
    payload = np.ones((2, 2))
    kind, value = roundtrip(P.encode_svc_reply(43, SvcBlock(payload)))
    assert kind == P.MSG_SVC_REPLY
    request_id, token = value
    assert request_id == 43
    assert np.array_equal(token.data.array, payload)


def test_svc_busy_roundtrip():
    kind, value = roundtrip(
        P.encode_control(P.MSG_SVC_BUSY, 44, "at capacity (6/6)"))
    assert kind == P.MSG_SVC_BUSY
    assert value == (44, "at capacity (6/6)")


def test_svc_error_roundtrip_rebuilds_exception():
    kind, value = roundtrip(
        P.encode_control(P.MSG_SVC_ERROR, 45, ValueError("bad block")))
    assert kind == P.MSG_SVC_ERROR
    request_id, exc = value
    assert request_id == 45
    assert isinstance(exc, ValueError)
    assert "bad block" in str(exc)


def test_svc_error_unpicklable_falls_back():
    class Weird(Exception):
        pass  # local class: unpicklable in the receiving process

    kind, (request_id, exc) = roundtrip(P.encode_control(
        P.MSG_SVC_ERROR, 46, Weird("local detail")))
    assert kind == P.MSG_SVC_ERROR and request_id == 46
    assert isinstance(exc, Exception)
    assert "local detail" in str(exc) or "Weird" in str(exc)


def test_svc_close_roundtrip():
    kind, value = roundtrip(P.encode_control(P.MSG_SVC_CLOSE, "client-1"))
    assert kind == P.MSG_SVC_CLOSE
    assert value == ("client-1",)


def test_svc_kinds_do_not_collide():
    kinds = [P.MSG_SVC_OPEN, P.MSG_SVC_OPEN_OK, P.MSG_SVC_CALL,
             P.MSG_SVC_REPLY, P.MSG_SVC_BUSY, P.MSG_SVC_ERROR,
             P.MSG_SVC_CLOSE]
    assert len(set(kinds)) == len(kinds)
    assert min(kinds) > P.MSG_REPLAY_DONE  # above the data-plane kinds


# ---------------------------------------------------------------------------
# service records
# ---------------------------------------------------------------------------

def test_graph_signature_uses_registered_names():
    from repro.apps.strings import build_uppercase_graph

    graph, *_ = build_uppercase_graph("node01", "node01 node02",
                                      name="sig.check")
    in_types, out_types = graph_signature(graph)
    assert in_types == ("StringToken",)
    assert out_types == ("StringToken",)

"""The engine-agnostic trace event vocabulary.

Every execution engine — simulated cluster, one I/O loop, multiprocess
kernels over TCP — emits the same event kinds, so one analysis/reporting
stack (:mod:`repro.trace.timeline`, the Chrome-trace export, the parity
tests) works against any of them.  Timestamps differ in *base* only:
virtual seconds on :class:`~repro.runtime.SimEngine`, monotonic wall
seconds on the real-execution engines; consumers normalise to the first
event.

Common fields (all optional unless noted):

==================  =====================================================
kind                fields
==================  =====================================================
ACTIVATION_START    ``graph``, ``driver``
ACTIVATION_DONE     ``ctx``
OP_START            ``node``, ``op``, ``graph`` — an operation body began
OP_END              ``node``, ``op``, ``graph``, ``duration``, ``posted``
TOKEN_SEND          ``src``, ``dest``, ``nbytes`` — a token crossed nodes
TOKEN_RECV          ``node``, ``op``, ``graph``, ``depth`` (queue depth)
SERIALIZE           ``node``, ``seconds``, ``nbytes``
STALL               ``node``/``graph`` — flow-control window was full
ADMIT               ``node``/``graph``, ``waited`` — a stalled post left
ACK                 ``node``, ``graph``, ``opener``, ``group``
TOKEN_DROP          ``peer``, ``dropped`` — messages discarded after a
                    peer kernel failed (multiprocess engine only)
KERNEL_DOWN         ``kernel``, ``reason`` — a kernel process was
                    declared dead (heartbeat lease expired, sentinel
                    fired, or a peer connection broke)
REMAP               ``dead``, ``collections``, ``epoch`` — thread
                    instances of the dead kernel were remapped onto
                    survivors
REPLAY              ``epoch``, ``tokens`` — journaled un-acked tokens
                    were re-delivered after a remap
SVC_CALL            ``client``, ``request``, ``service`` — a graph call
                    was admitted by the service console
SVC_REPLY           ``client``, ``request``, ``service``, ``seconds``
SVC_SHED            ``client``, ``request``, ``service``, ``reason`` —
                    admission control answered MSG_SVC_BUSY
SVC_CLOSE           ``client`` — a service session ended
==================  =====================================================

Events recorded in a kernel process additionally carry ``pid`` (the
kernel name) once merged into the console timeline.
"""

from __future__ import annotations

__all__ = [
    "ACTIVATION_START",
    "ACTIVATION_DONE",
    "OP_START",
    "OP_END",
    "TOKEN_SEND",
    "TOKEN_RECV",
    "SERIALIZE",
    "STALL",
    "ADMIT",
    "ACK",
    "TOKEN_DROP",
    "KERNEL_DOWN",
    "REMAP",
    "REPLAY",
    "SVC_CALL",
    "SVC_REPLY",
    "SVC_SHED",
    "SVC_CLOSE",
    "EVENT_KINDS",
    "DETERMINISTIC_KINDS",
]

ACTIVATION_START = "activation_start"
ACTIVATION_DONE = "activation_done"
OP_START = "op_start"
OP_END = "op_end"
TOKEN_SEND = "token_send"
TOKEN_RECV = "token_recv"
SERIALIZE = "serialize"
STALL = "stall"
ADMIT = "admit"
ACK = "ack"
TOKEN_DROP = "token_drop"
KERNEL_DOWN = "kernel_down"
REMAP = "remap"
REPLAY = "replay"
SVC_CALL = "svc_call"
SVC_REPLY = "svc_reply"
SVC_SHED = "svc_shed"
SVC_CLOSE = "svc_close"

#: Every kind an engine may emit (open set: engines may add kinds such as
#: ``thread_migrated``; the unified vocabulary above is the guaranteed
#: common subset).
EVENT_KINDS = frozenset({
    ACTIVATION_START, ACTIVATION_DONE, OP_START, OP_END,
    TOKEN_SEND, TOKEN_RECV, SERIALIZE, STALL, ADMIT, ACK, TOKEN_DROP,
    KERNEL_DOWN, REMAP, REPLAY,
    SVC_CALL, SVC_REPLY, SVC_SHED, SVC_CLOSE,
})

#: Kinds whose *counts* are determined by the schedule alone (not by
#: timing, placement, or flow-control races) — the basis of the
#: cross-engine parity test.
DETERMINISTIC_KINDS = frozenset({
    ACTIVATION_START, ACTIVATION_DONE, OP_START, OP_END, TOKEN_RECV, ACK,
})

"""Real distributed runtime substrate: framing, discovery, kernels.

This package carries DPS tokens between OS processes over TCP: framed
scatter-gather socket I/O (:mod:`~repro.net.framing`), the kernel-to-
kernel message protocol (:mod:`~repro.net.protocol`), name-server
discovery with lazy connection establishment
(:mod:`~repro.net.nameserver`, :mod:`~repro.net.connections`) and the
distributed kernel itself (:mod:`~repro.net.kernel`).
"""

from .connections import (
    ConnectionPool,
    DialError,
    TransportPolicy,
)
from .eventloop import EventLoopPeer, IOLoop, VectoredSender
from .framing import (
    MAX_SENDMSG_SEGMENTS,
    FrameReader,
    send_messages,
)
from .kernel import (
    CONSOLE_KERNEL,
    KERNEL_ORDINAL_SHIFT,
    DistributedKernel,
    run_kernel_process,
)
from .nameserver import (
    DuplicateRegistration,
    NameServer,
    NameServerClient,
    NameServerError,
    UnknownKernel,
)
from .recovery import (
    FaultPolicy,
    ReplayDedup,
    TokenJournal,
    apply_remap,
    plan_remap,
)
from .shm import ShmReceiver, ShmSender, host_fingerprint

__all__ = [
    "CONSOLE_KERNEL",
    "ConnectionPool",
    "DialError",
    "DistributedKernel",
    "DuplicateRegistration",
    "EventLoopPeer",
    "FaultPolicy",
    "FrameReader",
    "IOLoop",
    "KERNEL_ORDINAL_SHIFT",
    "MAX_SENDMSG_SEGMENTS",
    "NameServer",
    "NameServerClient",
    "NameServerError",
    "ReplayDedup",
    "ShmReceiver",
    "ShmSender",
    "TokenJournal",
    "TransportPolicy",
    "UnknownKernel",
    "VectoredSender",
    "apply_remap",
    "host_fingerprint",
    "plan_remap",
    "run_kernel_process",
    "send_messages",
]

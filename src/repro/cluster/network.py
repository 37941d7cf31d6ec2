"""Network model: full-duplex NICs behind a non-blocking switch.

The model follows the LogGP family: a message of ``S`` bytes from node A
to node B costs

- ``send_overhead + S / bandwidth`` on A's transmit NIC (FIFO),
- ``latency`` of wire/switch propagation,
- ``recv_overhead + S / bandwidth`` on B's receive NIC (FIFO),

with transmit and receive pipelined across successive messages, so a
steady unidirectional stream saturates at ``bandwidth`` and a node can
send and receive simultaneously at full rate (full duplex, as the ring
experiment of the paper's Figure 6 requires).  The switch backplane is
non-blocking (a Gigabit switch), so contention arises only at NICs.

Intra-node transfers bypass the NIC entirely and cost ``local_delay``
(the paper: "the pointer to the data object is transferred directly
to the destination thread ... at a negligible cost").

Calibration: defaults are tuned so a socket-level ring throughput sweep
reproduces the paper's Figure 6 socket curve (rising from a few MB/s at
1 KB transfers to a ≈35–40 MB/s plateau at 100 KB–1 MB on Gigabit
Ethernet with a Windows-2000-era stack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..simkernel import Event, Simulator
from .node import Node

__all__ = ["NetworkSpec", "Network", "Message"]


@dataclass(frozen=True)
class NetworkSpec:
    """Static description of the interconnect."""

    #: Effective per-direction NIC bandwidth in bytes/second (the paper's
    #: Gigabit switch sustains ~35-40 MB/s with a Windows-2000-era stack).
    bandwidth: float = 40e6
    #: Wire + switch propagation latency in seconds.
    latency: float = 60e-6
    #: Per-message software overhead on the sender (syscall, stack).
    send_overhead: float = 150e-6
    #: Per-message software overhead on the receiver.
    recv_overhead: float = 150e-6
    #: Cost of handing a message to a thread on the same node (pointer pass).
    local_delay: float = 2e-6
    #: One-time cost of opening a TCP connection between two application
    #: instances, charged on the initiator's network stack when the first
    #: data object needs to reach that node (the paper's delayed
    #: connection mechanism, §4).
    connect_overhead: float = 60e-3
    #: Loopback parameters for nodes sharing a physical host (the
    #: debugging setup of paper §4: multiple kernels on one machine
    #: exercise the full networking code over the local TCP stack).
    loopback_bandwidth: float = 250e6
    loopback_latency: float = 10e-6
    loopback_send_overhead: float = 30e-6
    loopback_recv_overhead: float = 30e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.loopback_bandwidth <= 0:
            raise ValueError("loopback_bandwidth must be positive")
        for attr in ("latency", "send_overhead", "recv_overhead", "local_delay",
                     "loopback_latency", "loopback_send_overhead",
                     "loopback_recv_overhead", "connect_overhead"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")

    def wire_time(self, nbytes: int) -> float:
        """Time for *nbytes* to cross one NIC direction."""
        return nbytes / self.bandwidth

    def message_time(self, nbytes: int) -> float:
        """End-to-end time of an isolated message (no contention)."""
        return (
            self.send_overhead
            + self.wire_time(nbytes)
            + self.latency
            + self.recv_overhead
            + self.wire_time(nbytes)
        )


class Message:
    """A payload in flight between two nodes."""

    __slots__ = ("src", "dst", "nbytes", "payload", "sent_at", "delivered_at")

    def __init__(self, src: str, dst: str, nbytes: int, payload: Any = None,
                 sent_at: float = 0.0, delivered_at: float = 0.0):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at

    def __repr__(self) -> str:
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"nbytes={self.nbytes}, payload={self.payload!r}, "
                f"sent_at={self.sent_at}, delivered_at={self.delivered_at})")


class Network:
    """The interconnect bound to a running simulation.

    :meth:`transfer` moves a payload between nodes and returns an
    :class:`~repro.simkernel.Event` that succeeds with the
    :class:`Message` when it has been fully received.
    """

    def __init__(self, sim: Simulator, spec: NetworkSpec):
        self.sim = sim
        self.spec = spec
        # traffic accounting
        self.bytes_sent = 0
        self.messages_sent = 0
        self.local_messages = 0
        self.loopback_messages = 0

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: int,
        payload: Any = None,
        on_delivered: Optional[Callable[[Message], None]] = None,
        tx_extra: float = 0.0,
        rx_extra: float = 0.0,
    ) -> Event:
        """Start moving *nbytes* from *src* to *dst*.

        Returns an event succeeding with the :class:`Message` once the
        receiver has it.  ``on_delivered`` (if given) runs at delivery
        time before the event triggers.  ``tx_extra`` / ``rx_extra`` add
        per-message inline costs to the NIC occupancy (the DPS
        communication-layer overhead).

        The message in flight is a chain of callbacks started with
        :meth:`~repro.simkernel.Simulator.call` — transmit-NIC grant,
        transmit time, latency, receive-NIC grant, receive time, then
        delivery — each on the event a generator process would have
        waited for, so every step fires in the same heap slot.
        """
        if nbytes < 0:
            raise ValueError("message size must be >= 0")
        sim = self.sim
        msg = Message(src.name, dst.name, nbytes, payload, sent_at=sim.now)
        done = Event(sim)
        flight = _Flight(sim, msg, on_delivered, done)
        if src is dst:
            self.local_messages += 1
            sim.call(flight.hand_over, self.spec.local_delay)
            return done

        self.messages_sent += 1
        self.bytes_sent += nbytes
        if src.spec.host == dst.spec.host:
            # distinct kernels on one machine: loopback TCP, full
            # networking code but no physical wire
            send_oh = self.spec.loopback_send_overhead
            recv_oh = self.spec.loopback_recv_overhead
            latency = self.spec.loopback_latency
            wire = nbytes / self.spec.loopback_bandwidth
            self.loopback_messages += 1
        else:
            send_oh = self.spec.send_overhead
            recv_oh = self.spec.recv_overhead
            latency = self.spec.latency
            wire = self.spec.wire_time(nbytes)
        sim.call(flight.send, src, dst, send_oh + tx_extra + wire, latency,
                 recv_oh + rx_extra + wire)
        return done


class _Flight:
    """A message in flight: one callback per event a generator process
    would have waited for, registered in the same order."""

    __slots__ = ("sim", "msg", "on_delivered", "done", "dst", "tx_time",
                 "latency", "rx_time")

    def __init__(self, sim: Simulator, msg: Message,
                 on_delivered: Optional[Callable[[Message], None]],
                 done: Event):
        self.sim = sim
        self.msg = msg
        self.on_delivered = on_delivered
        self.done = done

    def hand_over(self, delay: float) -> None:
        """Intra-node: a pointer pass costing *delay*."""
        self.sim.timeout(delay).add_callback(self._deliver)

    def send(self, src: Node, dst: Node, tx_time: float, latency: float,
             rx_time: float) -> None:
        """Across the switch: transmit NIC, wire latency, receive NIC."""
        self.dst = dst
        self.tx_time = tx_time
        self.latency = latency
        self.rx_time = rx_time
        src.nic_tx.request().add_callback(self._transmit)

    # A NIC grant's value is its request; each busy period's timeout
    # carries that request on to the callback that releases it.
    def _transmit(self, tx: Event) -> None:
        self.sim.timeout(self.tx_time, tx).add_callback(self._sent)

    def _sent(self, ev: Event) -> None:
        ev.value.release()
        self.sim.timeout(self.latency).add_callback(self._arrived)

    def _arrived(self, _: Event) -> None:
        self.dst.nic_rx.request().add_callback(self._receive)

    def _receive(self, rx: Event) -> None:
        self.sim.timeout(self.rx_time, rx).add_callback(self._received)

    def _received(self, ev: Event) -> None:
        ev.value.release()
        self._deliver(ev)

    def _deliver(self, _: Event) -> None:
        self.msg.delivered_at = self.sim.now
        if self.on_delivered:
            self.on_delivered(self.msg)
        self.done.succeed(self.msg)

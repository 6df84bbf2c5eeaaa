"""Concrete broadcast node — the forged-delivery impact.

The symbolic analysis finds the forged-sender and thin-quorum Trojans;
this module shows what they *do*: a node (:class:`BroadcastNode`) built
from the same protocol constants, fed a forged-sender ``SEND`` plus a
flood of thin-certificate ``READY``\\ s, delivers a value the real
broadcaster never sent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.messages.concrete import decode_ints, encode
from repro.net.network import Network, Node
from repro.systems.broadcast.protocol import (
    BROADCASTER,
    BROADCAST_LAYOUT,
    ECHO_THRESHOLD,
    MSG_ECHO,
    MSG_READY,
    MSG_SEND,
    NODE_IDS,
    NODE_MASK,
    NO_CERT,
    READY_THRESHOLD,
)


def broadcast_message(kind: int, sender: int, value: int,
                      cert: int = NO_CERT) -> bytes:
    """Encode one broadcast wire message."""
    return encode(BROADCAST_LAYOUT, {"kind": kind, "sender": sender,
                                     "value": value, "cert": cert})


class BroadcastNode(Node):
    """Concrete broadcast node with the same two bugs as the symbolic one.

    ``strict=True`` builds the *correct* node instead (broadcaster-only
    ``SEND``, full-quorum certificates) — the control in the demo. The
    node tallies echoes and readies per distinct sender, emits its own
    ``ECHO``/``READY`` to ``observer`` when thresholds trip, and
    delivers at :data:`READY_THRESHOLD` distinct ``READY`` senders.
    """

    def __init__(self, name: str = "node", node_id: int = 3,
                 strict: bool = False, recorded: int | None = None,
                 observer: str | None = None):
        super().__init__(name)
        self.node_id = node_id
        self.strict = strict
        self.recorded = recorded
        self.observer = observer
        self.echoes: set[int] = set()
        self.readies: set[int] = set()
        self.echoed = False
        self.readied = False
        self.delivered: int | None = None
        self.accepted = 0

    def handle(self, source: str, payload: bytes, network: Network) -> None:
        if len(payload) != BROADCAST_LAYOUT.total_size:
            return
        fields = decode_ints(BROADCAST_LAYOUT, payload)
        kind = fields["kind"]
        if kind == MSG_SEND:
            self._handle_send(fields, network)
        elif kind == MSG_ECHO:
            self._handle_echo(fields, network)
        elif kind == MSG_READY:
            self._handle_ready(fields)

    def _handle_send(self, fields: dict, network: Network) -> None:
        sender = fields["sender"]
        if self.strict:
            if sender != BROADCASTER:  # the check the buggy node lost
                return
        elif sender not in NODE_IDS:
            return
        if self.recorded is not None and fields["value"] != self.recorded:
            return  # equivocation against the recorded SEND
        if fields["cert"] != NO_CERT:
            return
        self.accepted += 1
        if self.recorded is None:
            self.recorded = fields["value"]
        if not self.echoed:
            self.echoed = True
            self._emit(network, MSG_ECHO, self.recorded, NO_CERT)

    def _handle_echo(self, fields: dict, network: Network) -> None:
        if fields["sender"] not in NODE_IDS:
            return
        if self.recorded is None or fields["value"] != self.recorded:
            return
        if fields["cert"] != NO_CERT:
            return
        self.accepted += 1
        self.echoes.add(fields["sender"])
        if len(self.echoes) >= ECHO_THRESHOLD and not self.readied:
            self.readied = True
            cert = sum(1 << peer for peer in self.echoes)
            self._emit(network, MSG_READY, self.recorded, cert)

    def _handle_ready(self, fields: dict) -> None:
        if fields["sender"] not in NODE_IDS:
            return
        if self.recorded is None or fields["value"] != self.recorded:
            return
        cert = fields["cert"]
        threshold = ECHO_THRESHOLD if self.strict else \
            ECHO_THRESHOLD - 1  # the seeded off-by-one (2f)
        if cert & ~NODE_MASK or bin(cert).count("1") < threshold:
            return
        self.accepted += 1
        self.readies.add(fields["sender"])
        if len(self.readies) >= READY_THRESHOLD and self.delivered is None:
            self.delivered = self.recorded

    def _emit(self, network: Network, kind: int, value: int,
              cert: int) -> None:
        if self.observer is not None:
            network.send(self.name, self.observer,
                         broadcast_message(kind, self.node_id, value, cert))


class _Sink(Node):
    """Collects whatever the nodes emit so the network can deliver it."""

    def __init__(self, name: str):
        super().__init__(name)
        self.received: list[bytes] = []

    def handle(self, source: str, payload: bytes,
               network: Network) -> None:
        self.received.append(payload)


@dataclass
class ForgedDeliveryOutcome:
    """Evidence of both seeded bugs on a live node, with a control."""

    forged_echoed: bool = False
    delivered: int | None = None
    control_echoed: bool = True
    control_delivered: int | None = None


def run_forged_delivery_demo() -> ForgedDeliveryOutcome:
    """Both Trojans end to end: forged SEND, thin READYs, delivery.

    A non-broadcaster member forges the slot's ``SEND`` with its own
    value, then floods ``READY``\\ s (forged member senders, one-short
    echo certificates). The buggy node echoes the stolen slot and
    *delivers* the forged value; the strict control node ignores the
    whole exchange.
    """
    network = Network()
    buggy = BroadcastNode("node")
    control = BroadcastNode("control", strict=True)
    observer = _Sink("observer")
    buggy.observer = control.observer = "observer"
    network.attach(buggy)
    network.attach(control)
    network.attach(observer)

    attacker, forged_value = 2, 0x66
    assert attacker != BROADCASTER
    thin_cert = (1 << 1) | (1 << attacker)  # only 2f echoers named
    for target in ("node", "control"):
        network.send("attacker", target,
                     broadcast_message(MSG_SEND, attacker, forged_value))
        for forged_peer in (0, 1, 3):
            network.send("attacker", target,
                         broadcast_message(MSG_READY, forged_peer,
                                           forged_value, thin_cert))
    network.run()

    return ForgedDeliveryOutcome(
        forged_echoed=buggy.echoed,
        delivered=buggy.delivered,
        control_echoed=control.echoed,
        control_delivered=control.delivered,
    )

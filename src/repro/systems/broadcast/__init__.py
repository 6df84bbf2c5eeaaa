"""Bracha reliable broadcast — byzantine dissemination under test.

A four-node (``n = 3f + 1``) witnessed Bracha broadcast, analyzed at one
node's message ingress for a pinned slot. Two Trojan families are
seeded:

* **Forged-sender SEND** — the broadcaster-identity check is weakened
  to cluster membership, so any member can initiate a slot it does not
  own and trigger the node's echo (1 class);
* **Thin-quorum READY** — the echo-certificate quorum test is off by
  one (``2f`` instead of ``2f + 1``), so a ``READY`` one echo short of
  a valid quorum is counted toward delivery (6 classes, one per thin
  certificate).

:data:`SYSTEM` is the broadcast template of :mod:`repro.corpus.templates`
pinned to :data:`BROADCAST_PARAMS`: its correct-peer clients, node
server, oracles (``accepts``/``generable``/``classify``) and class
universe. The concrete node (for the simulated network) reads the same
protocol constants, so findings transfer between the two.
"""

from repro.corpus.templates import broadcast_system
from repro.systems.broadcast.protocol import (
    BROADCASTER,
    BROADCAST_LAYOUT,
    BROADCAST_PARAMS,
    BROADCAST_VALUE,
    ECHO_THRESHOLD,
    FAULTY,
    MSG_ECHO,
    MSG_READY,
    MSG_SEND,
    N_NODES,
    NODE_IDS,
    NODE_MASK,
    NO_CERT,
    READY_THRESHOLD,
)
from repro.systems.broadcast.nodes import (
    BroadcastNode,
    ForgedDeliveryOutcome,
    broadcast_message,
    run_forged_delivery_demo,
)
from repro.systems.scoring import bound_ground_truth

#: The pinned broadcast system: forged-sender SEND and 6 thin-quorum
#: READY certificates.
SYSTEM = broadcast_system(BROADCAST_PARAMS)

#: Scores witnesses against :data:`SYSTEM`'s oracle.
GroundTruth = bound_ground_truth(SYSTEM)

__all__ = [
    "BROADCASTER",
    "BROADCAST_LAYOUT",
    "BROADCAST_PARAMS",
    "BROADCAST_VALUE",
    "BroadcastNode",
    "ECHO_THRESHOLD",
    "FAULTY",
    "ForgedDeliveryOutcome",
    "GroundTruth",
    "MSG_ECHO",
    "MSG_READY",
    "MSG_SEND",
    "NODE_IDS",
    "NODE_MASK",
    "NO_CERT",
    "N_NODES",
    "READY_THRESHOLD",
    "SYSTEM",
    "broadcast_message",
    "run_forged_delivery_demo",
]

"""Bracha reliable-broadcast wire protocol constants and layout.

A four-node (``n = 3f + 1``, ``f = 1``) Bracha-style reliable broadcast,
modelled at the point the paper's analysis needs: one node's message
ingress for a single broadcast slot. The variant is the *witnessed* one
common in implementations: a ``READY`` carries the certificate of peers
whose ``ECHO``s justify it (a bitmap, since ids are small), so a node
can validate the echo quorum directly from the message instead of
trusting the sender's local count. All three message kinds share one
fixed-size layout::

    kind(1) | sender(1) | value(1) | cert(1)

* ``SEND`` — the slot's broadcaster disseminating its value; no
  certificate (``cert == NO_CERT``).
* ``ECHO`` — a peer echoing the value it received from the broadcaster;
  justified by the ``SEND`` itself, so again ``cert == NO_CERT``.
* ``READY`` — a peer asserting the value is safe to deliver, justified
  by an echo certificate: the bitmap (bit ``i`` = node ``i``) of the
  ``2f + 1`` distinct peers whose ``ECHO``s it collected.

Following the paper's annotation-stub approach (§6.1), the slot history
is pinned to constants both sides agree on: the node under analysis has
already recorded the broadcaster's ``SEND`` for this slot, carrying
:data:`BROADCAST_VALUE` — which is why every path can validate the
value field (a second ``SEND`` is checked against the recorded one, the
standard equivocation test).

:data:`BROADCAST_PARAMS` pins the broadcast template of
:mod:`repro.corpus.templates` to these constants, which derives the
symbolic programs and the ground-truth oracle from them. Two
vulnerabilities are seeded in the node:

* **forged-sender SEND** — the identity check on the ``SEND`` path is
  weakened from ``sender == BROADCASTER`` to cluster *membership*, so
  any member can (re-)initiate the slot and trigger the node's echo —
  identity theft of the broadcaster;
* **thin-quorum READY** — the echo-certificate threshold is off by one,
  ``popcount(cert) >= 2f`` instead of ``2f + 1``, so a ``READY``
  justified by one echo too few is counted toward delivery: with ``f``
  byzantine echoers inside a ``2f`` certificate, only ``f`` honest nodes
  ever echoed the value, and delivery no longer implies an honest
  quorum saw it.
"""

from __future__ import annotations

from repro.corpus.templates import (
    FORGED_SENDER,
    THIN_QUORUM,
    BroadcastParams,
)
from repro.messages.layout import Field, MessageLayout

#: Message kinds (the ``kind`` byte).
MSG_SEND = 0x53
MSG_ECHO = 0x45
MSG_READY = 0x52

#: Cluster size and fault budget: the classic minimal ``n = 3f + 1``.
N_NODES = 4
FAULTY = 1

#: The four cluster members; node ``i`` is bit ``i`` of a certificate.
NODE_IDS = (0, 1, 2, 3)

#: Bitmap with every member's bit set.
NODE_MASK = 0b1111

#: The slot's broadcaster (history stub: whose slot this is).
BROADCASTER = 0

#: The value the broadcaster disseminated for this slot (history stub:
#: the node under analysis recorded it from the original ``SEND``).
BROADCAST_VALUE = 0x42

#: ``SEND``/``ECHO`` carry no certificate.
NO_CERT = 0x00

#: Echo certificate threshold for a valid ``READY``: ``2f + 1``.
ECHO_THRESHOLD = 2 * FAULTY + 1

#: Distinct ``READY`` senders needed to deliver: ``2f + 1``.
READY_THRESHOLD = 2 * FAULTY + 1

BROADCAST_LAYOUT = MessageLayout("broadcast", [
    Field("kind", 1),
    Field("sender", 1),
    Field("value", 1),
    Field("cert", 1),
])

#: The broadcast template pinned to the constants above, with both bugs
#: seeded (the template fixes ``f = 1`` and :data:`NO_CERT` at 0).
BROADCAST_PARAMS = BroadcastParams(
    field_order=tuple(field.name for field in BROADCAST_LAYOUT.fields),
    pad_size=0, value_size=1,
    msg_send=MSG_SEND, msg_echo=MSG_ECHO, msg_ready=MSG_READY,
    node_ids=NODE_IDS, broadcaster=BROADCASTER,
    broadcast_value=BROADCAST_VALUE, bugs=(FORGED_SENDER, THIN_QUORUM))

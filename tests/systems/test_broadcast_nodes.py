"""Unit tests for the Bracha broadcast system: the pinned template's
oracles and the concrete node."""

from itertools import product

from repro.corpus.templates import FORGED_SENDER, THIN_QUORUM
from repro.net.network import Network
from repro.systems.broadcast import (
    BROADCASTER,
    BROADCAST_LAYOUT,
    BROADCAST_PARAMS,
    BROADCAST_VALUE,
    ECHO_THRESHOLD,
    SYSTEM,
    BroadcastNode,
    MSG_ECHO,
    MSG_READY,
    MSG_SEND,
    NODE_IDS,
    NODE_MASK,
    broadcast_message,
    run_forged_delivery_demo,
)

classify_message = SYSTEM.classify
is_node_accepted = SYSTEM.accepts
is_peer_generable = SYSTEM.generable
FULL_CERTS = BROADCAST_PARAMS.full_certs
THIN_CERTS = BROADCAST_PARAMS.thin_certs


def _message_space():
    """Every kind x sender x value-ish x cert combination that matters."""
    for fields in product((MSG_SEND, MSG_ECHO, MSG_READY, 0x00),
                          (*NODE_IDS, 7),                    # sender
                          (BROADCAST_VALUE, 0x00, 0xFF),     # value
                          range(17)):                        # cert
        yield broadcast_message(*fields)


class TestGroundTruthOracles:
    def test_classification_matches_predicates(self):
        for message in _message_space():
            trojan = classify_message(message)
            expected = (is_node_accepted(message)
                        and not is_peer_generable(message))
            assert (trojan is not None) == expected, message.hex()

    def test_brute_force_covers_exactly_the_seeded_classes(self):
        found = {classify_message(m) for m in _message_space()}
        found.discard(None)
        assert found == set(SYSTEM.classes)
        assert len(SYSTEM.classes) == 7

    def test_generable_is_a_subset_of_accepted(self):
        for message in _message_space():
            if is_peer_generable(message):
                assert is_node_accepted(message), message.hex()

    def test_forged_send_is_one_class(self):
        forged = [classify_message(broadcast_message(MSG_SEND, sender,
                                                     BROADCAST_VALUE))
                  for sender in NODE_IDS if sender != BROADCASTER]
        assert all(cls == FORGED_SENDER for cls in forged)
        assert len(set(forged)) == 1

    def test_thin_quorum_is_one_class_per_certificate(self):
        classes = {classify_message(
            broadcast_message(MSG_READY, BROADCASTER, BROADCAST_VALUE,
                              cert))
            for cert in THIN_CERTS}
        assert all(cls is not None and cls.startswith(f"ready:{THIN_QUORUM}")
                   for cls in classes)
        assert len(classes) == len(THIN_CERTS) == 6
        assert "ready:thin-quorum(cert=0x03)" in classes

    def test_full_certificate_ready_is_benign(self):
        for cert in FULL_CERTS:
            ready = broadcast_message(MSG_READY, 1, BROADCAST_VALUE, cert)
            assert is_node_accepted(ready)
            assert is_peer_generable(ready)
            assert classify_message(ready) is None

    def test_equivocating_value_is_rejected_everywhere(self):
        for kind in (MSG_SEND, MSG_ECHO, MSG_READY):
            message = broadcast_message(kind, BROADCASTER, 0x13,
                                        FULL_CERTS[0])
            assert not is_node_accepted(message)
            assert not is_peer_generable(message)


class TestPinnedParams:
    def test_layout_is_the_wire_layout(self):
        assert SYSTEM.layout.fields == BROADCAST_LAYOUT.fields
        assert SYSTEM.destination == "node"
        assert set(SYSTEM.clients) == {"sender", "echoer", "readier"}

    def test_certificates_follow_the_protocol_thresholds(self):
        # The template fixes f = 1; the protocol's thresholds must agree.
        assert BROADCAST_PARAMS.node_mask == NODE_MASK
        bits = lambda mask: bin(mask).count("1")
        assert FULL_CERTS == tuple(mask for mask in range(NODE_MASK + 1)
                                   if bits(mask) >= ECHO_THRESHOLD)
        assert THIN_CERTS == tuple(mask for mask in range(NODE_MASK + 1)
                                   if bits(mask) == ECHO_THRESHOLD - 1)


class TestConcreteNode:
    def test_node_accept_matches_oracle(self):
        # Differential check: a node with the SEND history pinned accepts
        # exactly the oracle's accept set (counted via the accept tally).
        for message in _message_space():
            node = BroadcastNode(recorded=BROADCAST_VALUE)
            node.handle("peer", message, Network())
            assert (node.accepted == 1) == is_node_accepted(message), \
                message.hex()

    def test_strict_node_accepts_only_generable_messages(self):
        # The strict control is the fixed node: its accept set is the
        # correct peers' generable set, so no Trojans exist against it.
        for message in _message_space():
            node = BroadcastNode(strict=True, recorded=BROADCAST_VALUE)
            node.handle("peer", message, Network())
            assert (node.accepted == 1) == is_peer_generable(message), \
                message.hex()

    def test_delivery_needs_distinct_ready_senders(self):
        node = BroadcastNode(recorded=BROADCAST_VALUE)
        network = Network()
        ready = broadcast_message(MSG_READY, 1, BROADCAST_VALUE,
                                  FULL_CERTS[0])
        for _ in range(3):  # the same sender three times is one vote
            node.handle("peer", ready, network)
        assert node.delivered is None
        for sender in (2, 3):
            node.handle("peer",
                        broadcast_message(MSG_READY, sender,
                                          BROADCAST_VALUE, FULL_CERTS[0]),
                        network)
        assert node.delivered == BROADCAST_VALUE

    def test_forged_delivery_demo(self):
        outcome = run_forged_delivery_demo()
        assert outcome.forged_echoed          # echoed a stolen slot
        assert outcome.delivered == 0x66      # ...and delivered the forgery
        assert not outcome.control_echoed     # the fixed node did neither
        assert outcome.control_delivered is None

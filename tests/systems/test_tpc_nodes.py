"""Unit tests for the two-phase-commit system: the pinned template's
oracles and the concrete participant."""

from itertools import product

from repro.corpus.templates import EMPTY_OP, SKIP_WAL
from repro.messages.concrete import decode_ints, encode
from repro.net.network import Network, Node
from repro.systems.tpc import (
    ABORT,
    COMMIT,
    FLAG_DURABLE,
    FLAG_NONE,
    PREPARE,
    SYSTEM,
    TPC_LAYOUT,
    TpcParticipantNode,
    prepare_message,
    run_lost_write_demo,
)

classify_message = SYSTEM.classify
is_participant_accepted = SYSTEM.accepts
is_coordinator_generable = SYSTEM.generable


def _message(kind, txid, flags, op):
    return encode(TPC_LAYOUT, {"kind": kind, "txid": txid,
                               "flags": flags, "op": op})


def _small_message_space():
    for fields in product((PREPARE, COMMIT, ABORT, 0x00),
                          (0, 1, 2),        # txid
                          (0, 1, 2),        # flags
                          (0, 1)):          # op
        yield _message(*fields)


class TestGroundTruthOracles:
    def test_classification_matches_predicates(self):
        for message in _small_message_space():
            trojan = classify_message(message)
            expected = (is_participant_accepted(message)
                        and not is_coordinator_generable(message))
            assert (trojan is not None) == expected, message.hex()

    def test_brute_force_covers_exactly_the_seeded_classes(self):
        found = {classify_message(m) for m in _small_message_space()}
        found.discard(None)
        assert found == set(SYSTEM.classes)
        assert SYSTEM.classes == (SKIP_WAL, EMPTY_OP)

    def test_skip_wal_takes_priority_over_empty_op(self):
        both = _message(PREPARE, 1, FLAG_NONE, 0)  # flag clear AND empty op
        assert classify_message(both) == SKIP_WAL

    def test_empty_op_requires_durable_flag(self):
        empty = _message(PREPARE, 1, FLAG_DURABLE, 0)
        assert classify_message(empty) == EMPTY_OP

    def test_well_formed_prepare_is_benign(self):
        benign = _message(PREPARE, 1, FLAG_DURABLE, 0x77)
        assert is_participant_accepted(benign)
        assert is_coordinator_generable(benign)
        assert classify_message(benign) is None

    def test_close_messages_are_benign(self):
        for kind in (COMMIT, ABORT):
            close = _message(kind, 1, FLAG_NONE, 0)
            assert is_participant_accepted(close)
            assert is_coordinator_generable(close)


class _Coordinator(Node):
    def __init__(self, name="coordinator"):
        super().__init__(name)
        self.acks = []

    def handle(self, source, payload, network):
        self.acks.append(payload)


class TestPinnedParams:
    def test_layout_is_the_wire_layout(self):
        assert SYSTEM.layout.fields == TPC_LAYOUT.fields
        assert SYSTEM.destination == "participant"
        assert set(SYSTEM.clients) == {"prepare", "commit", "abort"}

    def test_close_messages_carry_the_none_flag(self):
        # The template fixes the COMMIT/ABORT flags byte at 0; the pinned
        # system is only the protocol's own if FLAG_NONE is that byte.
        assert FLAG_NONE == 0
        assert FLAG_DURABLE != FLAG_NONE


class TestConcreteParticipant:
    def test_participant_accepts_exactly_what_the_oracle_accepts(self):
        # Differential check: the concrete participant reads the protocol
        # constants, the oracle the pinned template parameters. A PREPARE
        # is accepted when it is acked; a COMMIT/ABORT when it closes a
        # transaction prepared just before (the oracle's prepared-set
        # lookup is over-approximated: any nonzero txid can be pending).
        for message in _small_message_space():
            network = Network()
            participant = network.attach(TpcParticipantNode())
            network.attach(_Coordinator())
            fields = decode_ints(TPC_LAYOUT, message)
            kind, txid = fields["kind"], fields["txid"]
            if kind in (COMMIT, ABORT) and txid:
                participant.handle("coordinator", prepare_message(txid),
                                   network)
            acked = len(participant.acked)
            participant.handle("coordinator", message, network)
            if kind == COMMIT:
                accepted = participant.committed == [txid]
            elif kind == ABORT:
                accepted = bool(txid) and not participant.survives_crash(txid)
            else:
                accepted = len(participant.acked) > acked
            assert accepted == is_participant_accepted(message), \
                message.hex()

    def test_lost_write_demo(self):
        outcome = run_lost_write_demo()
        assert outcome.acked           # the Trojan was acked like any prepare
        assert outcome.control_survived
        assert not outcome.survived_crash  # ...but the write is gone

    def test_acks_are_indistinguishable(self):
        network = Network()
        participant = TpcParticipantNode()
        coordinator = _Coordinator()
        network.attach(participant)
        network.attach(coordinator)
        network.send("coordinator", participant.name,
                     prepare_message(1, flags=FLAG_DURABLE))
        network.send("coordinator", participant.name,
                     prepare_message(2, flags=FLAG_NONE))
        network.run()
        assert len(coordinator.acks) == 2
        assert coordinator.acks[0] == coordinator.acks[1]

    def test_close_path_validates_like_the_reference(self):
        # The concrete node must mirror the symbolic participant: a
        # COMMIT with garbage flags or a payload byte is rejected, and
        # an ABORT retires both the pending entry and the WAL record.
        network = Network()
        participant = TpcParticipantNode()
        coordinator = _Coordinator()
        network.attach(participant)
        network.attach(coordinator)
        network.send("coordinator", participant.name, prepare_message(3))
        network.send("coordinator", participant.name,
                     _message(COMMIT, 3, 0xFF, 0))       # bad flags
        network.send("coordinator", participant.name,
                     _message(COMMIT, 3, FLAG_NONE, 7))  # bad padding
        network.run()
        assert participant.committed == []
        network.send("coordinator", participant.name,
                     _message(ABORT, 3, FLAG_NONE, 0))
        network.run()
        assert not participant.survives_crash(3)  # WAL record retired
        network.send("coordinator", participant.name,
                     _message(COMMIT, 3, FLAG_NONE, 0))
        network.run()
        assert participant.committed == []        # aborted: gone for good

    def test_commit_requires_pending_prepare(self):
        network = Network()
        participant = TpcParticipantNode()
        coordinator = _Coordinator()
        network.attach(participant)
        network.attach(coordinator)
        network.send("coordinator", participant.name,
                     _message(COMMIT, 5, FLAG_NONE, 0))
        network.run()
        assert participant.committed == []
        network.send("coordinator", participant.name, prepare_message(5))
        network.send("coordinator", participant.name,
                     _message(COMMIT, 5, FLAG_NONE, 0))
        network.run()
        assert participant.committed == [5]

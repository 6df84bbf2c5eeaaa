"""Unit tests for the Raft system: the pinned template's oracles, the
concrete follower, and the truncation attack."""

from itertools import product

from repro.corpus.templates import STALE_APPEND, VOTE_OFF_BY_ONE
from repro.messages.concrete import encode
from repro.systems.raft import (
    COMMIT_INDEX,
    CURRENT_TERM,
    LAST_INDEX,
    RAFT_LAYOUT,
    SYSTEM,
    RaftFollowerNode,
    TERM_LEADERS,
    append_message,
    run_truncation_attack,
)
from repro.net.network import Network, Node

classify_message = SYSTEM.classify
is_follower_accepted = SYSTEM.accepts
is_peer_generable = SYSTEM.generable


def _message(msg_type, term, sender, idx, logterm, cmd):
    return encode(RAFT_LAYOUT, {
        "type": msg_type, "term": term, "sender": sender,
        "idx": idx, "logterm": logterm, "cmd": cmd,
    })


def _small_message_space():
    """A brute-force slice of the wire space covering every branch."""
    for fields in product((0xA1, 0xB2, 0x00),      # type
                          range(0, CURRENT_TERM + 2),  # term
                          range(0, 5),              # sender
                          range(0, LAST_INDEX + 2),  # idx
                          range(0, 5),              # logterm
                          (0, 1)):                  # cmd
        yield _message(*fields)


def _kind(trojan_class: str) -> str:
    return trojan_class.split("(")[0]


def _index(trojan_class: str) -> int:
    return int(trojan_class.rsplit("index=", 1)[1].rstrip(")"))


class TestGroundTruthOracles:
    def test_generable_implies_not_trojan(self):
        for message in _small_message_space():
            if is_peer_generable(message):
                assert classify_message(message) is None

    def test_classification_matches_predicates(self):
        for message in _small_message_space():
            trojan = classify_message(message)
            expected = (is_follower_accepted(message)
                        and not is_peer_generable(message))
            assert (trojan is not None) == expected, message.hex()

    def test_brute_force_covers_exactly_the_seeded_classes(self):
        found = {classify_message(m) for m in _small_message_space()}
        found.discard(None)
        assert found == set(SYSTEM.classes)

    def test_nine_classes(self):
        classes = SYSTEM.classes
        assert len(classes) == len(set(classes)) == 9
        assert sum(1 for c in classes if _kind(c) == STALE_APPEND) == 8
        assert sum(1 for c in classes if _kind(c) == VOTE_OFF_BY_ONE) == 1
        assert f"{VOTE_OFF_BY_ONE}(index={LAST_INDEX - 1})" in classes

    def test_committed_truncation_marking(self):
        # One stale term per historical term, each probing every index
        # below the commit point: those classes erase committed entries.
        truncating = [c for c in SYSTEM.classes
                      if _kind(c) == STALE_APPEND
                      and _index(c) < COMMIT_INDEX]
        assert len(truncating) == (CURRENT_TERM - 1) * COMMIT_INDEX

    def test_stale_append_trojan_wire_shape(self):
        trojan = _message(0xA1, 1, TERM_LEADERS[1], 0, 0, 0x99)
        assert is_follower_accepted(trojan)
        assert not is_peer_generable(trojan)
        assert classify_message(trojan) == \
            f"{STALE_APPEND}(term=1, index=0)"

    def test_current_term_append_is_benign(self):
        benign = _message(0xA1, CURRENT_TERM, TERM_LEADERS[CURRENT_TERM],
                          LAST_INDEX, CURRENT_TERM, 0x42)
        assert is_follower_accepted(benign)
        assert is_peer_generable(benign)
        assert classify_message(benign) is None


class _Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle(self, source, payload, network):
        self.received.append(payload)


class TestPinnedParams:
    def test_layout_is_the_wire_layout(self):
        assert SYSTEM.layout.fields == RAFT_LAYOUT.fields
        assert SYSTEM.destination == "follower"
        assert set(SYSTEM.clients) == {"leader", "candidate"}

    def test_every_bug_is_seeded(self):
        assert set(SYSTEM.bugs) == {STALE_APPEND, VOTE_OFF_BY_ONE}


class TestConcreteFollower:
    def test_follower_accepts_exactly_what_the_oracle_accepts(self):
        # Differential check: the concrete follower reads the protocol
        # constants, the oracle the pinned template parameters; a fresh
        # follower must ack exactly the messages the oracle accepts.
        for message in _small_message_space():
            network = Network()
            follower = network.attach(RaftFollowerNode())
            network.attach(_Sink("peer"))
            follower.handle("peer", message, network)
            acked = follower.appends_acked + len(follower.votes_granted)
            assert acked == int(is_follower_accepted(message)), \
                message.hex()

    def test_truncation_attack_erases_committed_entries(self):
        outcome = run_truncation_attack()
        assert outcome.acked
        assert outcome.committed_lost == COMMIT_INDEX
        assert len(outcome.log_terms_after) < len(outcome.log_terms_before)

    def test_correct_append_preserves_committed_prefix(self):
        network = Network()
        follower = RaftFollowerNode()
        leader = _Sink("leader")
        network.attach(follower)
        network.attach(leader)
        network.send("leader", follower.name,
                     append_message(CURRENT_TERM, LAST_INDEX, cmd=0x07))
        network.run()
        assert follower.committed_lost == 0
        assert follower.appends_acked == 1
        assert follower.log_terms[:COMMIT_INDEX] == \
            list(range(1, COMMIT_INDEX + 1))

    def test_vote_off_by_one_grants_to_short_log(self):
        network = Network()
        follower = RaftFollowerNode()
        candidate = _Sink("candidate")
        network.attach(follower)
        network.attach(candidate)
        short_log = _message(0xB2, CURRENT_TERM, 2, LAST_INDEX - 1,
                             CURRENT_TERM, 0)
        network.send("candidate", follower.name, short_log)
        network.run()
        assert follower.votes_granted == [(2, LAST_INDEX - 1)]
        assert candidate.received  # the vote went out on the wire

    def test_vote_rejected_for_two_entry_gap(self):
        network = Network()
        follower = RaftFollowerNode()
        candidate = _Sink("candidate")
        network.attach(follower)
        network.attach(candidate)
        behind = _message(0xB2, CURRENT_TERM, 2, LAST_INDEX - 2,
                          CURRENT_TERM, 0)
        network.send("candidate", follower.name, behind)
        network.run()
        assert follower.votes_granted == []

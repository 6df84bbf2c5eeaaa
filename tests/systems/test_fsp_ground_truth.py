"""Tests for the FSP ground-truth oracles and Trojan class math (§6.2)."""

from dataclasses import replace

from hypothesis import given, strategies as st

from repro.messages.concrete import encode
from repro.systems.fsp import (
    COMMANDS,
    FSP_LAYOUT,
    FSP_PARAMS,
    SYSTEM,
    GroundTruth,
    all_trojan_classes,
    fsp_system,
)
from repro.systems.fsp.protocol import STUBS

GLOBBING = fsp_system(replace(FSP_PARAMS, globbing=True,
                              listing=("f1", "f2", "doc")))
is_server_accepted = SYSTEM.accepts
is_client_generable = SYSTEM.generable
classify_message = SYSTEM.classify


def _message(cmd=None, bb_len=1, buf=b"a\x00\x00\x00\x00", **overrides):
    fields = {
        "cmd": cmd if cmd is not None else COMMANDS["frm"],
        "sum": STUBS["sum"],
        "bb_key": STUBS["bb_key"],
        "bb_seq": STUBS["bb_seq"],
        "bb_len": bb_len,
        "bb_pos": STUBS["bb_pos"],
        "buf": buf,
    }
    fields.update(overrides)
    return encode(FSP_LAYOUT, fields)


class TestClassCount:
    def test_exactly_eighty_classes(self):
        # (1 + 2 + 3 + 4) * 8 = 80 (§6.2).
        assert len(all_trojan_classes()) == 80

    def test_classes_are_distinct(self):
        classes = all_trojan_classes()
        assert len(set(classes)) == len(classes)

    def test_true_length_always_below_reported(self):
        for cls in all_trojan_classes():
            reported, true = _lengths(cls)
            assert true < reported

    def test_labels_are_utility_and_lengths(self):
        assert all_trojan_classes()[:3] == [
            "fls(L=1, t=0)", "fls(L=2, t=0)", "fls(L=2, t=1)"]

    def test_globbing_adds_one_wildcard_class_per_length(self):
        # 80 mismatched-length classes + 8 utilities x 4 lengths.
        assert len(GLOBBING.classes) == 112
        assert set(all_trojan_classes()) < set(GLOBBING.classes)
        assert "fcat(L=3, wildcard)" in GLOBBING.classes

    def test_commands_without_a_client_are_trojans_at_every_length(self):
        system = fsp_system(replace(FSP_PARAMS, utilities=("fls",)))
        message = _message(cmd=COMMANDS["frm"], bb_len=2, buf=b"ab\x00zz")
        assert system.classify(message) == "frm(L=2, t=2)"
        assert system.classify(_message(cmd=COMMANDS["fls"], bb_len=2,
                                        buf=b"ab\x00zz")) is None
        assert len(system.classes) == 10 + 7 * (2 + 3 + 4 + 5)


class TestServerOracle:
    def test_valid_message_accepted(self):
        assert is_server_accepted(_message(bb_len=1, buf=b"a\x00xyz"))

    def test_wrong_stub_rejected(self):
        assert not is_server_accepted(_message(sum=0))

    def test_unknown_command_rejected(self):
        assert not is_server_accepted(_message(cmd=0xFF))

    def test_zero_length_rejected(self):
        assert not is_server_accepted(_message(bb_len=0, buf=b"\x00" * 5))

    def test_missing_terminator_rejected(self):
        assert not is_server_accepted(_message(bb_len=2, buf=b"abcde"))

    def test_unprintable_path_rejected(self):
        assert not is_server_accepted(_message(bb_len=1, buf=b"\x07\x00abc"))

    def test_early_nul_accepted_the_bug(self):
        # bb_len=3 but the path ends at 1: the mismatched-length Trojan.
        assert is_server_accepted(_message(bb_len=3, buf=b"a\x00X\x00z"))

    def test_wildcard_accepted_the_bug(self):
        assert is_server_accepted(_message(bb_len=2, buf=b"f*\x00zz"))


class TestClientOracle:
    def test_valid_message_generable(self):
        assert is_client_generable(_message(bb_len=2, buf=b"ab\x00zz"))

    def test_early_nul_not_generable(self):
        assert not is_client_generable(_message(bb_len=3, buf=b"a\x00X\x00z"))

    def test_wildcard_generable_only_in_literal_mode(self):
        message = _message(bb_len=2, buf=b"f*\x00zz")
        assert is_client_generable(message)
        assert not GLOBBING.generable(message)
        assert GLOBBING.classify(message) == "frm(L=2, wildcard)"


class TestClassify:
    def test_valid_message_is_not_trojan(self):
        assert classify_message(_message(bb_len=1, buf=b"a\x00xyz")) is None

    def test_trojan_maps_to_its_class(self):
        trojan = classify_message(_message(cmd=COMMANDS["fcat"], bb_len=3,
                                           buf=b"ab\x00\x00z"))
        assert trojan == "fcat(L=3, t=2)"

    def test_every_class_has_a_witness(self):
        # Construct the canonical witness of each class and classify it
        # back: the mapping is exact and onto.
        for cls in all_trojan_classes():
            reported, true = _lengths(cls)
            path = b"x" * true
            buf = bytearray(5)
            buf[:len(path)] = path
            # NUL at true_length (already zero), terminator at reported
            # length (already zero), printable filler elsewhere.
            for position in range(true + 1, 5):
                if position != reported:
                    buf[position] = ord("y")
            message = _message(cmd=COMMANDS[cls.partition("(")[0]],
                               bb_len=reported, buf=bytes(buf))
            assert classify_message(message) == cls


class TestScoring:
    def test_score_separates_tp_and_fp(self):
        trojan = _message(bb_len=2, buf=b"a\x00\x00zz")
        valid = _message(bb_len=1, buf=b"a\x00xyz")
        score = GroundTruth.score([trojan, valid, trojan])
        assert score.true_positives == 2
        assert score.false_positives == 1
        assert len(score.classes_found) == 1

    def test_coverage_and_missing(self):
        score = GroundTruth.score([])
        assert score.coverage == 0.0
        assert len(score.missing()) == 80

    @given(payload=st.binary(min_size=17, max_size=17))
    def test_oracles_consistent_on_random_messages(self, payload):
        """classify() is exactly 'accepted and not generable', and names
        a class of the universe."""
        for system in (SYSTEM, GLOBBING):
            trojan = system.classify(payload)
            assert (trojan is not None) == (system.accepts(payload)
                                            and not system.generable(payload))
            assert trojan is None or trojan in system.classes


def _lengths(label: str) -> tuple[int, int]:
    """(L, t) of a mismatched-length class label such as
    ``fcat(L=3, t=2)``."""
    reported, true = label[label.index("(") + 1:-1].split(", ")
    return int(reported[2:]), int(true[2:])

"""Concrete two-phase-commit participant — the ack-without-WAL impact.

The symbolic analysis finds the ack-without-WAL Trojan; this module
shows what it *does*: a participant built from the same protocol
constants acks a PREPARE with the durable flag clear exactly like a
well-formed one, and loses the prepared write on a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.messages.concrete import decode_ints, encode
from repro.net.network import Network, Node
from repro.systems.tpc.protocol import (
    ABORT,
    ACK_PREPARED,
    COMMIT,
    FLAG_DURABLE,
    FLAG_NONE,
    NO_OP,
    PREPARE,
    TPC_LAYOUT,
)


@dataclass
class WalRecord:
    """One write-ahead record: the prepared operation for a transaction."""

    txid: int
    op: int


class TpcParticipantNode(Node):
    """Concrete participant with the same ack-without-WAL bug.

    ``crash()`` models a restart: everything not in the write-ahead log
    is lost. A prepared-and-acked transaction that vanishes on restart is
    the broken promise the Trojan exploits.
    """

    def __init__(self, name: str = "participant"):
        super().__init__(name)
        self.wal: list[WalRecord] = []
        self.acked: list[int] = []
        self.committed: list[int] = []
        self._pending: dict[int, int] = {}

    def handle(self, source: str, payload: bytes, network: Network) -> None:
        if len(payload) != TPC_LAYOUT.total_size:
            return
        fields = decode_ints(TPC_LAYOUT, payload)
        kind, txid = fields["kind"], fields["txid"]
        if txid == 0:
            return
        if kind == PREPARE:
            if fields["flags"] == FLAG_DURABLE:
                self.wal.append(WalRecord(txid, fields["op"]))
            elif fields["flags"] != FLAG_NONE:
                return
            # FLAG_NONE falls through: acked but never logged (the bug).
            self._pending[txid] = fields["op"]
            self.acked.append(txid)
            network.send(self.name, source, bytes([ACK_PREPARED]))
        elif kind in (COMMIT, ABORT):
            # Same close validation as the symbolic participant: bare
            # messages only.
            if fields["flags"] != FLAG_NONE or fields["op"] != NO_OP:
                return
            if txid not in self._pending:
                return
            if kind == COMMIT:
                self.committed.append(txid)
            else:
                self.wal = [record for record in self.wal
                            if record.txid != txid]
            del self._pending[txid]

    def crash(self) -> None:
        """Restart: recover only what the write-ahead log holds."""
        self._pending = {record.txid: record.op for record in self.wal}

    def survives_crash(self, txid: int) -> bool:
        return any(record.txid == txid for record in self.wal)


def prepare_message(txid: int, op: int = 0x77,
                    flags: int = FLAG_DURABLE) -> bytes:
    """Encode one PREPARE wire message."""
    return encode(TPC_LAYOUT, {"kind": PREPARE, "txid": txid,
                               "flags": flags, "op": op})


@dataclass
class LostWriteOutcome:
    """Evidence of the ack-without-WAL Trojan on a live participant."""

    acked: bool = False
    survived_crash: bool = False
    control_survived: bool = True


def run_lost_write_demo() -> LostWriteOutcome:
    """Ack-without-WAL end to end: prepare, ack, crash, write gone.

    A well-formed PREPARE (the control) survives the crash; the Trojan
    PREPARE is acked identically but vanishes on restart.
    """
    network = Network()
    participant = TpcParticipantNode()
    coordinator = _Coordinator("coordinator")
    network.attach(participant)
    network.attach(coordinator)

    network.send("coordinator", participant.name,
                 prepare_message(txid=1, flags=FLAG_DURABLE))
    network.send("coordinator", participant.name,
                 prepare_message(txid=2, flags=FLAG_NONE))
    network.run()

    outcome = LostWriteOutcome(acked=2 in participant.acked)
    participant.crash()
    outcome.control_survived = participant.survives_crash(1)
    outcome.survived_crash = participant.survives_crash(2)
    return outcome


class _Coordinator(Node):
    """Collects participant acks."""

    def __init__(self, name: str):
        super().__init__(name)
        self.acks: list[bytes] = []

    def handle(self, source: str, payload: bytes,
               network: Network) -> None:
        self.acks.append(payload)

"""Two-phase commit — atomic commitment under test.

A coordinator prepares, commits and aborts transactions across
participants. The seeded vulnerability family lives on the participant's
``PREPARE`` path:

* **ack-without-WAL** — a malformed PREPARE with the durable flag clear
  is acked exactly like a well-formed one but never reaches the
  write-ahead log; a crash after the ack silently loses the prepared
  write (commit atomicity broken);
* **empty-op** — the operation payload is never validated, so the empty
  operation (which no correct coordinator prepares) is logged and acked.

:data:`SYSTEM` is the two-phase-commit template of
:mod:`repro.corpus.templates` pinned to :data:`TPC_PARAMS`: its
coordinator clients, participant server, oracles
(``accepts``/``generable``/``classify``) and class universe. The
concrete participant (for the simulated network) reads the same
protocol constants.
"""

from repro.corpus.templates import bound_ground_truth, tpc_system
from repro.systems.tpc.protocol import (
    ABORT,
    ACK_PREPARED,
    COMMIT,
    FLAG_DURABLE,
    FLAG_NONE,
    NO_OP,
    PREPARE,
    TPC_LAYOUT,
    TPC_PARAMS,
)
from repro.systems.tpc.nodes import (
    LostWriteOutcome,
    TpcParticipantNode,
    WalRecord,
    prepare_message,
    run_lost_write_demo,
)

#: The pinned two-phase-commit system: ack-without-WAL and empty-op.
SYSTEM = tpc_system(TPC_PARAMS)

#: Scores witnesses against :data:`SYSTEM`'s oracle.
GroundTruth = bound_ground_truth(SYSTEM)

__all__ = [
    "ABORT",
    "ACK_PREPARED",
    "COMMIT",
    "FLAG_DURABLE",
    "FLAG_NONE",
    "GroundTruth",
    "LostWriteOutcome",
    "NO_OP",
    "PREPARE",
    "SYSTEM",
    "TPC_LAYOUT",
    "TPC_PARAMS",
    "TpcParticipantNode",
    "WalRecord",
    "prepare_message",
    "run_lost_write_demo",
]

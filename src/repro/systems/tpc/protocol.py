"""Two-phase-commit wire protocol constants and layout.

A coordinator drives transactions across participants with three message
kinds on one fixed-size layout::

    kind(1) | txid(1) | flags(1) | op(1)

* ``PREPARE`` asks the participant to make operation ``op`` durable and
  vote; a correct coordinator always sets :data:`FLAG_DURABLE` (force a
  write-ahead record before acking) and never prepares an empty
  operation (``op != NO_OP``).
* ``COMMIT`` / ``ABORT`` close a transaction; they carry no payload
  (``flags == FLAG_NONE``, ``op == NO_OP``).

:data:`TPC_PARAMS` pins the two-phase-commit template of
:mod:`repro.corpus.templates` to these constants, which derives the
symbolic programs and the ground-truth oracle from them. Two
vulnerabilities are seeded in the participant:

* **ack-without-WAL** — a malformed ``PREPARE`` with the durable flag
  clear is acked exactly like a well-formed one, but the participant
  skips the write-ahead record: a crash after the ack silently loses
  the prepared write, breaking commit atomicity;
* **empty-op prepare** — the participant never validates the operation
  payload, so an ``op == NO_OP`` prepare (which no correct coordinator
  sends) is logged and acked.
"""

from __future__ import annotations

from repro.corpus.templates import EMPTY_OP, SKIP_WAL, TpcParams
from repro.messages.layout import Field, MessageLayout

#: Message kinds (the ``kind`` byte).
PREPARE = 0x50
COMMIT = 0x43
ABORT = 0x41

#: Flag values: correct PREPAREs force the write-ahead log.
FLAG_NONE = 0x00
FLAG_DURABLE = 0x01

#: The empty operation — never prepared by a correct coordinator.
NO_OP = 0x00

#: Participant ack byte (same for logged and unlogged prepares — that
#: indistinguishability is what makes the skipped WAL a Trojan).
ACK_PREPARED = 0x2B

TPC_LAYOUT = MessageLayout("tpc", [
    Field("kind", 1),
    Field("txid", 1),
    Field("flags", 1),
    Field("op", 1),
])

#: The two-phase-commit template pinned to the constants above, with
#: both bugs seeded (COMMIT/ABORT carry :data:`FLAG_NONE`, which the
#: template fixes at 0).
TPC_PARAMS = TpcParams(
    field_order=tuple(field.name for field in TPC_LAYOUT.fields),
    txid_size=1, pad_size=0, prepare=PREPARE, commit=COMMIT, abort=ABORT,
    flag_durable=FLAG_DURABLE, no_op=NO_OP, bugs=(SKIP_WAL, EMPTY_OP))

"""Systems under test: the paper's working example and evaluation targets.

Each subpackage models one distributed system at the protocol-grammar
level the Achilles analysis operates on:

* :mod:`~repro.systems.toy` — the §2.1 READ/WRITE working example with
  the forgotten ``address < 0`` check;
* :mod:`~repro.systems.fsp` — the FSP file transfer protocol (wildcard
  and mismatched-length Trojans, §6.3);
* :mod:`~repro.systems.pbft` — PBFT request ingress and a simulated
  replica cluster (the MAC attack, §6.3);
* :mod:`~repro.systems.paxos` — a single-decree Paxos acceptor used to
  demonstrate the local-state modes (§3.4);
* :mod:`~repro.systems.raft` — a Raft-style leader-election +
  log-replication follower (stale-term AppendEntries truncation and a
  vote-granting off-by-one, both seeded);
* :mod:`~repro.systems.tpc` — a two-phase-commit participant (malformed
  PREPARE acked without its write-ahead record and an unvalidated empty
  operation, both seeded);
* :mod:`~repro.systems.broadcast` — a Bracha reliable-broadcast node
  (forged-sender SEND and a thin-quorum READY certificate, both seeded).

Every system ships *node programs* (symbolic, for Achilles) and
*concrete nodes* (for the simulated network), built from the same
protocol constants so findings transfer between the two. Toy, PBFT and
Paxos hand-write their node programs. FSP, Raft, 2PC and broadcast do
not: each pins a parameter set (``FSP_PARAMS``, ``RAFT_PARAMS``,
``TPC_PARAMS``, ``BROADCAST_PARAMS``) of a template — FSP's in
:mod:`repro.systems.fsp.template`, the other three in
:mod:`repro.corpus.templates` — which derives the symbolic programs and
the exact ground-truth oracle, and exports the result as ``SYSTEM`` (a
:class:`~repro.systems.scoring.SystemVariant`) and ``GroundTruth``.
"""

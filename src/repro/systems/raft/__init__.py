"""Raft — leader election and log replication under test.

A three-node Raft-style replicated key-value store, analyzed at one
follower's RPC ingress. Two Trojan families are seeded:

* **Stale-term AppendEntries** — the follower forgets the
  ``term >= currentTerm`` rejection, so a deposed leader's AppendEntries
  is accepted; because acceptance truncates the log after prevLogIndex,
  the Trojans with ``prevLogIndex < COMMIT_INDEX`` erase *committed*
  entries (8 classes over ``(stale term, prevLogIndex)``);
* **Vote off-by-one** — the up-to-date check grants votes at
  ``lastLogIndex + 1 >= LAST_INDEX``, electing a candidate whose log is
  one entry short of the follower's (1 class).

:data:`SYSTEM` is the raft template of :mod:`repro.corpus.templates`
pinned to :data:`RAFT_PARAMS`: its correct-peer clients, follower
server, oracles (``accepts``/``generable``/``classify``) and class
universe. The concrete follower (for the simulated network) reads the
same protocol constants, so findings transfer between the two.
"""

from repro.corpus.templates import bound_ground_truth, raft_system
from repro.systems.raft.protocol import (
    COMMIT_INDEX,
    CURRENT_TERM,
    LAST_INDEX,
    LAST_TERM,
    LOG_TERMS,
    MSG_APPEND,
    MSG_VOTE,
    NODE_IDS,
    RAFT_LAYOUT,
    RAFT_PARAMS,
    TERM_LEADERS,
    VOTE_PADDING,
)
from repro.systems.raft.cluster import (
    LogEntry,
    RaftFollowerNode,
    TruncationOutcome,
    append_message,
    run_truncation_attack,
)

#: The pinned Raft system: 8 stale-term AppendEntries classes and the
#: vote off-by-one.
SYSTEM = raft_system(RAFT_PARAMS)

#: Scores witnesses against :data:`SYSTEM`'s oracle.
GroundTruth = bound_ground_truth(SYSTEM)

__all__ = [
    "COMMIT_INDEX",
    "CURRENT_TERM",
    "GroundTruth",
    "LAST_INDEX",
    "LAST_TERM",
    "LOG_TERMS",
    "LogEntry",
    "MSG_APPEND",
    "MSG_VOTE",
    "NODE_IDS",
    "RAFT_LAYOUT",
    "RAFT_PARAMS",
    "RaftFollowerNode",
    "SYSTEM",
    "TERM_LEADERS",
    "TruncationOutcome",
    "VOTE_PADDING",
    "append_message",
    "run_truncation_attack",
]

"""Raft wire protocol constants and layout.

A three-node Raft-style replicated key-value store, modelled at the
point the paper's analysis needs: one follower's RPC ingress. Both RPC
kinds share a single fixed-size layout::

    type(1) | term(1) | sender(1) | idx(1) | logterm(1) | cmd(1)

* **AppendEntries** (``type == MSG_APPEND``): ``idx``/``logterm`` carry
  the prevLogIndex/prevLogTerm consistency probe, ``cmd`` the one
  replicated command byte (the entry's term is the message term).
* **RequestVote** (``type == MSG_VOTE``): ``idx``/``logterm`` carry the
  candidate's lastLogIndex/lastLogTerm; ``cmd`` is zero padding.

Following the paper's annotation-stub approach (§6.1), the cluster
*history* is pinned to constants both sides agree on: the follower under
analysis is at term :data:`CURRENT_TERM` with the reference log
:data:`LOG_TERMS` and the per-term leaders are :data:`TERM_LEADERS`; a
correct peer's log holds at least the committed prefix and at most the
full log.

:data:`RAFT_PARAMS` pins the raft template of
:mod:`repro.corpus.templates` to these constants, which derives the
symbolic programs and the ground-truth oracle from them. Two
vulnerabilities are seeded in the follower:

* **stale-term AppendEntries** — the follower never rejects
  ``term < CURRENT_TERM``, so an AppendEntries from a deposed leader is
  accepted and, because acceptance truncates the log after ``idx``, a
  stale message with ``idx < COMMIT_INDEX`` erases *committed* entries;
* **vote off-by-one** — the up-to-date check grants votes when
  ``lastLogIndex + 1 >= LAST_INDEX`` instead of
  ``lastLogIndex >= LAST_INDEX``, electing candidates whose log is one
  entry short.
"""

from __future__ import annotations

from repro.corpus.templates import STALE_APPEND, VOTE_OFF_BY_ONE, RaftParams
from repro.messages.layout import Field, MessageLayout

#: RPC kinds (the ``type`` byte).
MSG_APPEND = 0xA1
MSG_VOTE = 0xB2

#: The three cluster members.
NODE_IDS = (1, 2, 3)

#: The follower's current term — correct peers campaign and replicate
#: in this term (history stub, §6.1-style).
CURRENT_TERM = 3

#: Leader of each historical term (history stub). The follower knows
#: these from the elections it observed.
TERM_LEADERS = {1: 2, 2: 3, 3: 1}

#: Term of the follower's log entry at each index; index 0 is the empty
#: prefix sentinel. The follower's log is [1, 2, 3] at indexes 1..3.
LOG_TERMS = (0, 1, 2, 3)

#: Index of the follower's last log entry.
LAST_INDEX = len(LOG_TERMS) - 1

#: Term of the follower's last log entry.
LAST_TERM = LOG_TERMS[LAST_INDEX]

#: Entries up to this index are committed (applied to the KV store);
#: a correct leader never asks a follower to truncate below it.
COMMIT_INDEX = 2

#: RequestVote messages carry zero padding in the command slot.
VOTE_PADDING = 0

RAFT_LAYOUT = MessageLayout("raft", [
    Field("type", 1),
    Field("term", 1),
    Field("sender", 1),
    Field("idx", 1),
    Field("logterm", 1),
    Field("cmd", 1),
])

#: The raft template pinned to the constants above, with both bugs
#: seeded.
RAFT_PARAMS = RaftParams(
    field_order=tuple(field.name for field in RAFT_LAYOUT.fields),
    pad_size=0, msg_append=MSG_APPEND, msg_vote=MSG_VOTE,
    node_ids=NODE_IDS, current_term=CURRENT_TERM, log_terms=LOG_TERMS,
    term_leaders=tuple(TERM_LEADERS[term]
                       for term in range(1, CURRENT_TERM + 1)),
    commit_index=COMMIT_INDEX, bugs=(STALE_APPEND, VOTE_OFF_BY_ONE))

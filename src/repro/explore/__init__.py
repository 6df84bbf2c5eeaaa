"""Sharded parallel exploration: decision-prefix partitioning of the path tree.

This package parallelizes the *exploration itself* (Cloud9-style): the
symbolic path tree is split by decision prefixes across a pool of worker
processes, each running the stock
:meth:`repro.symex.engine.Engine.explore` loop below its prefixes with a
fully private solver pipeline (hash-consed arena, canonical
:class:`~repro.solver.cache.QueryCache` that starts empty, incremental
frame stack — one engine per process).

The protocol, end to end:

1. **Seed** (:class:`~repro.explore.shard.FrontierControl`): the
   coordinator explores in-process until its worklist holds at least
   ``seed_factor x shards`` unexplored fork prefixes, then stops; the
   remaining worklist is the *frontier*. Every frontier entry is a
   decision prefix — a recorded branch-direction vector that the engine's
   schedule mechanism replays deterministically (scheduled branches take
   the recorded direction with no new solver checks), so handing a prefix
   to another process hands it exactly the subtree below that fork.
2. **Hand out** (:mod:`~repro.explore.scheduler`): the frontier is
   sorted canonically and handed out one prefix per assignment — each
   idle worker gets the next pending prefix, and each result a worker
   reports earns it the next one, until the frontier drains. No prefix
   is ever split or moved between workers, so a worker's solver work
   depends only on the prefixes it drew. Each worker explores its
   prefix to exhaustion and reports a
   :class:`~repro.explore.shard.ShardOutcome`. A worker builds its
   engine and its ``(program, observer)`` pair once per session and
   keeps them for every assignment; its observer starts from the memo
   the coordinator's observer exported after the seed
   (:meth:`~repro.symex.observers.PathObserver.export_memo` — for the
   Trojan search, the seeded prefix trie), so no prefix the seed or an
   earlier assignment decided is decided again in that worker.
3. **Merge** (:mod:`~repro.explore.merge`): shard outcomes fold into one
   :class:`~repro.symex.engine.ExplorationResult` — paths renumbered in
   canonical prefix order (lexicographic, True before False, which *is*
   the serial DFS completion order), exploration/solver counters summed
   in a fixed order, and per-shard observer findings reduced through the
   :class:`~repro.symex.observers.ObserverDelta` protocol. The merged
   output is a pure function of the explored tree: byte-identical at any
   shard count, in any assignment order, for DFS-ordered runs
   byte-identical to the plain serial engine.

The explored tree itself is shard-invariant because every pruning input
is pure: branch feasibility is a function of the path condition, and
delta-capable observers are (by the :class:`PathObserver` contract)
deterministic functions of the constraint sequence.

Sharding is the one parallelism axis: the solver service (layer 5)
batches independent queries through one in-process frame stack, while
this layer spreads the walk itself — path replays, per-constraint
observer probes — across the cores of this machine.

The shard workers are ``multiprocessing`` processes
(:class:`~repro.explore.transport.LocalTransport`). The coordinator
reaches them only through the :class:`~repro.explore.transport.Transport`
interface, which is where :class:`~repro.explore.faults.FaultyTransport`
injects scripted worker loss.

A lost worker (SIGKILL, OOM kill) fails the run by default. Under
``on_worker_loss="recover"`` the coordinator aborts the whole fleet,
drops every shard outcome it has received, and explores the seeded
frontier itself in one in-process walk; the merge makes that walk's
output byte-identical to the fleet's. No worker is ever replaced, so
no worker's share ever has to be carved out of another's.

A sharded run keeps no durable state: the coordinator holds the seed
outcome, the frontier and every shard outcome in memory until the merge,
and writes nothing to disk. A killed run is simply run again — a hunt
takes seconds, less than setting up a resume would.
"""

from repro.explore.faults import (
    DelayResult,
    FaultPlan,
    FaultyTransport,
    GarbleResult,
    KillWorker,
)
from repro.explore.merge import MergedExploration, merge_outcomes
from repro.explore.scheduler import ShardedExploration, ShardScheduler
from repro.explore.shard import (
    Assignment,
    FrontierControl,
    ShardOutcome,
)
from repro.explore.transport import (
    LocalTransport,
    Transport,
    WorkerSession,
)

__all__ = [
    "Assignment",
    "DelayResult",
    "FaultPlan",
    "FaultyTransport",
    "FrontierControl",
    "GarbleResult",
    "KillWorker",
    "LocalTransport",
    "MergedExploration",
    "ShardOutcome",
    "ShardScheduler",
    "ShardedExploration",
    "Transport",
    "WorkerSession",
    "merge_outcomes",
]

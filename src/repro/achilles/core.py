"""The Achilles orchestrator: two phases plus pre-processing (§3).

Usage::

    config = AchillesConfig(layout=FSP_LAYOUT,
                            mask=FieldMask.hide("sum", "bb_key"))
    achilles = Achilles(config)
    report = achilles.run(clients={"fget": fget_client, ...},
                          server=fsp_server)
    for finding in report.findings:
        print(finding.witness_fields(FSP_LAYOUT))

``run`` executes phase 1 (client predicate extraction), the pre-processing
step (de-duplication, negations), and phase 2 (server
exploration with incremental Trojan search), reporting the wall-clock
split the paper quotes in §6.2.

Both phases share one canonical :class:`~repro.solver.cache.QueryCache`
(held on the :class:`Achilles` instance as ``query_cache``): feasibility
answers computed while exploring the clients are reused verbatim during
the server search whenever the canonicalized constraint sets coincide.
With ``shards > 1`` only the coordinator's seed phase reads it: each
shard worker starts with an empty private cache. The cache lives in
memory for one run.
The cache's hit/miss counters are surfaced on the resulting
:class:`~repro.achilles.report.AchillesReport` (``cache_hits``,
``cache_misses``, ``cache_hit_rate``).

Under the cache, each phase's engine answers misses through an
incremental assertion stack
(:class:`~repro.solver.incremental.IncrementalSolver`): the full solver
pipeline is canonicalize → shared query cache (identical queries) →
per-engine frame stack (prefix-sharing queries reuse interval-propagation
fixpoints; ``frames_reused`` / ``propagation_seconds`` on the report) →
from-scratch search for whatever remains. Pre-processing batches its
negation overlap checks through one
:class:`~repro.solver.service.SolverService`. The ``differentFrom``
matrix computes an entry only when the server search first reads it, on
one frame stack per matrix row and on pre-processing's solver, so its
queries stay out of ``report.solver_queries``.

The one parallelism knob is ``AchillesConfig.shards``: it partitions the
phase-2 path tree across local worker processes (:mod:`repro.explore`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.achilles.client_analysis import (
    ClientPredicateSet,
    extract_client_predicates,
    preprocess,
)
from repro.achilles.mask import FieldMask
from repro.achilles.report import AchillesReport
from repro.achilles.server_analysis import (
    OptimizationFlags,
    ServerProgram,
    search_server,
)
from repro.errors import AchillesError
from repro.explore.transport import Transport
from repro.messages.layout import MessageLayout
from repro.messages.symbolic import message_vars
from repro.solver.cache import QueryCache
from repro.solver.solver import Solver
from repro.symex.engine import EngineConfig, NodeProgram


@dataclass
class AchillesConfig:
    """Configuration of one Achilles run.

    This is the one description of the run settings: the command-line
    flags, the experiment drivers' ``**settings`` and
    :func:`~repro.achilles.server_analysis.search_server` all carry them
    as these fields.

    Attributes:
        layout: wire layout shared by client and server.
        mask: fields hidden from the Trojan check (§5.2).
        client_engine / server_engine: exploration limits per phase
            (``--search-order`` and ``--max-paths`` set both).
        optimizations: the §3.3 switches (all on by default).
        destination: when set, only client messages sent to this node
            name enter ``PC``.
        msg_name: base name of the server's symbolic message variables.
        shards: phase-2 exploration shard count. 1 (the default) walks
            the server's path tree in one process; >1 partitions the
            tree by decision prefixes across that many worker processes
            (:mod:`repro.explore`), handing out one frontier prefix per
            assignment. Findings are byte-identical at any shard count.
        transport: a test seam, set by no flag. None (the default)
            runs the shard workers as ``multiprocessing`` processes on
            this machine (:class:`~repro.explore.transport.LocalTransport`);
            a :class:`~repro.explore.transport.Transport` instance — a
            fault-injecting or scripted stand-in — is used as given.
        on_worker_loss: what a sharded search does when a worker dies
            silently mid-run (SIGKILL, OOM kill). ``"fail"`` (the
            default) raises an error naming the dead worker and the
            decision prefixes it held; ``"recover"`` stops every worker,
            discards their results and finishes the search in-process —
            findings stay byte-identical, the fault costs only wall
            clock (reported as ``AchillesReport.recovery_seconds``).
        trace_dir: when set, record structured spans across the whole
            phase-2 search — coordinator phases, per-worker exploration
            and every solver layer — and write the merged trace to
            ``trace_dir/trace.jsonl`` (inspect with ``python -m repro
            trace summarize``, convert with ``trace export``). Purely
            observational: findings are byte-identical with tracing on
            or off.
        progress: emit a periodic one-line fleet status to stderr while
            the phase-2 search runs (paths/sec, busy workers, worklist
            depth, cache hit rate).
    """

    layout: MessageLayout
    mask: FieldMask = field(default_factory=FieldMask.none)
    client_engine: EngineConfig = field(default_factory=EngineConfig)
    server_engine: EngineConfig = field(default_factory=EngineConfig)
    optimizations: OptimizationFlags = field(default_factory=OptimizationFlags)
    destination: str | None = None
    msg_name: str = "msg"
    shards: int = 1
    transport: Transport | None = None
    on_worker_loss: str = "fail"
    trace_dir: str | None = None
    progress: bool = False

    def __post_init__(self) -> None:
        # Validate here, not when the shard workers start: a bad count
        # otherwise surfaces deep inside multiprocessing as a confusing
        # failure.
        if self.shards < 1:
            raise AchillesError(
                f"AchillesConfig.shards must be >= 1, got {self.shards} "
                "(1 = in-process exploration; N > 1 = N exploration "
                "shard processes)")
        if not (self.transport is None
                or isinstance(self.transport, Transport)):
            raise AchillesError(
                f"AchillesConfig.transport must be None (local worker "
                f"processes) or a Transport instance, got "
                f"{self.transport!r}")
        if self.on_worker_loss not in ("fail", "recover"):
            raise AchillesError(
                f"AchillesConfig.on_worker_loss must be 'fail' or "
                f"'recover', got {self.on_worker_loss!r}")
        if self.trace_dir is not None:
            trace_path = Path(self.trace_dir)
            if trace_path.exists() and not trace_path.is_dir():
                raise AchillesError(
                    f"AchillesConfig.trace_dir points at a file "
                    f"({trace_path}); it must name a directory for the "
                    "trace (it is created if missing)")


class Achilles:
    """Finds Trojan messages: accepted by the server, ungenerable by clients."""

    def __init__(self, config: AchillesConfig):
        config.mask.validate(config.layout)
        self.config = config
        self.server_msg = message_vars(config.layout, config.msg_name)
        # One canonical query cache for the whole run: phase 1 engines and
        # the in-process phase 2 search consult (and fill) the same
        # instance; shard workers keep private ones.
        self.query_cache = QueryCache()

    def close(self) -> None:
        """Release run resources; an Achilles run holds none past its
        calls, so this only completes the context-manager protocol."""

    def __enter__(self) -> "Achilles":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- individual phases --------------------------------------------------------

    def extract_clients(self,
                        clients: dict[str, NodeProgram] | list[NodeProgram],
                        ) -> ClientPredicateSet:
        """Phase 1 + pre-processing: build ``PC`` ready for the search."""
        predicates, stats = extract_client_predicates(
            clients, self.config.layout, self.config.client_engine,
            self.config.destination, query_cache=self.query_cache)
        if not predicates:
            raise AchillesError(
                "no client messages captured; check the destination filter "
                "and that the clients reach ctx.send()")
        return preprocess(predicates, self.config.layout, self.server_msg,
                          self.config.mask, Solver(), stats)

    def search(self, server: ServerProgram,
               clients: ClientPredicateSet) -> AchillesReport:
        """Phase 2: incremental Trojan search over the server."""
        report, _ = search_server(server, clients, self.server_msg,
                                  self.config, query_cache=self.query_cache)
        report.timings.client_extraction = clients.stats.extraction_seconds
        report.timings.preprocessing = clients.stats.preprocess_seconds
        return report

    # -- one-call entry point --------------------------------------------------------

    def run(self, clients: dict[str, NodeProgram] | list[NodeProgram],
            server: ServerProgram) -> AchillesReport:
        """Full pipeline: extract ``PC``, preprocess, search the server."""
        predicate_set = self.extract_clients(clients)
        return self.search(server, predicate_set)

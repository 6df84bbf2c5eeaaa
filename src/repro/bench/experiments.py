"""Experiment drivers — one per table/figure of the paper's §6.

Each driver runs a complete experiment at laptop scale and returns a
structured outcome; the benchmark files print the paper-shaped rows and
assert the qualitative claims (who wins, by what rough factor, where the
curves bend). Absolute times differ from the paper's 16-core testbed by
construction — the shapes are what reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.achilles import Achilles, AchillesConfig, FieldMask, OptimizationFlags
from repro.achilles.report import AchillesReport
from repro.achilles.server_analysis import a_posteriori_search
from repro.baselines.classic import ClassicResult, classic_symbolic_execution
from repro.baselines.fuzzer import FuzzCampaign, FuzzResult, expected_trojans_per_hour
from repro.messages.concrete import encode
from repro.systems import fsp
from repro.systems.fsp.protocol import STUBS
from repro.systems.pbft import (
    MAC_STUB,
    REQUEST_LAYOUT,
    pbft_client,
    pbft_replica,
    run_workload,
)
from repro.systems.pbft.cluster import ClusterStats
from repro.symex.engine import EngineConfig

#: The §6.1 annotation mask: session fields are stubbed, not analyzed.
FSP_SESSION_MASK = FieldMask.hide("sum", "bb_key", "bb_seq", "bb_pos")


def make_engine_config(search_order: str | None = None,
                       max_paths: int | None = None) -> EngineConfig:
    """An :class:`EngineConfig` with the CLI's exploration overrides applied."""
    config = EngineConfig()
    if search_order is not None:
        config.search_order = search_order
    if max_paths is not None:
        config.max_paths = max_paths
    return config


@dataclass
class AccuracyOutcome:
    """One full Achilles run scored against a system's seeded ground truth."""

    report: AchillesReport
    true_positives: int
    false_positives: int
    classes_found: int
    classes_total: int

    @property
    def coverage(self) -> float:
        return self.classes_found / self.classes_total

    @property
    def precision(self) -> float:
        """Fraction of reported witnesses that are genuine Trojans."""
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 0.0

    @property
    def recall(self) -> float:
        """Fraction of the seeded Trojan classes covered by a witness."""
        return self.classes_found / self.classes_total


def _fsp_achilles(optimizations: OptimizationFlags | None = None,
                  shards: int = 1,
                  search_order: str | None = None,
                  max_paths: int | None = None,
                  transport="local",
                  hosts: tuple = (),
                  on_worker_loss: str = "fail",
                  cache_dir: str | None = None,
                  run_dir: str | None = None,
                  checkpoint_interval: int = 1,
                  resume: bool = False,
                  trace_dir: str | None = None,
                  progress: bool = False) -> Achilles:
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            optimizations=optimizations or OptimizationFlags(),
                            client_engine=make_engine_config(search_order,
                                                             max_paths),
                            server_engine=make_engine_config(search_order,
                                                             max_paths),
                            shards=shards,
                            transport=transport, hosts=tuple(hosts),
                            on_worker_loss=on_worker_loss,
                            cache_dir=cache_dir, run_dir=run_dir,
                            checkpoint_interval=checkpoint_interval,
                            resume=resume, trace_dir=trace_dir,
                            progress=progress)
    return Achilles(config)


def run_fsp_accuracy(optimizations: OptimizationFlags | None = None,
                     shards: int = 1,
                     search_order: str | None = None,
                     max_paths: int | None = None,
                     transport="local",
                     hosts: tuple = (),
                     on_worker_loss: str = "fail",
                     cache_dir: str | None = None,
                     run_dir: str | None = None,
                     checkpoint_interval: int = 1,
                     resume: bool = False,
                     trace_dir: str | None = None,
                     progress: bool = False) -> AccuracyOutcome:
    """Table 1 (Achilles column) + Figures 10/11 raw data.

    ``shards`` > 1 partitions the phase-2 path tree across exploration
    worker processes; findings are byte-identical at any shard count.
    ``search_order`` / ``max_paths`` override the default exploration
    policy for both phases. ``transport``/``hosts``
    choose where shard workers live (``"tcp"`` drives remote
    ``python -m repro worker`` daemons; findings stay byte-identical).
    ``cache_dir`` persists the canonical query cache across runs (a warm
    re-run only re-solves what changed); ``run_dir`` /
    ``checkpoint_interval`` / ``resume`` checkpoint the sharded phase-2
    search and continue it after a coordinator kill.
    """
    with _fsp_achilles(optimizations, shards, search_order,
                       max_paths, transport, hosts, on_worker_loss,
                       cache_dir, run_dir, checkpoint_interval,
                       resume, trace_dir, progress) as achilles:
        predicates = achilles.extract_clients(fsp.literal_clients())
        report = achilles.search(fsp.fsp_server, predicates)
    score = fsp.GroundTruth.score(report.witnesses())
    return AccuracyOutcome(
        report=report,
        true_positives=score.true_positives,
        false_positives=score.false_positives,
        classes_found=len(score.classes_found),
        classes_total=len(fsp.all_trojan_classes()),
    )


def run_fsp_wildcard(listing: tuple[str, ...] = ("f1", "f2", "doc"),
                     shards: int = 1,
                     search_order: str | None = None,
                     max_paths: int | None = None,
                     transport="local",
                     hosts: tuple = (),
                     on_worker_loss: str = "fail",
                     cache_dir: str | None = None,
                     run_dir: str | None = None,
                     checkpoint_interval: int = 1,
                     resume: bool = False,
                     trace_dir: str | None = None,
                     progress: bool = False) -> AchillesReport:
    """§6.3 wildcard experiment: globbing clients, same server."""
    with _fsp_achilles(shards=shards,
                       search_order=search_order,
                       max_paths=max_paths, transport=transport,
                       hosts=hosts, on_worker_loss=on_worker_loss,
                       cache_dir=cache_dir, run_dir=run_dir,
                       checkpoint_interval=checkpoint_interval,
                       resume=resume, trace_dir=trace_dir,
                       progress=progress) as achilles:
        predicates = achilles.extract_clients(fsp.globbing_clients(listing))
        return achilles.search(fsp.fsp_server, predicates)


def run_classic_baseline(per_path_limit: int = 512) -> tuple[ClassicResult,
                                                             "fsp.GroundTruth"]:
    """Table 1 (classic symbolic execution column)."""
    result = classic_symbolic_execution(
        fsp.fsp_server, fsp.FSP_LAYOUT, per_path_limit=per_path_limit)
    score = fsp.GroundTruth.score(result.messages)
    return result, score


@dataclass
class FuzzingOutcome:
    """Measured fuzzing throughput plus the closed-form yield (§6.2)."""

    result: FuzzResult
    trojan_density_space_bits: int
    trojan_messages_in_space: int
    expected_trojans_in_one_hour: float
    paper_tests_per_minute: float = 75_000.0
    paper_expected_per_hour: float = 1.65e-5


def run_fuzzing_comparison(tests: int = 200_000) -> FuzzingOutcome:
    """§6.2 fuzzing comparison on the same 8 relevant bytes.

    The fuzzer randomizes cmd, bb_len and buf (8 bytes) while holding the
    stubbed session fields at their constants, exactly as the paper
    scopes it ("we only fuzz the same message fields that are analyzed").
    """
    template = encode(fsp.FSP_LAYOUT, {
        "cmd": 0, "sum": STUBS["sum"], "bb_key": STUBS["bb_key"],
        "bb_seq": STUBS["bb_seq"], "bb_len": 0, "bb_pos": STUBS["bb_pos"],
        "buf": b"\x00" * fsp.PATH_SPACE,
    })
    positions = (list(fsp.FSP_LAYOUT.view("cmd").byte_range)
                 + list(fsp.FSP_LAYOUT.view("bb_len").byte_range)
                 + list(fsp.FSP_LAYOUT.view("buf").byte_range))
    campaign = FuzzCampaign(
        template,
        accepts=fsp.is_server_accepted,
        is_trojan=lambda m: fsp.classify_message(m) is not None,
        positions=positions)
    result = campaign.run_tests(tests)

    trojan_count = _count_trojan_bit_patterns()
    expected = expected_trojans_per_hour(
        result.tests_per_minute, trojan_count, campaign.randomized_bits)
    return FuzzingOutcome(
        result=result,
        trojan_density_space_bits=campaign.randomized_bits,
        trojan_messages_in_space=trojan_count,
        expected_trojans_in_one_hour=expected,
    )


def _count_trojan_bit_patterns() -> int:
    """Closed-form count of Trojan bit patterns in the fuzzed space.

    For class (cmd, L, t): positions t and L are NUL, characters before t
    are printable (94 choices), bytes strictly between t and L and after
    L are unconstrained *except* that the scan never reaches them — the
    accept predicate leaves them free (256 choices each). The paper's
    equivalent count for real FSP is 66 million.
    """
    printable = 94
    free = 256
    total = 0
    for cls in fsp.all_trojan_classes():
        length, true_length = cls.reported_length, cls.true_length
        buf_positions = fsp.PATH_SPACE
        pinned = {true_length, length}
        before = true_length  # printable characters
        rest = buf_positions - before - len(pinned)
        total += (printable ** before) * (free ** rest)
    return total


def run_ablation() -> dict[str, AchillesReport]:
    """§6.4: optimized Achilles vs the a-posteriori differencing run.

    Also includes single-optimization-off variants (the design-choice
    ablation DESIGN.md calls out).
    """
    achilles = _fsp_achilles()
    predicates = achilles.extract_clients(fsp.literal_clients())

    outcomes: dict[str, AchillesReport] = {}
    outcomes["achilles-optimized"] = achilles.search(fsp.fsp_server,
                                                     predicates)

    for label, flags in {
        "no-differentfrom": OptimizationFlags(use_different_from=False),
        "no-pruning": OptimizationFlags(prune_unreachable=False),
        "no-incremental-drop": OptimizationFlags(incremental_drop=False,
                                                 use_different_from=False),
    }.items():
        variant = Achilles(AchillesConfig(
            layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
            optimizations=flags))
        variant_preds = variant.extract_clients(fsp.literal_clients())
        outcomes[label] = variant.search(fsp.fsp_server, variant_preds)

    posterior = a_posteriori_search(
        fsp.fsp_server, predicates, achilles.server_msg)
    posterior.timings.client_extraction = predicates.stats.extraction_seconds
    posterior.timings.preprocessing = predicates.stats.preprocess_seconds
    outcomes["a-posteriori"] = posterior
    return outcomes


@dataclass
class PbftOutcome:
    """PBFT analysis report plus the cluster impact sweep."""

    report: AchillesReport
    mac_stub: bytes
    impact: dict[str, ClusterStats] = field(default_factory=dict)


def run_pbft_analysis(shards: int = 1,
                      search_order: str | None = None,
                      max_paths: int | None = None,
                      transport="local",
                      hosts: tuple = (),
                      on_worker_loss: str = "fail",
                      cache_dir: str | None = None,
                      run_dir: str | None = None,
                      checkpoint_interval: int = 1,
                      resume: bool = False,
                      trace_dir: str | None = None,
                      progress: bool = False) -> AchillesReport:
    """§6.2 PBFT run: the MAC Trojan on every accepting path."""
    with Achilles(AchillesConfig(layout=REQUEST_LAYOUT,
                                 destination="replica0",
                                 client_engine=make_engine_config(
                                     search_order, max_paths),
                                 server_engine=make_engine_config(
                                     search_order, max_paths),
                                 shards=shards,
                                 transport=transport,
                                 hosts=tuple(hosts),
                                 on_worker_loss=on_worker_loss,
                                 cache_dir=cache_dir,
                                 run_dir=run_dir,
                                 checkpoint_interval=checkpoint_interval,
                                 resume=resume,
                                 trace_dir=trace_dir,
                                 progress=progress)) as achilles:
        predicates = achilles.extract_clients({"pbft-client": pbft_client})
        return achilles.search(pbft_replica, predicates)


def run_pbft_impact(requests: int = 40, shards: int = 1,
                    search_order: str | None = None,
                    max_paths: int | None = None,
                    transport="local",
                    hosts: tuple = (),
                    on_worker_loss: str = "fail",
                    cache_dir: str | None = None,
                    run_dir: str | None = None,
                    checkpoint_interval: int = 1,
                    resume: bool = False,
                    trace_dir: str | None = None,
                    progress: bool = False) -> PbftOutcome:
    """§6.3 MAC attack impact: throughput under increasing attack rates."""
    report = run_pbft_analysis(shards=shards,
                               search_order=search_order,
                               max_paths=max_paths, transport=transport,
                               hosts=hosts, on_worker_loss=on_worker_loss,
                               cache_dir=cache_dir, run_dir=run_dir,
                               checkpoint_interval=checkpoint_interval,
                               resume=resume, trace_dir=trace_dir,
                               progress=progress)
    outcome = PbftOutcome(report=report, mac_stub=MAC_STUB)
    for label, every in {"clean": 0, "attack-10%": 10, "attack-50%": 2}.items():
        outcome.impact[label] = run_workload(requests, malicious_every=every)
    return outcome


def _scored_accuracy_run(layout, destination: str, clients, server,
                         ground_truth, class_count: int,
                         shards: int,
                         search_order: str | None,
                         max_paths: int | None,
                         transport="local",
                         hosts: tuple = (),
                         on_worker_loss: str = "fail",
                         cache_dir: str | None = None,
                         run_dir: str | None = None,
                         checkpoint_interval: int = 1,
                         resume: bool = False,
                         trace_dir: str | None = None,
                         progress: bool = False) -> AccuracyOutcome:
    """Full pipeline + ground-truth scoring, shared by raft and tpc."""
    config = AchillesConfig(layout=layout, destination=destination,
                            client_engine=make_engine_config(search_order,
                                                             max_paths),
                            server_engine=make_engine_config(search_order,
                                                             max_paths),
                            shards=shards,
                            transport=transport, hosts=tuple(hosts),
                            on_worker_loss=on_worker_loss,
                            cache_dir=cache_dir, run_dir=run_dir,
                            checkpoint_interval=checkpoint_interval,
                            resume=resume, trace_dir=trace_dir,
                            progress=progress)
    with Achilles(config) as achilles:
        predicates = achilles.extract_clients(clients)
        report = achilles.search(server, predicates)
    score = ground_truth.score(report.witnesses())
    return AccuracyOutcome(
        report=report,
        true_positives=score.true_positives,
        false_positives=score.false_positives,
        classes_found=len(score.classes_found),
        classes_total=class_count,
    )


def run_raft_accuracy(shards: int = 1,
                      search_order: str | None = None,
                      max_paths: int | None = None,
                      transport="local",
                      hosts: tuple = (),
                      on_worker_loss: str = "fail",
                      cache_dir: str | None = None,
                      run_dir: str | None = None,
                      checkpoint_interval: int = 1,
                      resume: bool = False,
                      trace_dir: str | None = None,
                      progress: bool = False) -> AccuracyOutcome:
    """Raft follower ingress vs the 9 seeded Trojan classes.

    Scores Achilles against :mod:`repro.systems.raft.ground_truth`
    (8 stale-term AppendEntries classes + 1 vote off-by-one); a perfect
    run has ``precision == recall == 1.0``. ``shards`` behaves as for
    FSP: findings are byte-identical at any shard count.
    """
    from repro.systems import raft

    return _scored_accuracy_run(
        raft.RAFT_LAYOUT, "follower", raft.peer_clients(),
        raft.raft_follower, raft.GroundTruth,
        len(raft.all_trojan_classes()), shards, search_order,
        max_paths, transport, hosts, on_worker_loss, cache_dir, run_dir,
        checkpoint_interval, resume, trace_dir, progress)


def run_broadcast_accuracy(shards: int = 1,
                           search_order: str | None = None,
                           max_paths: int | None = None,
                           transport="local",
                           hosts: tuple = (),
                           on_worker_loss: str = "fail",
                           cache_dir: str | None = None,
                           run_dir: str | None = None,
                           checkpoint_interval: int = 1,
                           resume: bool = False,
                           trace_dir: str | None = None,
                           progress: bool = False) -> AccuracyOutcome:
    """Bracha broadcast node ingress vs the 7 seeded Trojan classes.

    Scores Achilles against :mod:`repro.systems.broadcast.ground_truth`
    (1 forged-sender SEND class + 6 thin-quorum READY certificates); a
    perfect run has ``precision == recall == 1.0``.
    """
    from repro.systems import broadcast

    return _scored_accuracy_run(
        broadcast.BROADCAST_LAYOUT, "node", broadcast.peer_clients(),
        broadcast.broadcast_node, broadcast.GroundTruth,
        len(broadcast.all_trojan_classes()), shards,
        search_order, max_paths, transport, hosts, on_worker_loss,
        cache_dir, run_dir, checkpoint_interval, resume, trace_dir,
        progress)


def run_corpus(corpus_seed: int = 0, variants: int = 12,
               templates: tuple[str, ...] | None = None,
               only: tuple[str, ...] = (),
               shards: int = 1,
               search_order: str | None = None,
               max_paths: int | None = None,
               transport="local",
               hosts: tuple = (),
               on_worker_loss: str = "fail",
               cache_dir: str | None = None,
               progress: bool = False):
    """Scenario-matrix corpus: generate, hunt and score system variants.

    Generates ``variants`` randomized systems from the registered
    templates (round-robin) under ``corpus_seed``, runs the full
    Achilles pipeline on each and scores it against the variant's own
    derived ground truth. ``only`` bypasses generation and rebuilds the
    given ``template:seed`` tokens instead — the reproduce-one-row path.

    Returns a :class:`repro.corpus.CorpusOutcome`; a healthy corpus has
    ``precision == recall == 1.0`` on every row.
    """
    from repro.corpus import (
        CorpusOutcome,
        VariantOutcome,
        bound_ground_truth,
        generate_corpus,
        parse_variant_token,
    )

    if only:
        systems = [parse_variant_token(token) for token in only]
    else:
        systems = generate_corpus(corpus_seed, variants, templates)
    results = []
    for variant in systems:
        outcome = _scored_accuracy_run(
            variant.layout, variant.destination, variant.clients,
            variant.server, bound_ground_truth(variant),
            len(variant.classes), shards, search_order,
            max_paths, transport, hosts, on_worker_loss, cache_dir,
            None, 1, False, None, progress)
        results.append(VariantOutcome(variant=variant, outcome=outcome))
    return CorpusOutcome(corpus_seed=None if only else corpus_seed,
                         results=results)


def run_tpc_accuracy(shards: int = 1,
                     search_order: str | None = None,
                     max_paths: int | None = None,
                     transport="local",
                     hosts: tuple = (),
                     on_worker_loss: str = "fail",
                     cache_dir: str | None = None,
                     run_dir: str | None = None,
                     checkpoint_interval: int = 1,
                     resume: bool = False,
                     trace_dir: str | None = None,
                     progress: bool = False) -> AccuracyOutcome:
    """Two-phase-commit participant vs the 2 seeded Trojan classes.

    Scores Achilles against :mod:`repro.systems.tpc.ground_truth`
    (ack-without-WAL + empty-op prepare); a perfect run has
    ``precision == recall == 1.0``.
    """
    from repro.systems import tpc

    return _scored_accuracy_run(
        tpc.TPC_LAYOUT, "participant", tpc.coordinator_clients(),
        tpc.tpc_participant, tpc.GroundTruth,
        len(tpc.all_trojan_classes()), shards, search_order,
        max_paths, transport, hosts, on_worker_loss, cache_dir, run_dir,
        checkpoint_interval, resume, trace_dir, progress)

"""Experiment drivers — one per table/figure of the paper's §6.

Each driver runs a complete experiment at laptop scale and returns a
structured outcome; the benchmark files print the paper-shaped rows and
assert the qualitative claims (who wins, by what rough factor, where the
curves bend). Absolute times differ from the paper's 16-core testbed by
construction — the shapes are what reproduces.

Drivers that hunt take ``**settings``: run settings passed straight into
:class:`~repro.achilles.AchillesConfig` (``shards``, ``server_engine``,
``trace_dir``, ...), whose docstring describes each of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from repro.achilles import Achilles, AchillesConfig, FieldMask, OptimizationFlags
from repro.achilles.report import AchillesReport
from repro.achilles.server_analysis import a_posteriori_search
from repro.baselines.classic import ClassicResult, classic_symbolic_execution
from repro.baselines.fuzzer import FuzzCampaign, FuzzResult, expected_trojans_per_hour
from repro.messages.concrete import encode
from repro.messages.layout import MessageLayout
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

#: The §6.1 annotation mask: session fields are stubbed, not analyzed.
FSP_SESSION_MASK = FieldMask.hide("sum", "bb_key", "bb_seq", "bb_pos")


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


@dataclass(frozen=True)
class ScoredSystem:
    """A system with seeded Trojan classes: what to hunt, how to score it.

    Attributes:
        layout: wire layout shared by its clients and server.
        clients: builds the client programs handed to phase 1.
        server: the server program phase 2 explores.
        ground_truth: scores witnesses (``ground_truth.score(witnesses)``).
        class_count: how many Trojan classes are seeded.
        mask: fields hidden from the Trojan check.
        destination: node name client messages must be sent to.
    """

    layout: MessageLayout
    clients: Callable[[], dict]
    server: Callable
    ground_truth: object
    class_count: int
    mask: FieldMask = field(default_factory=FieldMask.none)
    destination: str | None = None


def scored_systems() -> dict[str, ScoredSystem]:
    """The table :func:`run_accuracy` runs, one row per system.

    Built on call, so importing this module leaves the Raft, 2PC and
    broadcast systems unimported. Those three are the corpus templates
    pinned to each system's protocol constants, scored by the oracle
    their package exports.
    """
    from repro.systems import broadcast, raft, tpc

    return {
        # Table 1 (Achilles column) and the raw data of Figures 10/11.
        "fsp": ScoredSystem(
            fsp.FSP_LAYOUT, fsp.literal_clients, fsp.fsp_server,
            fsp.GroundTruth, len(fsp.all_trojan_classes()),
            mask=FSP_SESSION_MASK),
        # 8 stale-term AppendEntries classes + 1 vote off-by-one.
        "raft": _template_system(raft.SYSTEM, raft.GroundTruth),
        # Ack-without-WAL + empty-op prepare.
        "tpc": _template_system(tpc.SYSTEM, tpc.GroundTruth),
        # 1 forged-sender SEND class + 6 thin-quorum READY certificates.
        "broadcast": _template_system(broadcast.SYSTEM,
                                      broadcast.GroundTruth),
    }


def _template_system(system, ground_truth) -> ScoredSystem:
    """The row of a system built by a corpus template."""
    return ScoredSystem(
        system.layout, partial(dict, system.clients), system.server,
        ground_truth, len(system.classes), destination=system.destination)


def _hunt(system: ScoredSystem, **settings) -> AchillesReport:
    """One full Achilles pipeline over ``system`` under ``settings``."""
    config = AchillesConfig(layout=system.layout, mask=system.mask,
                            destination=system.destination, **settings)
    with Achilles(config) as achilles:
        return achilles.run(system.clients(), system.server)


def _score(system: ScoredSystem, **settings) -> AccuracyOutcome:
    """Hunt ``system`` and score its witnesses against the ground truth."""
    report = _hunt(system, **settings)
    score = system.ground_truth.score(report.witnesses())
    return AccuracyOutcome(
        report=report,
        true_positives=score.true_positives,
        false_positives=score.false_positives,
        classes_found=len(score.classes_found),
        classes_total=system.class_count,
    )


def run_accuracy(name: str, **settings) -> AccuracyOutcome:
    """Hunt the :func:`scored_systems` row ``name`` and score it.

    A perfect run has ``precision == recall == 1.0``; findings are
    byte-identical at any shard count.
    """
    return _score(scored_systems()[name], **settings)


def run_toy(**settings) -> AchillesReport:
    """§2.1 working example: one Trojan, a READ with a negative address."""
    from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server

    with Achilles(AchillesConfig(layout=TOY_LAYOUT, **settings)) as achilles:
        return achilles.run({"toy": toy_client}, toy_server)


def run_fsp_wildcard(listing: tuple[str, ...] = ("f1", "f2", "doc"),
                     **settings) -> AchillesReport:
    """§6.3 wildcard experiment: globbing clients, same server."""
    system = replace(scored_systems()["fsp"],
                     clients=partial(fsp.globbing_clients, listing))
    return _hunt(system, **settings)


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
    achilles = Achilles(AchillesConfig(layout=fsp.FSP_LAYOUT,
                                       mask=FSP_SESSION_MASK))
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
        outcomes[label] = _hunt(scored_systems()["fsp"], optimizations=flags)

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


def run_pbft_analysis(**settings) -> AchillesReport:
    """§6.2 PBFT run: the MAC Trojan on every accepting path."""
    config = AchillesConfig(layout=REQUEST_LAYOUT, destination="replica0",
                            **settings)
    with Achilles(config) as achilles:
        return achilles.run({"pbft-client": pbft_client}, pbft_replica)


def run_pbft_impact(requests: int = 40, **settings) -> PbftOutcome:
    """§6.3 MAC attack impact: throughput under increasing attack rates."""
    outcome = PbftOutcome(report=run_pbft_analysis(**settings),
                          mac_stub=MAC_STUB)
    for label, every in {"clean": 0, "attack-10%": 10, "attack-50%": 2}.items():
        outcome.impact[label] = run_workload(requests, malicious_every=every)
    return outcome


def run_corpus(corpus_seed: int = 0, variants: int = 12,
               templates: tuple[str, ...] | None = None,
               only: tuple[str, ...] = (), **settings):
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
        system = _template_system(variant, bound_ground_truth(variant))
        results.append(VariantOutcome(variant=variant,
                                      outcome=_score(system, **settings)))
    return CorpusOutcome(corpus_seed=None if only else corpus_seed,
                         results=results)

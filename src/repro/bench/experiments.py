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

from repro.achilles import Achilles, AchillesConfig, OptimizationFlags
from repro.achilles.report import AchillesReport
from repro.achilles.server_analysis import a_posteriori_search
from repro.baselines.classic import ClassicResult, classic_symbolic_execution
from repro.baselines.fuzzer import FuzzCampaign, FuzzResult, expected_trojans_per_hour
from repro.messages.concrete import encode
from repro.systems import fsp
from repro.systems.pbft import (
    MAC_STUB,
    REQUEST_LAYOUT,
    pbft_client,
    pbft_replica,
    run_workload,
)
from repro.systems.pbft.cluster import ClusterStats
from repro.systems.scoring import SystemVariant, bound_ground_truth

#: The §6.1 annotation mask: session fields are stubbed, not analyzed.
FSP_SESSION_MASK = fsp.SYSTEM.mask


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


def scored_systems() -> dict[str, SystemVariant]:
    """The table :func:`run_accuracy` runs, one row per system.

    Built on call, so importing this module leaves the Raft, 2PC and
    broadcast systems unimported. Every row is a template pinned to the
    system's protocol constants, scored by its own oracle.
    """
    from repro.systems import broadcast, raft, tpc

    return {
        # Table 1 (Achilles column) and the raw data of Figures 10/11.
        "fsp": fsp.SYSTEM,
        # 8 stale-term AppendEntries classes + 1 vote off-by-one.
        "raft": raft.SYSTEM,
        # Ack-without-WAL + empty-op prepare.
        "tpc": tpc.SYSTEM,
        # 1 forged-sender SEND class + 6 thin-quorum READY certificates.
        "broadcast": broadcast.SYSTEM,
    }


def _hunt(system: SystemVariant, **settings) -> AchillesReport:
    """One full Achilles pipeline over ``system`` under ``settings``."""
    config = AchillesConfig(layout=system.layout, mask=system.mask,
                            destination=system.destination, **settings)
    with Achilles(config) as achilles:
        return achilles.run(system.clients, system.server)


def run_scored(system: SystemVariant, **settings) -> AccuracyOutcome:
    """Hunt ``system`` and score its witnesses against its own oracle."""
    report = _hunt(system, **settings)
    score = bound_ground_truth(system).score(report.witnesses())
    return AccuracyOutcome(
        report=report,
        true_positives=score.true_positives,
        false_positives=score.false_positives,
        classes_found=len(score.classes_found),
        classes_total=len(system.classes),
    )


def run_accuracy(name: str, **settings) -> AccuracyOutcome:
    """Hunt the :func:`scored_systems` row ``name`` and score it.

    A perfect run has ``precision == recall == 1.0``; findings are
    byte-identical at any shard count.
    """
    return run_scored(scored_systems()[name], **settings)


def run_toy(**settings) -> AchillesReport:
    """§2.1 working example: one Trojan, a READ with a negative address."""
    from repro.systems.toy import TOY_LAYOUT, toy_client, toy_server

    with Achilles(AchillesConfig(layout=TOY_LAYOUT, **settings)) as achilles:
        return achilles.run({"toy": toy_client}, toy_server)


def run_fsp_wildcard(listing: tuple[str, ...] = ("f1", "f2", "doc"),
                     **settings) -> AchillesReport:
    """§6.3 wildcard experiment: globbing clients, same server."""
    params = replace(fsp.FSP_PARAMS, globbing=True, listing=tuple(listing))
    return _hunt(fsp.fsp_system(params), **settings)


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
    params = fsp.FSP_PARAMS
    template = encode(fsp.FSP_LAYOUT, {
        "cmd": 0, **params.stubs, "bb_len": 0,
        "buf": b"\x00" * params.path_space,
    })
    positions = (list(fsp.FSP_LAYOUT.view("cmd").byte_range)
                 + list(fsp.FSP_LAYOUT.view("bb_len").byte_range)
                 + list(fsp.FSP_LAYOUT.view("buf").byte_range))
    campaign = FuzzCampaign(
        template,
        accepts=fsp.SYSTEM.accepts,
        is_trojan=lambda m: fsp.SYSTEM.classify(m) is not None,
        positions=positions)
    result = campaign.run_tests(tests)

    trojan_count = _count_trojan_bit_patterns(params)
    expected = expected_trojans_per_hour(
        result.tests_per_minute, trojan_count, campaign.randomized_bits)
    return FuzzingOutcome(
        result=result,
        trojan_density_space_bits=campaign.randomized_bits,
        trojan_messages_in_space=trojan_count,
        expected_trojans_in_one_hour=expected,
    )


def _count_trojan_bit_patterns(params: fsp.FspParams) -> int:
    """Closed-form count of Trojan bit patterns in the fuzzed space.

    For class (cmd, L, t): positions t and L are NUL, characters before t
    are printable (94 choices), bytes strictly between t and L and after
    L are unconstrained *except* that the scan never reaches them — the
    accept predicate leaves them free (256 choices each). The paper's
    equivalent count for real FSP is 66 million.
    """
    printable = params.printable[1] - params.printable[0] + 1
    free = 256
    per_command = sum(printable ** true_length
                      * free ** (params.path_space - true_length - 2)
                      for length in range(1, params.path_space)
                      for true_length in range(length))
    return len(params.commands) * per_command


def run_ablation() -> dict[str, AchillesReport]:
    """§6.4: optimized Achilles vs the a-posteriori differencing run.

    Also includes single-optimization-off variants (the design-choice
    ablation DESIGN.md calls out).
    """
    system = fsp.SYSTEM
    achilles = Achilles(AchillesConfig(layout=system.layout,
                                       mask=system.mask))
    predicates = achilles.extract_clients(system.clients)

    outcomes: dict[str, AchillesReport] = {}
    outcomes["achilles-optimized"] = achilles.search(system.server,
                                                     predicates)

    for label, flags in {
        "no-differentfrom": OptimizationFlags(use_different_from=False),
        "no-pruning": OptimizationFlags(prune_unreachable=False),
        "no-incremental-drop": OptimizationFlags(incremental_drop=False,
                                                 use_different_from=False),
    }.items():
        outcomes[label] = _hunt(system, optimizations=flags)

    posterior = a_posteriori_search(
        system.server, predicates, achilles.server_msg)
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
        generate_corpus,
        parse_variant_token,
    )

    if only:
        systems = [parse_variant_token(token) for token in only]
    else:
        systems = generate_corpus(corpus_seed, variants, templates)
    results = []
    for variant in systems:
        results.append(VariantOutcome(variant=variant,
                                      outcome=run_scored(variant, **settings)))
    return CorpusOutcome(corpus_seed=None if only else corpus_seed,
                         results=results)

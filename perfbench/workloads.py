"""The benchmark's workloads: their inputs, one hunt, and its oracle check.

A hunt is what a tester runs: a fresh ``Achilles``, then
``extract_clients`` and ``search``, then ``close``. Every hunt's findings
are checked against an oracle that does not come from the search, and a
digest of its ordered witnesses and decision vectors is compared across
hunts and, for the FSP workloads, against a pinned value.

The repro package is imported inside :func:`setup`, so the import counts
towards the benchmark's set-up time.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

NAMES = ("fsp-table1", "corpus", "fsp-sharded")

#: Scenario-matrix variants generated per corpus run. A run hunts them in
#: whole passes, so its median weighs every variant alike.
CORPUS_VARIANTS = 96
#: Shard processes of ``fsp-sharded``.
SHARDS = 2
#: Fresh processes per run that time set-up and cold hunts, the run's
#: own included. Every process hunts the same ``COLD_HUNTS`` cases cold:
#: for corpus eight variants of each template, so that its cold time
#: depends little on which variants the seed draws.
FRESH_PROCESSES = {"fsp-table1": 5, "corpus": 5, "fsp-sharded": 5}
COLD_HUNTS = {"fsp-table1": 1, "corpus": 24, "fsp-sharded": 1}

#: :func:`digest` of the FSP hunt. Its inputs do not depend on the seed,
#: and sharding must not change a byte of the findings, so
#: ``fsp-sharded`` is held to the serial ``fsp-table1`` digest.
FSP_DIGEST = "b1f938e2aa98f70f"


@dataclass
class Case:
    """One system to hunt: Achilles configuration, programs and oracle."""

    label: str
    config: object
    clients: object
    server: Callable
    check: Callable[[object], str | None]
    expected_digest: str | None = None


@dataclass
class Hunt:
    """Outcome of one hunt. ``error`` is None when the verdict is right."""

    case: Case
    wall_s: float
    first_finding_s: float | None = None
    digest: str = ""
    report: object = None
    achilles: object = None
    error: str | None = None


def setup(workload: str, seed: int) -> list[Case]:
    """Build the workload's inputs. Only ``corpus`` depends on ``seed``."""
    from repro.achilles import AchillesConfig
    from repro.bench.experiments import FSP_SESSION_MASK
    from repro.systems import fsp

    if workload == "corpus":
        from repro.corpus import bound_ground_truth, generate_corpus

        return [Case(label=variant.token,
                     config=AchillesConfig(layout=variant.layout,
                                           destination=variant.destination),
                     clients=variant.clients, server=variant.server,
                     check=_scored(bound_ground_truth(variant),
                                   len(variant.classes)))
                for variant in generate_corpus(seed, CORPUS_VARIANTS)]
    if workload not in ("fsp-table1", "fsp-sharded"):
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(NAMES)}")
    shards = SHARDS if workload == "fsp-sharded" else 1
    config = AchillesConfig(layout=fsp.FSP_LAYOUT, mask=FSP_SESSION_MASK,
                            shards=shards)
    return [Case(label=workload, config=config,
                 clients=fsp.literal_clients(), server=fsp.fsp_server,
                 check=_scored(fsp.GroundTruth,
                               len(fsp.all_trojan_classes())),
                 expected_digest=FSP_DIGEST)]


def new_achilles(case: Case):
    from repro.achilles import Achilles

    return Achilles(case.config)


def run_hunt(case: Case, achilles=None) -> Hunt:
    """Hunt ``case`` once; ``achilles`` is a fresh instance to use, if any.

    Exceptions are the verdict of a failed hunt, so they are caught here
    and reported in :attr:`Hunt.error`.
    """
    started = time.perf_counter()
    try:
        achilles = achilles or new_achilles(case)
        with achilles:
            predicates = achilles.extract_clients(case.clients)
            report = achilles.search(case.server, predicates)
    except Exception as exc:  # the hunt failed; the run goes on
        return Hunt(case=case, wall_s=time.perf_counter() - started,
                    error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    hunt = Hunt(case=case, wall_s=wall, digest=digest(report),
                report=report, achilles=achilles)
    if report.findings:
        hunt.first_finding_s = (predicates.stats.extraction_seconds
                                + predicates.stats.preprocess_seconds
                                + report.findings[0].elapsed_seconds)
    hunt.error = case.check(report)
    if hunt.error is None and case.expected_digest not in (None,
                                                           hunt.digest):
        hunt.error = (f"findings digest {hunt.digest} differs from the "
                      f"pinned {case.expected_digest}")
    return hunt


def digest(report) -> str:
    """Digest of the ordered witnesses and their decision vectors."""
    sha = hashlib.sha256()
    for finding in report.findings:
        sha.update(bytes(finding.decisions))
        sha.update(b"|")
        sha.update(finding.witness)
        sha.update(b"\n")
    return sha.hexdigest()[:16]


def _scored(ground_truth, class_count: int):
    """Precision == recall == 1.0 against a ground-truth oracle."""
    def check(report) -> str | None:
        score = ground_truth.score(report.witnesses())
        if score.false_positives:
            return (f"precision < 1: {score.false_positives} of "
                    f"{len(report.findings)} witnesses are not Trojans")
        if len(score.classes_found) != class_count:
            return (f"recall < 1: {len(score.classes_found)} of "
                    f"{class_count} Trojan classes found")
        return None
    return check


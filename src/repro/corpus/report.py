"""Corpus scoring: per-variant rows, summary and deterministic JSON.

The JSON payload carries only run-independent data (parameters, witness
bytes, scores) — no wall clocks, no absolute paths — so two runs of the
same corpus seed produce byte-identical files; the acceptance check
diffs them. Timings appear in the rendered table only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.bench.experiments import AccuracyOutcome
from repro.bench.tables import format_table
from repro.systems.scoring import SystemVariant


@dataclass
class VariantOutcome:
    """One corpus variant's hunt, scored against its derived oracle."""

    variant: SystemVariant
    outcome: AccuracyOutcome

    @property
    def perfect(self) -> bool:
        return self.outcome.precision == 1.0 and self.outcome.recall == 1.0


@dataclass
class CorpusOutcome:
    """A full corpus run; ``corpus_seed`` is None for --variant reruns."""

    corpus_seed: int | None
    results: list[VariantOutcome]

    @property
    def perfect(self) -> bool:
        return all(result.perfect for result in self.results)


def variant_row(result: VariantOutcome) -> dict:
    """The deterministic report record of one scored variant."""
    variant, outcome = result.variant, result.outcome
    witnesses = [finding.witness.hex()
                 for finding in outcome.report.findings]
    found = sorted({label for label in map(variant.classify,
                                           outcome.report.witnesses())
                    if label is not None})
    return {
        "token": variant.token,
        "template": variant.template,
        "seed": variant.seed,
        "layout": " | ".join(f"{f.name}({f.size})"
                             for f in variant.layout.fields),
        "bugs": sorted(variant.bugs),
        "params": variant.params,
        "classes": sorted(variant.classes),
        "classes_found": found,
        "classes_total": len(variant.classes),
        "true_positives": outcome.true_positives,
        "false_positives": outcome.false_positives,
        "precision": outcome.precision,
        "recall": outcome.recall,
        "witnesses": witnesses,
        "perfect": result.perfect,
    }


def corpus_payload(corpus: CorpusOutcome) -> dict:
    """The complete corpus report as a JSON-able, reproducible dict."""
    rows = [variant_row(result) for result in corpus.results]
    return {
        "corpus_seed": corpus.corpus_seed,
        "variants": len(rows),
        "templates": sorted({row["template"] for row in rows}),
        "perfect_variants": sum(row["perfect"] for row in rows),
        "total_witnesses": sum(len(row["witnesses"]) for row in rows),
        "false_positives": sum(row["false_positives"] for row in rows),
        "all_perfect": corpus.perfect,
        "results": rows,
    }


def dump_payload(payload: dict) -> str:
    """Serialize a corpus payload byte-reproducibly."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_payload(payload: dict, seconds: dict[str, float] | None = None,
                   ) -> str:
    """The human report: score table plus the corpus health block.

    Args:
        payload: a :func:`corpus_payload` dict (fresh or re-read from a
            ``--out`` file).
        seconds: optional per-token wall-clock seconds (live runs only;
            a re-rendered report shows ``-``).
    """
    seconds = seconds or {}
    rows = []
    for row in payload["results"]:
        time_cell = (f"{seconds[row['token']]:.1f}s"
                     if row["token"] in seconds else "-")
        rows.append([
            row["token"], ",".join(row["bugs"]),
            f"{len(row['classes_found'])}/{row['classes_total']}",
            row["true_positives"], row["false_positives"],
            f"{row['precision']:.2f}", f"{row['recall']:.2f}",
            time_cell,
        ])
    table = format_table(
        ["variant", "seeded bugs", "classes", "tp", "fp", "precision",
         "recall", "time"],
        rows, title="Scenario-matrix corpus vs derived ground truth")
    seed = payload["corpus_seed"]
    lines = [table, "", "corpus run health:",
             f"  corpus seed          "
             f"{'-' if seed is None else seed}",
             f"  variants             {payload['variants']}",
             f"  templates            "
             f"{', '.join(payload['templates'])}",
             f"  perfect variants     "
             f"{payload['perfect_variants']}/{payload['variants']}",
             f"  total witnesses      {payload['total_witnesses']}",
             f"  false positives      {payload['false_positives']}"]
    if payload["results"]:
        token = payload["results"][0]["token"]
        lines.append(
            "  reproduce any row:   python -m repro corpus run "
            f"--variant TOKEN (e.g. {token})")
    return "\n".join(lines)

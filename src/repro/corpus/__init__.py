"""Scenario-matrix corpus — randomized seeded-bug systems at scale.

The templates here are the one implementation of the 2PC, Raft and
Bracha broadcast programs and oracles: each builds a system from a
parameter record. The accuracy workloads (:mod:`repro.systems.tpc`,
:mod:`repro.systems.raft`, :mod:`repro.systems.broadcast`) are pinned
parameter sets with every bug seeded. The corpus instead draws the
parameters from a deterministic seed: it perturbs the message layout
(field order, widths, reserved fields), the protocol constants and the
injected bug subset, and derives the exact ground-truth oracle from the
same drawn parameters, so precision and recall stay exactly scorable
across the whole matrix (``python -m repro corpus run``).
"""

from repro.corpus.generate import (
    build_variant,
    generate_corpus,
    parse_variant_token,
    variant_seed,
)
from repro.corpus.report import (
    CorpusOutcome,
    VariantOutcome,
    corpus_payload,
    dump_payload,
    render_payload,
    variant_row,
)
from repro.corpus.templates import (
    TEMPLATES,
    BroadcastParams,
    RaftParams,
    SystemVariant,
    TpcParams,
    bound_ground_truth,
    broadcast_system,
    draw_broadcast_params,
    draw_raft_params,
    draw_tpc_params,
    raft_system,
    tpc_system,
)

__all__ = [
    "BroadcastParams",
    "CorpusOutcome",
    "RaftParams",
    "SystemVariant",
    "TEMPLATES",
    "TpcParams",
    "VariantOutcome",
    "bound_ground_truth",
    "broadcast_system",
    "build_variant",
    "corpus_payload",
    "draw_broadcast_params",
    "draw_raft_params",
    "draw_tpc_params",
    "dump_payload",
    "generate_corpus",
    "parse_variant_token",
    "raft_system",
    "render_payload",
    "tpc_system",
    "variant_row",
]

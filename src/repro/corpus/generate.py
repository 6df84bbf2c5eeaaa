"""Deterministic corpus generation from a single run seed.

One corpus-level seed fans out into per-variant seeds through a stable
hash of ``corpus_seed / template / counter`` — so the corpus is
byte-reproducible across runs *and* any single variant can be rebuilt
from its printed ``template:seed`` token alone, without regenerating
the rest of the corpus.
"""

from __future__ import annotations

import zlib

from repro.corpus.templates import TEMPLATES
from repro.errors import ReproError
from repro.systems.scoring import SystemVariant


def variant_seed(corpus_seed: int, template: str, counter: int) -> int:
    """The template's ``counter``-th variant seed under ``corpus_seed``."""
    return zlib.crc32(f"{corpus_seed}/{template}/{counter}".encode())


def build_variant(template: str, seed: int) -> SystemVariant:
    """Rebuild one variant from its ``template`` and ``seed``."""
    try:
        draw, system = TEMPLATES[template]
    except KeyError:
        known = ", ".join(sorted(TEMPLATES))
        raise ReproError(
            f"unknown template {template!r} (known: {known})") from None
    return system(draw(seed), seed)


def parse_variant_token(token: str) -> SystemVariant:
    """Rebuild one variant from a ``template:seed`` token."""
    template, colon, seed_text = token.partition(":")
    if not colon or not seed_text.isdigit():
        raise ReproError(
            f"bad variant token {token!r}; expected TEMPLATE:SEED "
            "as printed in a corpus report")
    return build_variant(template, int(seed_text))


def generate_corpus(corpus_seed: int = 0, variants: int = 12,
                    templates: tuple[str, ...] | None = None,
                    ) -> list[SystemVariant]:
    """Generate ``variants`` systems, round-robin across the templates.

    Args:
        corpus_seed: the run-level seed; everything derives from it.
        variants: how many systems to generate.
        templates: template subset to draw from, in the given order;
            defaults to every registered template.
    """
    names = tuple(templates) if templates else tuple(TEMPLATES)
    if not names:
        raise ReproError("at least one template is required")
    for name in names:
        if name not in TEMPLATES:
            build_variant(name, 0)  # raises with the known-template list
    return [build_variant(names[index % len(names)],
                          variant_seed(corpus_seed,
                                       names[index % len(names)],
                                       index // len(names)))
            for index in range(variants)]

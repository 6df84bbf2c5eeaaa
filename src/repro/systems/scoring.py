"""The scored-system record and its ground-truth scoring.

A :class:`SystemVariant` is what to hunt and how to score it: the
symbolic clients and server, the wire layout and mask, and an exact
oracle — ``accepts``/``generable``/``classify`` (concrete message →
Trojan class string or None) over a seeded class universe. Every
template builds one from a parameter record: FSP
(:func:`repro.systems.fsp.fsp_system`), and the 2PC, Raft and
broadcast templates of :mod:`repro.corpus.templates`, whether pinned to
a system's protocol constants or drawn for a corpus variant.

:class:`TrojanScore` turns an oracle into the scoring surface the
experiments use (``score`` / ``coverage`` / ``missing``), so the
semantics of counting true/false positives live in exactly one place.
A system's subclass comes from :func:`bound_ground_truth`:
``GroundTruth = bound_ground_truth(SYSTEM)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.achilles.mask import FieldMask
from repro.messages.layout import MessageLayout


@dataclass
class SystemVariant:
    """One system: programs + oracle derived from one parameter set
    (``seed`` is the draw's seed, None for a pinned system; ``mask``
    names the fields hidden from the Trojan check)."""

    template: str
    seed: int | None
    layout: MessageLayout
    destination: str
    clients: dict[str, Callable]
    server: Callable
    accepts: Callable[[bytes], bool]
    generable: Callable[[bytes], bool]
    classify: Callable[[bytes], str | None]
    classes: tuple[str, ...]
    bugs: tuple[str, ...]
    params: dict = field(default_factory=dict)
    mask: FieldMask = field(default_factory=FieldMask.none)

    @property
    def token(self) -> str:
        """The reproduction handle: ``template:seed`` rebuilds this
        exact variant (``python -m repro corpus run --variant TOKEN``)."""
        return f"{self.template}:{self.seed}"


@dataclass
class TrojanScore:
    """Scoring of concrete messages against a system's seeded classes.

    Attributes:
        classes_found: distinct Trojan classes covered by a witness.
        true_positives: messages that are genuine Trojans.
        false_positives: messages flagged as Trojan that are not.
    """

    classes_found: set
    true_positives: int
    false_positives: int

    #: System oracles, bound by each subclass.
    classify: ClassVar[Callable]
    universe: ClassVar[Callable]

    @classmethod
    def score(cls, messages: list[bytes]) -> "TrojanScore":
        """Score messages claimed to be Trojans."""
        found = set()
        tp = 0
        fp = 0
        for message in messages:
            trojan_class = cls.classify(message)
            if trojan_class is None:
                fp += 1
            else:
                tp += 1
                found.add(trojan_class)
        return cls(found, tp, fp)

    @property
    def coverage(self) -> float:
        """Fraction of the seeded universe covered."""
        return len(self.classes_found) / len(type(self).universe())

    def missing(self) -> list:
        """Seeded classes no witness covered, in canonical order."""
        return sorted(set(type(self).universe()) - self.classes_found)


def bound_ground_truth(variant: SystemVariant) -> type[TrojanScore]:
    """A :class:`TrojanScore` subclass bound to the variant's oracle."""
    return type("VariantGroundTruth", (TrojanScore,), {
        "classify": staticmethod(variant.classify),
        "universe": staticmethod(lambda: list(variant.classes)),
    })

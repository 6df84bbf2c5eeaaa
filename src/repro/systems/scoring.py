"""Shared ground-truth scoring for the systems under test.

Every scored system has an exact oracle pair — a classifier (concrete
message → seeded Trojan class or None) and the seeded class universe.
:class:`TrojanScore` turns that pair into the scoring surface the
experiments use (``score`` / ``coverage`` / ``missing``), so the
semantics of counting true/false positives live in exactly one place.
FSP subclasses it, binding its two oracles::

    class GroundTruth(TrojanScore):
        classify = staticmethod(classify_message)
        universe = staticmethod(all_trojan_classes)

A template system — Raft, 2PC, broadcast or any corpus variant — gets
its subclass from its oracle: ``GroundTruth = bound_ground_truth(SYSTEM)``
(:func:`repro.corpus.templates.bound_ground_truth`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar


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

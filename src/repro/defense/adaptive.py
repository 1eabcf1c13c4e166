"""Detector-driven wear-leveling rate escalation.

Wraps any :class:`~repro.wearlevel.base.WearLeveler` together with an
:class:`~repro.defense.attack_detector.OnlineAttackDetector`: while the
alarm is raised, every remapping interval the scheme exposes is divided by
``escalation`` (more frequent remaps), and restored when the stream calms
down.

Interval discovery is duck-typed: the wrapper rescales every
``remap_interval`` / ``inner_interval`` / ``outer_interval`` attribute it
finds on the scheme and on its ``region`` / ``regions`` / ``outer``
sub-objects — which covers every scheme in this library.

This is the mechanism the paper's §III-B warns about: against RAA/BPA it
multiplies lifetime, but against the Remapping Timing Attack a higher
remap rate means cheaper detection and *shorter* lifetime.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.defense.attack_detector import OnlineAttackDetector
from repro.wearlevel.base import Move, WearLeveler

_INTERVAL_FIELDS = ("remap_interval", "inner_interval", "outer_interval")
_SUBOBJECT_FIELDS = ("region", "outer")
_SUBLIST_FIELDS = ("regions",)


def _interval_slots(scheme) -> List[Tuple[object, str, int]]:
    """Enumerate (object, attribute, base_value) interval knobs."""
    slots: List[Tuple[object, str, int]] = []

    def visit(obj):
        for field in _INTERVAL_FIELDS:
            value = getattr(obj, field, None)
            if isinstance(value, int) and value >= 1:
                slots.append((obj, field, value))

    visit(scheme)
    for field in _SUBOBJECT_FIELDS:
        child = getattr(scheme, field, None)
        if child is not None:
            visit(child)
    for field in _SUBLIST_FIELDS:
        children = getattr(scheme, field, None)
        if children:
            for child in children:
                visit(child)
    return slots


class AdaptiveWearLeveler(WearLeveler):
    """Rate-escalating wrapper around any wear-leveling scheme."""

    def __init__(
        self,
        scheme: WearLeveler,
        detector: OnlineAttackDetector = None,
        escalation: int = 4,
    ):
        if escalation < 1:
            raise ValueError("escalation must be >= 1")
        self.scheme = scheme
        self.detector = detector or OnlineAttackDetector()
        self.escalation = escalation
        self.n_lines = scheme.n_lines
        self.n_physical = scheme.n_physical
        self.escalated = False
        self.escalations = 0
        self._slots = _interval_slots(scheme)
        if not self._slots:
            raise ValueError("scheme exposes no remapping intervals to adapt")

    # ------------------------------------------------------------ plumbing

    def translate(self, la: int) -> int:
        return self.scheme.translate(la)

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.scheme.translate_many(las)

    def record_write(self, la: int) -> List[Move]:
        alarmed = self.detector.record(la)
        if alarmed and not self.escalated:
            self._apply(escalate=True)
        elif not alarmed and self.escalated:
            self._apply(escalate=False)
        return self.scheme.record_write(la)

    def _apply(self, escalate: bool) -> None:
        for obj, field, base in self._slots:
            value = max(1, base // self.escalation) if escalate else base
            setattr(obj, field, value)
        self.escalated = escalate
        if escalate:
            self.escalations += 1

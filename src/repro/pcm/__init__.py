"""PCM device substrate: asymmetric timing model and wear-tracked line array.

The Remapping Timing Attack only needs to distinguish *latency classes*
(which data pattern was copied during a remap), so line contents are modelled
as one of three classes (:class:`~repro.pcm.timing.LineData`) rather than as
raw bytes — this keeps simulated banks of millions of lines cheap while
preserving the side channel exactly (Fig. 4 of the paper).

:class:`PCMArray` is the one device array: in RAM by default, or with
``memmap_dir`` set its per-line wear and data live in ``np.memmap`` files
for devices that outgrow RAM.
"""

from repro.pcm.array import PCMArray, LineFailure, UncorrectableError
from repro.pcm.ecc import CorrectionOutcome, ECPModel
from repro.pcm.faults import FaultModel
from repro.pcm.health import DeviceHealth
from repro.pcm.sparing import DeviceReadOnly, SparesExhausted, SparingController
from repro.pcm.stats import WearStats, normalized_accumulated_writes
from repro.pcm.timing import (
    ALL0,
    ALL1,
    MIXED,
    LineData,
    TimingModel,
)

__all__ = [
    "ALL0",
    "ALL1",
    "MIXED",
    "CorrectionOutcome",
    "DeviceHealth",
    "DeviceReadOnly",
    "ECPModel",
    "FaultModel",
    "LineData",
    "LineFailure",
    "PCMArray",
    "SparesExhausted",
    "SparingController",
    "TimingModel",
    "UncorrectableError",
    "WearStats",
    "normalized_accumulated_writes",
]

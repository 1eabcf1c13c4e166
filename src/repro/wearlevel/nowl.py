"""Identity mapping — the unprotected baseline.

Under no wear leveling a Repeated Address Attack wears out one line in
``endurance × set_ns`` time: 100 seconds for the paper's device ("an
adversary can render a memory line unusable in one minute", Section II-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.wearlevel.base import Move, RoundProfile, WearLeveler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


class NoWearLeveling(WearLeveler):
    """LA == PA; never remaps anything."""

    def __init__(self, n_lines: int):
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        self.n_lines = n_lines
        self.n_physical = n_lines

    def translate(self, la: int) -> int:
        self._check_la(la)
        return la

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        return []

    # ------------------------------------------------------- batched API

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return np.asarray(las, dtype=np.int64)

    def writes_until_next_remap(self) -> int:
        return 1 << 62  # never

    def record_writes_many(self, las: np.ndarray) -> None:
        pass

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Identity mapping: the trace distribution *is* the wear profile.

        Sequential and RAA are exact (the sequential phase comes from the
        spec's position); uniform and zipf are exact in expectation and
        Poisson-sampled by the driver.
        """
        writes = int(writes)
        elapsed = writes * timing.write_latency(spec.data)
        if spec.kind == "uniform":
            rates = np.full(self.n_lines, writes / self.n_lines)
            return RoundProfile(writes, elapsed, wear_rates=rates)
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            return RoundProfile(writes, elapsed, wear_rates=weights * writes)
        counts = np.zeros(self.n_lines, dtype=np.int64)
        if spec.kind == "sequential":
            base, rem = divmod(writes, self.n_lines)
            counts += base
            if rem:
                start = spec.pos % self.n_lines
                # reprolint: disable=REP302 rem < n_lines distinct offsets
                counts[(start + np.arange(rem)) % self.n_lines] += 1
        else:  # raa
            counts[spec.target] = writes
        return RoundProfile(writes, elapsed, wear_counts=counts, exact=True)

    def apply_round(self, profile: RoundProfile) -> float:
        return profile.elapsed_ns  # no mapping state to advance

"""Multi-Way Security Refresh (Yu & Du, IEEE TC 2014; paper Section III-E).

The paper characterises the scheme family this way: the memory space is
divided into many sub-regions *by the address sequence* (contiguous LA
ranges) and wear leveling runs independently inside each sub-region.  Our
implementation gives each contiguous LA range its own one-level SR region.

This family inherits the vulnerability discussed in Section III-E: once the
attacker locates a sub-region (free — the split is by address sequence, so
the high LA bits name the sub-region directly), it takes at most
``(2N/R) * log2(R)`` writes to track its remapping, after which the whole
sub-region can be worn out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    Move,
    RegionPartitionedScheme,
    RoundProfile,
    SwapMove,
    spread_exact,
)
from repro.wearlevel.security_refresh import SRRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


class MultiWaySR(RegionPartitionedScheme):
    """Independent per-sub-region Security Refresh over contiguous LA ranges."""

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        remap_interval: int = 64,
        rng: SeedLike = None,
    ):
        super().__init__(
            n_lines, n_subregions, SRRegion, count_name="n_subregions"
        )
        self.n_subregions = n_subregions
        self.subregion_size = self._size
        gen = as_generator(rng)
        self.regions = [
            SRRegion(self.subregion_size, remap_interval, gen)
            for _ in range(n_subregions)
        ]

    def subregion_of(self, la: int) -> int:
        """Sub-region index — directly the high bits of the logical address."""
        return la // self.subregion_size

    # The split is by address sequence: the outer stage is the identity.
    def _outer_ia(self, la: int) -> int:
        return la

    def _outer_ias(self, las: np.ndarray) -> np.ndarray:
        return np.asarray(las, dtype=np.int64)

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        region = self.subregion_of(la)
        base = region * self.subregion_size
        swap = self.regions[region].record_write()
        if swap is None:
            return []
        return [SwapMove(pa_a=base + swap[0], pa_b=base + swap[1])]

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Independent SR rounds per contiguous LA range.

        Region shares come straight off the trace distribution (the split
        is by address sequence — high LA bits), deterministically
        discretized so the per-region counters advance exactly.  Zipf
        clips ``writes`` so the hottest region completes at most one key
        round, keeping its mapping snapshot valid; RAA is declined.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        size = self.subregion_size
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            region_q = weights.reshape(self.n_subregions, size).sum(axis=1)
            rotation = size * self.regions[0].remap_interval
            writes = min(writes, int(rotation / max(float(region_q.max()), 1e-12)))
            if writes <= 0:
                return None
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
        region_writes = spread_exact(region_q * writes, writes)
        rates, total_swaps = SRRegion.bank_swap_rates(self.regions, region_writes)
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += np.repeat(region_writes / size, size)
        elif spec.kind == "zipf":
            rates += self._zipf_user_wear(spec) * writes
        else:  # sequential
            counts = np.concatenate(
                [
                    spread_exact(np.full(size, int(w) / size), int(w))
                    for w in region_writes
                ]
            )
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += total_swaps * timing.swap_latency(spec.data, spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={"region_writes": region_writes},
        )

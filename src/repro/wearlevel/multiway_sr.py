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

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    Move,
    RoundProfile,
    SwapMove,
    WearLeveler,
    grouped_cumcount,
    spread_exact,
)
from repro.wearlevel.security_refresh import SRRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


class MultiWaySR(WearLeveler):
    """Independent per-sub-region Security Refresh over contiguous LA ranges."""

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        remap_interval: int = 64,
        rng: SeedLike = None,
    ):
        if n_subregions < 1 or n_lines % n_subregions != 0:
            raise ValueError(
                f"n_subregions ({n_subregions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self.n_physical = n_lines
        self.n_subregions = n_subregions
        self.subregion_size = n_lines // n_subregions
        bit_length_exact(self.subregion_size)  # must be a power of two
        gen = as_generator(rng)
        self.regions = [
            SRRegion(self.subregion_size, remap_interval, gen)
            for _ in range(n_subregions)
        ]

    def subregion_of(self, la: int) -> int:
        """Sub-region index — directly the high bits of the logical address."""
        return la // self.subregion_size

    def translate(self, la: int) -> int:
        self._check_la(la)
        region = self.subregion_of(la)
        local = la % self.subregion_size
        base = region * self.subregion_size
        return base + self.regions[region].translate(local)

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        region = self.subregion_of(la)
        base = region * self.subregion_size
        swap = self.regions[region].record_write()
        if swap is None:
            return []
        return [SwapMove(pa_a=base + swap[0], pa_b=base + swap[1])]

    # ------------------------------------------------------- batched API

    def _translate_locals(
        self, regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray:
        """Vectorized per-region SR translate of region-local addresses."""
        keycs = np.fromiter(
            (r.keyc for r in self.regions), dtype=np.int64, count=self.n_subregions
        )
        keyps = np.fromiter(
            (r.keyp for r in self.regions), dtype=np.int64, count=self.n_subregions
        )
        crps = np.fromiter(
            (r.crp for r in self.regions), dtype=np.int64, count=self.n_subregions
        )
        kc = keycs[regions]
        kp = keyps[regions]
        pairs = locals_ ^ kc ^ kp
        remapped = np.minimum(locals_, pairs) < crps[regions]
        return regions * self.subregion_size + (
            locals_ ^ np.where(remapped, kc, kp)
        )

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        las = np.asarray(las, dtype=np.int64)
        return self._translate_locals(
            las // self.subregion_size, las % self.subregion_size
        )

    def writes_until_next_remap(self) -> int:
        return min(r.writes_until_next_remap for r in self.regions)

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """Exact split on the first write that reaches a region's trigger."""
        if las.size == 0:
            return np.empty(0, dtype=np.int64), 0
        remaining = np.fromiter(
            (r.writes_until_next_remap for r in self.regions),
            dtype=np.int64,
            count=self.n_subregions,
        )
        # Trigger right at index 0 (the call after a remap) needs no scan.
        if remaining[int(las[0]) // self.subregion_size] <= 1:
            return np.empty(0, dtype=np.int64), 0
        # Scan-window cap at sum(remaining), same rationale as RBSG's
        # consume_chunk: a window that long always contains a trigger.
        window = min(int(las.size), max(int(remaining.sum()), 1))
        las = np.asarray(las[:window], dtype=np.int64)
        regions = las // self.subregion_size
        trigger = np.nonzero(grouped_cumcount(regions) + 1 >= remaining[regions])[0]
        n = int(trigger[0]) if trigger.size else window
        if n == 0:
            return np.empty(0, dtype=np.int64), 0
        regions = regions[:n]
        pas = self._translate_locals(regions, las[:n] % self.subregion_size)
        counts = np.bincount(regions, minlength=self.n_subregions)
        for r in np.nonzero(counts)[0]:
            self.regions[int(r)].write_count += int(counts[r])
        return pas, n

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
        rates = np.zeros(self.n_physical)
        counts: Optional[np.ndarray] = None
        total_swaps = 0.0
        for index, region in enumerate(self.regions):
            w_r = int(region_writes[index])
            swaps = region.pending_triggers(w_r) * region.swap_factor
            total_swaps += swaps
            base = index * size
            rates[base : base + size] += 2.0 * swaps / size
            if spec.kind == "uniform":
                rates[base : base + size] += w_r / size
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            user = np.zeros(self.n_physical)
            np.add.at(
                user,
                self.translate_many(np.arange(self.n_lines, dtype=np.int64)),
                weights,
            )
            rates += user * writes
        elif spec.kind == "sequential":
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

    def apply_round(self, profile: RoundProfile) -> float:
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        for region, w_r in zip(self.regions, region_writes):
            triggers = region.pending_triggers(int(w_r))
            region.write_count += int(w_r)
            region.advance_triggers(triggers)
        return profile.elapsed_ns

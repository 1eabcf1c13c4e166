"""Two-level (hierarchical) Security Refresh (paper Section III-C/E).

The outer SR region spans the whole LA space and remaps LA → IA; the IA
space is then divided into equal-size contiguous sub-regions, each managed
by an inner SR region translating IA → PA within the sub-region.  "Both
levels apply the SR scheme, but are transparent and independent to each
other":

* the outer write counter counts *all* writes to the bank
  (``outer_interval`` per remap),
* each inner write counter counts writes landing *in that sub-region*
  (``inner_interval`` per remap).

An outer remap swaps two IAs; physically this swaps the lines the two IAs
currently occupy *through* the inner mapping.  An inner remap swaps two
slots inside one sub-region.
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


class TwoLevelSecurityRefresh(WearLeveler):
    """Hierarchical Security Refresh.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_subregions:
        Number of inner SR sub-regions; must divide ``n_lines`` with a
        power-of-two quotient.
    inner_interval / outer_interval:
        Remapping intervals of the two levels (the paper's suggested
        configuration is 512 sub-regions, inner 64, outer 128).
    """

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        inner_interval: int = 64,
        outer_interval: int = 128,
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
        bit_length_exact(self.subregion_size)  # validates power of two
        gen = as_generator(rng)
        self.outer = SRRegion(n_lines, outer_interval, gen)
        self.inners = [
            SRRegion(self.subregion_size, inner_interval, gen)
            for _ in range(n_subregions)
        ]

    # ------------------------------------------------------------- mapping

    def subregion_of(self, ia: int) -> int:
        """Sub-region index of an intermediate address."""
        return ia // self.subregion_size

    def _phys_of_ia(self, ia: int) -> int:
        region = self.subregion_of(ia)
        local = ia % self.subregion_size
        return region * self.subregion_size + self.inners[region].translate(local)

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self._phys_of_ia(self.outer.translate(la))

    # -------------------------------------------------------------- writes

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        moves: List[Move] = []
        # Outer level counts every write to the bank.
        outer_swap = self.outer.record_write()
        if outer_swap is not None:
            ia_a, ia_b = outer_swap
            pa_a = self._phys_of_ia(ia_a)
            pa_b = self._phys_of_ia(ia_b)
            if pa_a != pa_b:
                moves.append(SwapMove(pa_a=pa_a, pa_b=pa_b))
        # Inner level counts writes landing in the target sub-region
        # (computed under the post-outer-remap mapping).
        ia = self.outer.translate(la)
        region = self.subregion_of(ia)
        base = region * self.subregion_size
        inner_swap = self.inners[region].record_write()
        if inner_swap is not None:
            moves.append(SwapMove(pa_a=base + inner_swap[0], pa_b=base + inner_swap[1]))
        return moves

    # ------------------------------------------------------- batched API

    def _translate_inners(
        self, regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray:
        keycs = np.fromiter(
            (r.keyc for r in self.inners), dtype=np.int64, count=self.n_subregions
        )
        keyps = np.fromiter(
            (r.keyp for r in self.inners), dtype=np.int64, count=self.n_subregions
        )
        crps = np.fromiter(
            (r.crp for r in self.inners), dtype=np.int64, count=self.n_subregions
        )
        kc = keycs[regions]
        kp = keyps[regions]
        pairs = locals_ ^ kc ^ kp
        remapped = np.minimum(locals_, pairs) < crps[regions]
        return regions * self.subregion_size + (
            locals_ ^ np.where(remapped, kc, kp)
        )

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        ias = self.outer.translate_many(np.asarray(las, dtype=np.int64))
        return self._translate_inners(
            ias // self.subregion_size, ias % self.subregion_size
        )

    def writes_until_next_remap(self) -> int:
        inner_min = min(r.writes_until_next_remap for r in self.inners)
        return min(self.outer.writes_until_next_remap, inner_min)

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """Exact split: outer counter is global, inner counters per region.

        The prefix must end strictly before the outer trigger (every write
        counts there) *and* before the first write whose region-local
        occurrence number reaches its inner region's remaining count.
        """
        if las.size == 0:
            return np.empty(0, dtype=np.int64), 0
        limit = min(int(las.size), self.outer.writes_until_next_remap - 1)
        if limit <= 0:
            return np.empty(0, dtype=np.int64), 0
        remaining = np.fromiter(
            (r.writes_until_next_remap for r in self.inners),
            dtype=np.int64,
            count=self.n_subregions,
        )
        # Trigger right at index 0 (the call after an inner remap) needs
        # no scan; one scalar outer translate answers it.
        first_region = self.outer.translate(int(las[0])) // self.subregion_size
        if remaining[first_region] <= 1:
            return np.empty(0, dtype=np.int64), 0
        # Inner scan-window cap (same rationale as RBSG's consume_chunk).
        limit = min(limit, max(int(remaining.sum()), 1))
        las = np.asarray(las[:limit], dtype=np.int64)
        ias = self.outer.translate_many(las)
        regions = ias // self.subregion_size
        trigger = np.nonzero(grouped_cumcount(regions) + 1 >= remaining[regions])[0]
        n = int(trigger[0]) if trigger.size else limit
        if n == 0:
            return np.empty(0, dtype=np.int64), 0
        regions = regions[:n]
        pas = self._translate_inners(regions, ias[:n] % self.subregion_size)
        self.outer.write_count += n
        counts = np.bincount(regions, minlength=self.n_subregions)
        for r in np.nonzero(counts)[0]:
            self.inners[int(r)].write_count += int(counts[r])
        return pas, n

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Hierarchical SR: outer XOR over the bank, inner XOR per region.

        Both levels are XOR bijections, so uniform and sequential traffic
        cover the physical space evenly; the inner region shares under
        zipf come from a snapshot of the outer mapping, with ``writes``
        clipped to one outer key round.  Swap wear at both levels is two
        line writes per actual swap, half the triggers in expectation.
        RAA is declined.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        n = self.n_lines
        size = self.subregion_size
        if spec.kind == "zipf":
            writes = min(writes, n * self.outer.remap_interval)
        outer_swaps = self.outer.pending_triggers(writes) * self.outer.swap_factor
        rates = np.full(n, 2.0 * outer_swaps / n)
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.outer.translate_many(np.arange(n, dtype=np.int64))
            region_q = np.bincount(
                ias // size, weights=weights, minlength=self.n_subregions
            )
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
        region_writes = spread_exact(region_q * writes, writes)
        inner_swaps = 0.0
        for index, inner in enumerate(self.inners):
            w_r = int(region_writes[index])
            swaps = inner.pending_triggers(w_r) * inner.swap_factor
            inner_swaps += swaps
            base = index * size
            rates[base : base + size] += 2.0 * swaps / size
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += writes / n
        elif spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            user = np.zeros(n)
            np.add.at(
                user,
                self.translate_many(np.arange(n, dtype=np.int64)),
                weights,
            )
            rates += user * writes
        else:  # sequential: deterministic even coverage through both XORs
            counts = spread_exact(np.full(n, writes / n), writes)
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += (outer_swaps + inner_swaps) * timing.swap_latency(
            spec.data, spec.data
        )
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={"region_writes": region_writes},
        )

    def apply_round(self, profile: RoundProfile) -> float:
        outer_triggers = self.outer.pending_triggers(profile.writes)
        self.outer.write_count += profile.writes
        self.outer.advance_triggers(outer_triggers)
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        for inner, w_r in zip(self.inners, region_writes):
            triggers = inner.pending_triggers(int(w_r))
            inner.write_count += int(w_r)
            inner.advance_triggers(triggers)
        return profile.elapsed_ns

    # ------------------------------------------------------------- oracles

    @property
    def outer_key_xor(self) -> int:
        """Ground truth outer ``keyc XOR keyp`` (RTA recovery target)."""
        return self.outer.keyc ^ self.outer.keyp

    def inner_key_xor(self, region: int) -> int:
        """Ground truth inner ``keyc XOR keyp`` of one sub-region."""
        inner = self.inners[region]
        return inner.keyc ^ inner.keyp

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


class TwoLevelSecurityRefresh(RegionPartitionedScheme):
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
        super().__init__(
            n_lines, n_subregions, SRRegion, count_name="n_subregions"
        )
        self.n_subregions = n_subregions
        self.subregion_size = self._size
        gen = as_generator(rng)
        self.outer = SRRegion(n_lines, outer_interval, gen)
        self.regions = [
            SRRegion(self.subregion_size, inner_interval, gen)
            for _ in range(n_subregions)
        ]

    # ------------------------------------------------------------- mapping

    def subregion_of(self, ia: int) -> int:
        """Sub-region index of an intermediate address."""
        return ia // self.subregion_size

    def _outer_ia(self, la: int) -> int:
        return self.outer.translate(la)

    def _outer_ias(self, las: np.ndarray) -> np.ndarray:
        return self.outer.translate_many(np.asarray(las, dtype=np.int64))

    def _outer_left(self) -> int:
        return self.outer.writes_until_next_remap

    def _outer_count(self, writes: int) -> None:
        self.outer.write_count += writes

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
        inner_swap = self.regions[region].record_write()
        if inner_swap is not None:
            moves.append(SwapMove(pa_a=base + inner_swap[0], pa_b=base + inner_swap[1]))
        return moves

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
        if spec.kind == "zipf":
            writes = min(writes, n * self.outer.remap_interval)
        outer_swaps = self.outer.pending_triggers(writes) * self.outer.swap_factor
        rates = np.full(n, 2.0 * outer_swaps / n)
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.outer.translate_many(np.arange(n, dtype=np.int64))
            region_q = np.bincount(
                ias // self.subregion_size,
                weights=weights,
                minlength=self.n_subregions,
            )
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
        region_writes = spread_exact(region_q * writes, writes)
        inner_rates, inner_swaps = SRRegion.bank_swap_rates(
            self.regions, region_writes
        )
        rates += inner_rates
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += writes / n
        elif spec.kind == "zipf":
            rates += self._zipf_user_wear(spec) * writes
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
        return super().apply_round(profile)

    # ------------------------------------------------------------- oracles

    @property
    def outer_key_xor(self) -> int:
        """Ground truth outer ``keyc XOR keyp`` (RTA recovery target)."""
        return self.outer.keyc ^ self.outer.keyp

    def inner_key_xor(self, region: int) -> int:
        """Ground truth inner ``keyc XOR keyp`` of one sub-region."""
        inner = self.regions[region]
        return inner.keyc ^ inner.keyp

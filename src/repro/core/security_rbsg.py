"""Security Region-Based Start-Gap — the paper's proposed scheme (Section IV).

Two-level, both levels *dynamic*:

* **Outer level** — Security-Level Adjustable Dynamic Mapping: a
  :class:`~repro.core.dynamic_feistel.DynamicFeistelMapper` transforms
  LA → IA over the whole bank.  Its keys rotate every remapping round, so
  the Remapping Timing Attack can never finish recovering them; the number
  of Feistel stages is the security knob.  One outer remap movement fires
  every ``outer_interval`` writes to the bank.
* **Inner level** — the IA space is divided into ``n_subregions`` equal
  contiguous sub-regions, each wear-leveled by plain Start-Gap
  (:class:`~repro.wearlevel.startgap.StartGapRegion`); one gap movement per
  ``inner_interval`` writes to the sub-region.  Start-Gap is cheap and its
  weak (sequential) remapping rule is harmless here because the outer level
  already randomizes which IA an attacker can reach.

Physical layout: sub-region ``r`` owns ``subregion_size + 1`` physical lines
(its gap line included); one extra physical line at the very end backs the
outer level's spare slot.  Total: ``n_lines + n_subregions + 1`` lines.
(The paper's overhead accounting says the outer and per-sub-region extra
lines total "(S+1) x 256 byte"; the count is actually one per sub-region
plus one for the outer level, i.e. ``R + 1`` lines — an apparent typo we
document here and in :mod:`repro.analysis.overhead`.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    CopyMove,
    Move,
    RegionPartitionedScheme,
    RoundProfile,
    SwapMove,
    spread_exact,
)
from repro.wearlevel.startgap import StartGapRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


class SecurityRBSG(RegionPartitionedScheme):
    """Security RBSG: dynamic-Feistel outer level + Start-Gap inner level.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_subregions:
        Inner Start-Gap sub-regions; must divide ``n_lines``.
    inner_interval:
        Writes to a sub-region per inner gap movement.
    outer_interval:
        Writes to the bank per outer DFN movement.
    n_stages:
        Feistel stages of the outer DFN (the security level).
    """

    def __init__(
        self,
        n_lines: int,
        n_subregions: int = 512,
        inner_interval: int = 64,
        outer_interval: int = 128,
        n_stages: int = 7,
        rng: SeedLike = None,
    ):
        # Layout: R regions of (size+1) slots, then the outer spare line.
        super().__init__(
            n_lines, n_subregions, StartGapRegion, spare_slot=True,
            count_name="n_subregions",
        )
        self.n_subregions = n_subregions
        self.subregion_size = self._size
        self.inner_interval = inner_interval
        self.outer_interval = outer_interval
        self.n_stages = n_stages
        gen = as_generator(rng)
        self.outer = DynamicFeistelMapper(n_lines, n_stages=n_stages, rng=gen)
        self.regions = [
            StartGapRegion(self.subregion_size, inner_interval)
            for _ in range(n_subregions)
        ]
        self.outer_write_count = 0

    # ------------------------------------------------------------- mapping

    def _outer_ia(self, la: int) -> int:
        return self.outer.translate(la)

    def _outer_ias(self, las: np.ndarray) -> np.ndarray:
        return self.outer.translate_many(np.asarray(las, dtype=np.int64))

    def _outer_left(self) -> int:
        return self.outer_interval - (self.outer_write_count % self.outer_interval)

    def _outer_count(self, writes: int) -> None:
        self.outer_write_count += writes

    def subregion_of_la(self, la: int) -> int:
        """Sub-region the line currently lives in (spare maps to -1)."""
        ia = self.outer.translate(la)
        if ia == self.outer.spare_slot:
            return -1
        return ia // self.subregion_size

    # -------------------------------------------------------------- writes

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        moves: List[Move] = []
        # Outer level: one DFN movement per outer_interval bank writes.
        self.outer_write_count += 1
        if self.outer_write_count % self.outer_interval == 0:
            step = self.outer.step()
            if isinstance(step, CopyMove):
                moves.append(
                    CopyMove(
                        src=self._phys_of_ia(step.src),
                        dst=self._phys_of_ia(step.dst),
                    )
                )
            elif isinstance(step, SwapMove):
                moves.append(
                    SwapMove(
                        pa_a=self._phys_of_ia(step.pa_a),
                        pa_b=self._phys_of_ia(step.pa_b),
                    )
                )
            # None = fixed-point remap: no data movement needed.
        # Inner level: count the write in the sub-region it lands in
        # (under the post-movement outer mapping).
        ia = self.outer.translate(la)
        if ia != self.outer.spare_slot:
            region = ia // self.subregion_size
            inner_move = self.regions[region].record_write()
            if inner_move is not None:
                base = region * self._stride
                src, dst = inner_move
                moves.append(CopyMove(src=base + src, dst=base + dst))
        return moves

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Analytic Security-RBSG round: DFN key rotations + inner gap walks.

        The dynamic outer randomizer re-keys every round, so user wear is
        fully smoothed over the physical space under uniform/sequential
        traffic; zipf clips ``writes`` to roughly one outer round and
        snapshots the current mapping.  Outer movement wear is ~2 line
        writes per non-fixed-point trigger (swap chains write the pivot
        and the target), with the fixed-point fraction measured on the
        current key pair (:meth:`DynamicFeistelMapper.
        fixed_point_fraction`); the spare line takes one park write per
        completed round.  Inner Start-Gap movement wear is the exact gap
        walk per sub-region.  RAA is declined — the chunk engine and
        :mod:`repro.sim.roundsim` own that regime.
        """
        if spec.kind == "raa":
            return None
        writes = int(writes)
        n = self.n_lines
        if spec.kind == "zipf":
            writes = min(writes, n * self.outer_interval)
        interval = self.outer_interval
        t_out = (self.outer_write_count + writes) // interval - (
            self.outer_write_count // interval
        )
        rounds = t_out // n
        move_frac = 1.0 - self.outer.fixed_point_fraction()
        rates = np.zeros(self.n_physical)
        counts = np.zeros(self.n_physical, dtype=np.int64)
        data_slots = self._spare_pa
        rates[:data_slots] += 2.0 * move_frac * t_out / data_slots
        counts[self._spare_pa] += rounds
        if spec.kind == "zipf":
            weights = spec.weights()
            assert weights is not None
            ias = self.outer.translate_many(np.arange(n, dtype=np.int64))
            spare = ias == self.outer.spare_slot
            region_q = np.bincount(
                np.where(spare, 0, ias // self.subregion_size),
                weights=np.where(spare, 0.0, weights),
                minlength=self.n_subregions,
            )
            total_q = float(region_q.sum())
            if total_q > 0:
                region_q = region_q / total_q
            rates += self._zipf_user_wear(spec) * writes
        else:
            region_q = np.full(self.n_subregions, 1.0 / self.n_subregions)
            if spec.kind == "uniform":
                rates += writes / self.n_physical
            else:  # sequential: deterministic aggregate, DFN-smoothed
                counts += spread_exact(
                    np.full(self.n_physical, writes / self.n_physical), writes
                )
        region_writes = spread_exact(region_q * writes, writes)
        inner_wear, inner_movements = StartGapRegion.bank_gap_wear(
            self.regions, region_writes
        )
        counts[:data_slots] += inner_wear
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += (
            move_frac * t_out * timing.swap_latency(spec.data, spec.data)
        )
        elapsed += inner_movements * timing.copy_latency(spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            meta={
                "rounds": rounds,
                "triggers": t_out,
                "region_writes": region_writes,
            },
        )

    def apply_round(self, profile: RoundProfile) -> float:
        self.outer_write_count += profile.writes
        rounds = profile.meta["rounds"]
        triggers = profile.meta["triggers"]
        assert isinstance(rounds, int) and isinstance(triggers, int)
        self.outer.advance_rounds(rounds)
        self.outer.total_movements += triggers
        return super().apply_round(profile)

    # ------------------------------------------------------------- queries

    @property
    def dfn_round_count(self) -> int:
        """Completed + in-progress outer remapping rounds so far."""
        return self.outer.round_count

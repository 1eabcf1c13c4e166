"""Security Refresh (Seong et al., ISCA 2010; paper Section III-C).

One SR region dynamically remaps its lines by XORing with a random key.
Two key registers (``keyc`` for the in-progress round, ``keyp`` for the
previous, completed round) plus the Current Refresh Pointer (``CRP``) define
the mapping at any instant:

* line ``la`` has been remapped this round iff ``min(la, pair(la)) < CRP``
  where ``pair(la) = la XOR keyc XOR keyp``;
* its physical slot is ``la XOR keyc`` if remapped, else ``la XOR keyp``.

Remapping exploits SR's pairwise property: the new slot of ``la`` is the old
slot of ``pair(la)`` and vice versa, so each remap is a single swap of two
physical lines — no gap line needed (Fig. 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import (
    Move,
    RoundProfile,
    SwapMove,
    WearLeveler,
    spread_exact,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


class SRRegion:
    """One Security Refresh region over ``n_lines`` (a power of two).

    Region-local: addresses and returned swap pairs are in ``[0, n_lines)``.
    Shared by the one-level scheme, the two-level scheme and Multi-Way SR.
    """

    gap_slots = 0

    def __init__(self, n_lines: int, remap_interval: int, rng: SeedLike = None):
        self.n_bits = bit_length_exact(n_lines)
        if remap_interval < 1:
            raise ValueError("remap_interval must be >= 1")
        self.n_lines = n_lines
        self.remap_interval = remap_interval
        self._rng = as_generator(rng)
        initial_key = self._draw_key()
        self.keyc = initial_key
        self.keyp = initial_key  # boot state: one completed round with keyc
        self.crp = 0
        self.write_count = 0
        self.round_count = 0
        self.total_swaps = 0

    def _draw_key(self) -> int:
        return int(self._rng.integers(0, self.n_lines))

    # ------------------------------------------------------------- mapping

    def pair_of(self, la: int) -> int:
        """``paired(la)``: the line whose slot ``la`` moves into this round."""
        return la ^ self.keyc ^ self.keyp

    def is_remapped(self, la: int) -> bool:
        """Has ``la`` been remapped in the current round?"""
        return min(la, self.pair_of(la)) < self.crp

    def translate(self, la: int) -> int:
        if not 0 <= la < self.n_lines:
            raise ValueError(f"address {la} outside region [0, {self.n_lines})")
        key = self.keyc if self.is_remapped(la) else self.keyp
        return la ^ key

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem)."""
        pairs = las ^ (self.keyc ^ self.keyp)
        remapped = np.minimum(las, pairs) < self.crp
        return las ^ np.where(remapped, self.keyc, self.keyp)

    @staticmethod
    def translate_bank(
        bank: Sequence["SRRegion"], regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`translate` across a bank of equal-size regions.

        Write ``i`` lands on region ``regions[i]`` at region-local address
        ``locals_[i]``; returns region-local slots.
        """
        n = len(bank)
        keycs = np.fromiter((r.keyc for r in bank), dtype=np.int64, count=n)
        keyps = np.fromiter((r.keyp for r in bank), dtype=np.int64, count=n)
        crps = np.fromiter((r.crp for r in bank), dtype=np.int64, count=n)
        kc = keycs[regions]
        kp = keyps[regions]
        pairs = locals_ ^ kc ^ kp
        remapped = np.minimum(locals_, pairs) < crps[regions]
        return locals_ ^ np.where(remapped, kc, kp)

    # -------------------------------------------------------------- remaps

    def record_write(self) -> Optional[Tuple[int, int]]:
        """Count one write; return a local slot swap ``(a, b)`` if triggered.

        Returns ``None`` either when no remap fires or when the fired remap
        needs no data movement (its pair was already handled, Fig. 5(c)).
        """
        self.write_count += 1
        if self.write_count % self.remap_interval != 0:
            return None
        return self.remap_step()

    def remap_step(self) -> Optional[Tuple[int, int]]:
        """Advance the CRP by one candidate; swap lines if needed."""
        la = self.crp
        pair = self.pair_of(la)
        swap: Optional[Tuple[int, int]] = None
        if pair > la:
            # Not yet remapped: move la's data from its old slot to its new
            # slot, which is exactly pair's old slot — one swap does both.
            old_slot = la ^ self.keyp
            new_slot = la ^ self.keyc
            if old_slot != new_slot:
                swap = (old_slot, new_slot)
                self.total_swaps += 1
        # pair <= la: already swapped when CRP passed `pair` (or identity).
        self.crp += 1
        if self.crp == self.n_lines:
            self._finish_round()
        return swap

    def _finish_round(self) -> None:
        self.keyp = self.keyc
        self.keyc = self._draw_key()
        self.crp = 0
        self.round_count += 1

    @property
    def writes_until_next_remap(self) -> int:
        """Writes remaining before the CRP advances again."""
        return self.remap_interval - (self.write_count % self.remap_interval)

    # -------------------------------------------------- fast-forward jump

    def pending_triggers(self, writes: int) -> int:
        """CRP advances the next ``writes`` region writes will trigger."""
        interval = self.remap_interval
        return (self.write_count + writes) // interval - self.write_count // interval

    @property
    def swap_factor(self) -> float:
        """Expected data movements per CRP advance (steady state).

        Each address pair ``(la, pair(la))`` swaps exactly once per round,
        when the CRP passes its lower member — half the advances move
        data.  When ``keyc == keyp`` (the boot round) every line is a
        fixed point and nothing ever moves.
        """
        return 0.0 if self.keyc == self.keyp else 0.5

    @staticmethod
    def bank_swap_rates(
        bank: Sequence["SRRegion"], region_writes: np.ndarray
    ) -> Tuple[np.ndarray, float]:
        """Expected swap wear of a bank over ``region_writes`` writes.

        Returns per-slot rates over the whole bank (two line writes per
        expected swap, rotation-smoothed over each region) and the total
        expected number of swaps.
        """
        swaps = [
            r.pending_triggers(int(w)) * r.swap_factor
            for r, w in zip(bank, region_writes)
        ]
        size = bank[0].n_lines
        return np.repeat(2.0 * np.array(swaps) / size, size), sum(swaps)

    def advance_triggers(self, triggers: int) -> None:
        """Jump the CRP (and any completed key rotations) over ``triggers``.

        Whole rounds draw their keys in one batched RNG call; only the
        last two survive as ``keyp``/``keyc``, exactly as ``triggers``
        sequential :meth:`remap_step` calls would leave them (the analytic
        tier does not promise draw-for-draw RNG-stream identity with the
        exact engines — it never runs interleaved with them).  Write
        counters are the caller's responsibility.
        """
        total = self.crp + triggers
        rounds, self.crp = divmod(total, self.n_lines)
        if rounds:
            keys = self._rng.integers(0, self.n_lines, size=rounds)
            self.keyp = int(keys[-2]) if rounds >= 2 else self.keyc
            self.keyc = int(keys[-1])
            self.round_count += rounds


class SecurityRefresh(WearLeveler):
    """One-level Security Refresh over the whole logical space."""

    def __init__(self, n_lines: int, remap_interval: int = 64, rng: SeedLike = None):
        self.n_lines = n_lines
        self.n_physical = n_lines  # swap-based: no spare lines
        self.region = SRRegion(n_lines, remap_interval, rng)

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self.region.translate(la)

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        swap = self.region.record_write()
        if swap is None:
            return []
        return [SwapMove(pa_a=swap[0], pa_b=swap[1])]

    # ------------------------------------------------------- batched API

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.region.translate_many(np.asarray(las, dtype=np.int64))

    def writes_until_next_remap(self) -> int:
        return self.region.writes_until_next_remap

    def record_writes_many(self, las: np.ndarray) -> None:
        self.region.write_count += int(las.size)

    @property
    def key_xor(self) -> int:
        """Ground truth ``keyc XOR keyp`` — what the RTA tries to recover."""
        return self.region.keyc ^ self.region.keyp

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Closed-form SR round: XOR mapping + pairwise swap movement.

        The key XOR is a bijection, so uniform stays uniform and a
        sequential sweep covers every slot evenly; zipf snapshots the
        current mapping with ``writes`` clipped to one key round.  Swap
        movement wear is two line writes per actual swap, half the CRP
        advances in expectation (see :attr:`SRRegion.swap_factor`),
        rotation-smoothed over the region.  RAA is declined.
        """
        if spec.kind == "raa":
            return None
        region = self.region
        writes = int(writes)
        n = self.n_lines
        if spec.kind == "zipf":
            writes = min(writes, n * region.remap_interval)
        triggers = region.pending_triggers(writes)
        swaps = triggers * region.swap_factor
        rates = np.full(n, 2.0 * swaps / n)
        counts: Optional[np.ndarray] = None
        if spec.kind == "uniform":
            rates += writes / n
        elif spec.kind == "zipf":
            rates += self._zipf_user_wear(spec) * writes
        else:  # sequential: deterministic even coverage
            counts = spread_exact(np.full(n, writes / n), writes)
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += swaps * timing.swap_latency(spec.data, spec.data)
        return RoundProfile(
            writes, elapsed, wear_counts=counts, wear_rates=rates
        )

    def apply_round(self, profile: RoundProfile) -> float:
        region = self.region
        triggers = region.pending_triggers(profile.writes)
        region.write_count += profile.writes
        region.advance_triggers(triggers)
        return profile.elapsed_ns

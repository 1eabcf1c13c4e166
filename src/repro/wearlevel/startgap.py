"""Start-Gap wear leveling (Qureshi et al., MICRO 2009; paper Section III-A).

A region of ``n`` data lines owns ``n + 1`` physical slots; the extra slot is
the *GapLine*.  Two registers drive an algebraic mapping:

* ``start`` — how many full rotations the region has completed,
* ``gap`` — the slot currently left empty.

Mapping: ``pa = (ia + start) mod n``, then ``pa += 1`` if ``pa >= gap``.

Every ``remap_interval`` writes to the region, one *gap movement* copies the
line above the gap into the gap (``[gap-1] → [gap]``) and decrements ``gap``;
when the gap wraps below slot 0 it re-enters at slot ``n`` and ``start``
advances, completing one remapping round exactly as in Fig. 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.wearlevel.base import (
    CopyMove,
    Move,
    RoundProfile,
    WearLeveler,
    spread_exact,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


def gap_walk_wear(n_slots: int, gap0: int, movements: int) -> np.ndarray:
    """Exact per-slot wear of ``movements`` consecutive gap movements.

    Movement ``j`` copies into slot ``(gap0 - j) mod n_slots`` (the gap
    walks downward, wrapping through the top slot), so the destinations
    are ``movements // n_slots`` full laps plus one contiguous wrapped
    run — no loop needed.
    """
    counts = np.full(n_slots, movements // n_slots, dtype=np.int64)
    rem = movements % n_slots
    if rem:
        # reprolint: disable=REP302 rem < n_slots distinct offsets
        counts[(gap0 - np.arange(rem)) % n_slots] += 1
    return counts


class StartGapRegion:
    """The per-region Start-Gap engine, operating on region-local slots.

    Used standalone by :class:`StartGap`, and as the building block of
    Region-Based Start-Gap and of Security RBSG's inner level.  Slot indices
    are local (``0 .. n_lines``, slot ``n_lines`` being the initial gap).
    """

    gap_slots = 1

    def __init__(self, n_lines: int, remap_interval: int):
        if n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if remap_interval < 1:
            raise ValueError("remap_interval must be >= 1")
        self.n_lines = n_lines
        self.remap_interval = remap_interval
        self.start = 0
        self.gap = n_lines  # gap starts at the spare slot
        self.write_count = 0
        self.total_movements = 0

    def translate(self, ia: int) -> int:
        """Map region-local intermediate address to region-local slot."""
        if not 0 <= ia < self.n_lines:
            raise ValueError(f"intermediate address {ia} outside region")
        pa = (ia + self.start) % self.n_lines
        if pa >= self.gap:
            pa += 1
        return pa

    def record_write(self) -> Optional[Tuple[int, int]]:
        """Count one write; return a local ``(src, dst)`` copy if triggered."""
        self.write_count += 1
        if self.write_count % self.remap_interval != 0:
            return None
        return self.gap_movement()

    def gap_movement(self) -> Tuple[int, int]:
        """Perform one gap movement; return the local ``(src, dst)`` copy."""
        n_slots = self.n_lines + 1
        src = (self.gap - 1) % n_slots
        dst = self.gap
        self.gap = src
        if self.gap == self.n_lines:  # wrapped: one full round completed
            self.start = (self.start + 1) % self.n_lines
        self.total_movements += 1
        return src, dst

    @property
    def writes_until_next_remap(self) -> int:
        """Writes remaining before the next gap movement fires."""
        return self.remap_interval - (self.write_count % self.remap_interval)

    def pending_triggers(self, writes: int) -> int:
        """Gap movements the next ``writes`` region writes will trigger."""
        interval = self.remap_interval
        return (self.write_count + writes) // interval - self.write_count // interval

    def advance_triggers(self, triggers: int) -> None:
        """Jump the ``start``/``gap`` registers over ``triggers`` movements.

        Closed form of ``triggers`` successive :meth:`gap_movement` calls:
        after ``M`` total movements from boot the gap sits at
        ``(n - M) mod (n + 1)`` and ``start`` has advanced once per full
        lap of the gap (every ``n + 1`` movements).  Write counters are the
        caller's responsibility.
        """
        total = self.total_movements + triggers
        n_slots = self.n_lines + 1
        self.gap = (self.n_lines - total) % n_slots
        self.start = (total // n_slots) % self.n_lines
        self.total_movements = total

    def translate_many(self, ias: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem)."""
        pas = (ias + self.start) % self.n_lines
        pas += pas >= self.gap
        return pas

    @staticmethod
    def translate_bank(
        bank: Sequence["StartGapRegion"], regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`translate` across a bank of equal-size regions.

        Write ``i`` lands on region ``regions[i]`` at region-local address
        ``locals_[i]``; returns region-local slots.
        """
        n = len(bank)
        starts = np.fromiter((r.start for r in bank), dtype=np.int64, count=n)
        gaps = np.fromiter((r.gap for r in bank), dtype=np.int64, count=n)
        size = bank[0].n_lines
        slots = (locals_ + starts[regions]) % size
        slots += slots >= gaps[regions]
        return slots

    @staticmethod
    def bank_gap_wear(
        bank: Sequence["StartGapRegion"], region_writes: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Exact gap-walk wear of a bank over ``region_writes`` writes.

        Returns the per-slot wear of the whole bank (``n_lines + 1`` slots
        per region, in region order) and the total number of movements.
        """
        movements = [
            r.pending_triggers(int(w)) for r, w in zip(bank, region_writes)
        ]
        n_slots = bank[0].n_lines + 1
        wear = np.concatenate([
            gap_walk_wear(n_slots, r.gap, m) for r, m in zip(bank, movements)
        ])
        return wear, sum(movements)


class StartGap(WearLeveler):
    """Single-region Start-Gap over the whole logical space."""

    def __init__(self, n_lines: int, remap_interval: int = 100):
        self.n_lines = n_lines
        self.n_physical = n_lines + 1
        self.region = StartGapRegion(n_lines, remap_interval)

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self.region.translate(la)

    def record_write(self, la: int) -> List[Move]:
        self._check_la(la)
        move = self.region.record_write()
        if move is None:
            return []
        src, dst = move
        return [CopyMove(src=src, dst=dst)]

    # ------------------------------------------------------- batched API

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self.region.translate_many(np.asarray(las, dtype=np.int64))

    def writes_until_next_remap(self) -> int:
        return self.region.writes_until_next_remap

    def record_writes_many(self, las: np.ndarray) -> None:
        # Address-oblivious single counter; the prefix contract guarantees
        # the bulk advance stays strictly below the next trigger.
        self.region.write_count += int(las.size)

    # -------------------------------------------------- fast-forward API

    def round_wear_profile(
        self, spec: "TraceSpec", writes: int, timing: "TimingModel"
    ) -> Optional[RoundProfile]:
        """Closed-form Start-Gap round: exact movement wear + user wear.

        Movement destinations are the deterministic gap walk
        (:func:`gap_walk_wear`).  User wear under uniform traffic is
        rotation-smoothed over all ``n + 1`` slots (the mapping rotates
        one slot per ``n + 1`` movements); sequential traffic uses the
        same smoothing but deterministically discretized; zipf snapshots
        the current mapping, with ``writes`` clipped to one full rotation
        so the hot line's slot stays put within the round.  RAA is
        declined — a single hot address interacts with the moving gap at
        per-interval granularity, which is exactly what the chunk engine
        (and :mod:`repro.sim.roundsim`) already simulate efficiently.
        """
        if spec.kind == "raa":
            return None
        region = self.region
        writes = int(writes)
        n_slots = self.n_physical
        if spec.kind == "zipf":
            writes = min(writes, n_slots * region.remap_interval)
        movements = region.pending_triggers(writes)
        counts = gap_walk_wear(n_slots, region.gap, movements)
        rates: Optional[np.ndarray] = None
        exact = False
        if spec.kind == "uniform":
            rates = np.full(n_slots, writes / n_slots)
        elif spec.kind == "zipf":
            rates = self._zipf_user_wear(spec)
            rates *= writes
        else:  # sequential: deterministic aggregate, smoothed placement
            counts = counts + spread_exact(
                np.full(n_slots, writes / n_slots), writes
            )
            exact = True
        elapsed = writes * timing.write_latency(spec.data)
        elapsed += movements * timing.copy_latency(spec.data)
        return RoundProfile(
            writes,
            elapsed,
            wear_counts=counts,
            wear_rates=rates,
            exact=exact,
            meta={"movements": movements},
        )

    def apply_round(self, profile: RoundProfile) -> float:
        self.region.write_count += profile.writes
        movements = profile.meta["movements"]
        assert isinstance(movements, int)
        self.region.advance_triggers(movements)
        return profile.elapsed_ns

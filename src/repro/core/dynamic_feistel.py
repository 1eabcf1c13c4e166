"""Dynamic Feistel Network (DFN) remapping engine (Section IV-B, Figs. 8-10).

The DFN permutes the ``N``-line logical space with an S-stage Feistel
network whose stage keys are re-randomized every remapping round, so a
timing attacker can never finish recovering a key before it changes.
State (as in the paper):

* ``Gap`` register — the currently-empty slot,
* key arrays ``Kc`` (current round) and ``Kp`` (previous round), realised
  here as two :class:`~repro.core.feistel.FeistelNetwork` instances,
* one ``isRemap`` bit per line,
* one spare slot at index ``N`` used to park data while a permutation cycle
  is walked.

Round protocol.  At a round start the keys rotate (``Kp ← Kc``, fresh
``Kc``), all ``isRemap`` bits clear, and the content of slot 0 is parked in
the spare (``[N] ← [0]``, ``Gap ← 0``).  Each subsequent movement asks
"whose new home is the gap?" (``LOC = DEC_Kc(Gap)``), copies that line's
data from its old home ``ENC_Kp(LOC)`` into the gap, marks
``isRemap[LOC]``, and adopts the vacated old home as the new gap.  The walk
traces one cycle of the slot permutation ``σ = ENC_Kc ∘ DEC_Kp``; it closes
when the wanted data is the parked one, which is then copied out of the
spare (``[Gap] ← [N]``) and the gap returns to ``N``.

**Correctness + endurance corrections (deviations from the paper).**
The paper's Fig. 9 flowchart assumes ``σ`` forms a *single* cycle through
slot 0.  That is false in general — and for the paper's own cubing-Feistel
construction it fails spectacularly: the composition of two independently
keyed networks has *low order*, so ``σ`` decomposes into very many short
cycles (measured here: hundreds at 2^16 lines).  Lines on other cycles
would never be remapped, and the round-end key rotation would silently
corrupt their mapping.  Worse, the obvious fix — walking every cycle
through the spare — writes the spare once per cycle and wears it out
orders of magnitude faster than any data line.  We therefore:

1. walk the **first** cycle (through slot 0) exactly as the paper does,
   parking in the spare — one spare write per round, matching Fig. 9;
2. rotate every **further** cycle as a chain of line *swaps* (one swap per
   remap trigger), the same controller-buffered exchange Security Refresh
   is built on — no spare involvement, two line writes per swap;
3. remap **fixed points** of ``σ`` (``ENC_Kp(la) == ENC_Kc(la)``, which
   the cubing round function makes common) for free: their data already
   sits at its new home, so the trigger sets ``isRemap`` and moves nothing.

Every remap trigger still performs at most one movement (a copy or a
swap), and the paper's Fig. 10 translation rule is preserved, extended by
one register pair: the *displaced* line of an in-progress swap chain reads
from the chain's pivot slot (the analogue of the parked line reading from
the spare).

**Translation table.**  Between remap triggers the LA → IA mapping is
constant, and each trigger moves at most two lines, so translation is a
gather from one live ``int32`` table ``_ia[la]`` instead of a cipher pass
per address.  The table is filled from the Fig. 10 rule on first use and
then kept current by :meth:`DynamicFeistelMapper.step`: a remapped line
gets its new home, the parked line the spare, the displaced line the
pivot.  At a round boundary every line sits at ``ENC_Kc(la)``, which is
the next round's ``ENC_Kp(la)``, so the key rotation leaves it valid;
:meth:`DynamicFeistelMapper.advance_rounds` skips the walk and marks it
stale, to be refilled on the next translation.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.feistel import FeistelNetwork, translation_table
from repro.util.bitops import bit_length_exact
from repro.util.rng import SeedLike, as_generator
from repro.wearlevel.base import CopyMove, Move, SwapMove

#: Lines probed by :meth:`DynamicFeistelMapper.fixed_point_fraction`.
FIXED_POINT_SAMPLE = 1 << 16


class DynamicFeistelMapper:
    """Key-rotating Feistel permutation with gap-walk / swap-chain remapping.

    Addresses in / slots out are in ``[0, n_lines]`` where slot ``n_lines``
    is the spare.  :meth:`step` performs one remap trigger and returns the
    slot-level movement it requires: a :class:`CopyMove`, a
    :class:`SwapMove`, or ``None`` for a fixed-point remap.

    Parameters
    ----------
    n_lines:
        Logical lines (power of two).
    n_stages:
        Feistel stages ``S`` — the paper's adjustable security level.
    rng:
        Seed / generator for key material.
    """

    def __init__(self, n_lines: int, n_stages: int = 7, rng: SeedLike = None):
        self.n_bits = bit_length_exact(n_lines)
        self.n_lines = n_lines
        self.n_stages = n_stages
        self._rng = as_generator(rng)
        initial = FeistelNetwork.random(self.n_bits, n_stages, self._rng)
        self.feistel_c = initial
        self.feistel_p = initial
        # Boot state: behave as if a round just completed under `initial`.
        self.is_remapped = np.ones(n_lines, dtype=bool)
        self._n_remapped = n_lines
        self.gap = n_lines  # the spare slot
        self.parked_la: Optional[int] = None  # first cycle (spare walk)
        self.displaced_la: Optional[int] = None  # later cycles (swap chain)
        self.displaced_slot: Optional[int] = None
        self.round_count = 0
        self.total_movements = 0
        # Live LA -> IA table, filled on first translate.  Its storage is
        # taken here, next to the mapper's other arrays: allocated among
        # a run's temporaries instead, it fragments the heap of a process
        # that builds many mappers in turn.
        self._ia = np.empty(n_lines, dtype=np.int32)
        self._ia_live = False
        # Fixed-point fraction of the current key pair (derived state).
        self._fixed_fraction: Optional[float] = None

    # ------------------------------------------------------------- mapping

    @property
    def spare_slot(self) -> int:
        """Index of the spare (park) slot."""
        return self.n_lines

    def translate(self, la: int) -> int:
        """LA → IA slot under the current remapping state (Fig. 10)."""
        if not 0 <= la < self.n_lines:
            raise ValueError(f"address {la} outside [0, {self.n_lines})")
        return int(self._table()[la])

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` (bounds are the caller's problem)."""
        return self._table()[las].astype(np.int64)

    def _table(self) -> np.ndarray:
        """The live LA → IA table, filled from the Fig. 10 rule if stale.

        The parked and displaced lines are never marked remapped while
        their registers are live, so patching their slots in after the
        ``is_remapped`` pass never overrides a remapped line.
        """
        if not self._ia_live:
            translation_table(self._keyed_slots, self._ia)
            if self.parked_la is not None:
                self._ia[self.parked_la] = self.spare_slot
            if self.displaced_la is not None:
                self._ia[self.displaced_la] = self.displaced_slot
            self._ia_live = True
        return self._ia

    def _keyed_slots(self, las: np.ndarray) -> np.ndarray:
        """``ENC_Kc`` for remapped lines, ``ENC_Kp`` for the rest."""
        slots = np.asarray(self.feistel_c.encrypt(las))
        old = ~self.is_remapped[las]
        if old.any():
            slots[old] = self.feistel_p.encrypt(las[old])
        return slots

    def round_complete(self) -> bool:
        """True when every line has been remapped in the current round."""
        return self._n_remapped == self.n_lines

    def advance_rounds(self, rounds: int) -> None:
        """Jump ``rounds`` whole remapping rounds in one step.

        Rotates the key pair ``rounds`` times (each rotation draws fresh
        key material from this mapper's RNG, exactly as ``_begin_round``
        would) and lands on the round-boundary state: every line remapped
        under the final ``feistel_c``, gap parked at the spare, no line
        parked or displaced.  The analytic fast-forward tier uses this to
        skip the per-trigger cycle walk; ``total_movements`` is the
        caller's responsibility (it knows how many triggers it modelled).
        """
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        for _ in range(rounds):
            self.feistel_p = self.feistel_c
            self.feistel_c = self.feistel_c.rekeyed(self._rng)
        if rounds:
            self._ia_live = False
            self._fixed_fraction = None
            self.is_remapped[:] = True
            self._n_remapped = self.n_lines
            self.gap = self.n_lines
            self.parked_la = None
            self.displaced_la = None
            self.displaced_slot = None
            self.round_count += rounds

    def fixed_point_fraction(self) -> float:
        """Fraction of lines mapped identically by the old and new keys.

        Fixed points of ``σ = ENC_Kc ∘ DEC_Kp`` remap for free (no data
        movement); the cubing-Feistel composition makes them common, so
        the analytic movement-wear model measures the fraction on the
        first :data:`FIXED_POINT_SAMPLE` lines under the current key pair
        as its per-round representative.  The value is kept until the
        keys rotate.
        """
        if self._fixed_fraction is None:
            probe = np.arange(
                min(self.n_lines, FIXED_POINT_SAMPLE), dtype=np.uint64
            )
            same = np.asarray(self.feistel_c.encrypt(probe)) == np.asarray(
                self.feistel_p.encrypt(probe)
            )
            self._fixed_fraction = float(same.mean())
        return self._fixed_fraction

    # ------------------------------------------------------------ movement

    def step(self) -> Optional[Move]:
        """Perform one remap trigger; return the movement it requires.

        The mapping state visible through :meth:`translate` is updated
        before returning, consistent with the data layout once the caller
        executes the returned movement.
        """
        self.total_movements += 1
        if self.round_complete():
            return self._begin_round()
        if self.parked_la is not None:
            return self._walk_first_cycle()
        if self.displaced_la is not None:
            return self._chain_step()
        return self._begin_cycle(self._lowest_unremapped())

    # ---- round start + first cycle: the paper's spare-parked gap walk ----

    def _begin_round(self) -> Optional[Move]:
        """Rotate keys, clear isRemap, start with slot 0's resident line.

        The translation table stays as it is: every line sits at its
        ``ENC_Kc`` slot, which is the new ``ENC_Kp``.
        """
        self.feistel_p = self.feistel_c
        self.feistel_c = self.feistel_c.rekeyed(self._rng)
        self._fixed_fraction = None
        self.is_remapped[:] = False
        self._n_remapped = 0
        self.round_count += 1
        # Park slot 0's resident line in the spare ([N] <- [0], Gap <- 0),
        # per Fig. 9 — unless slot 0's resident is a fixed point.
        la = int(self.feistel_p.decrypt(0))
        if int(self.feistel_c.encrypt(la)) == 0:
            self._mark(la, 0)
            return None
        self.parked_la = la
        self._place(la, self.spare_slot)
        self.gap = 0
        return CopyMove(src=0, dst=self.spare_slot)

    def _walk_first_cycle(self) -> Move:
        loc = int(self.feistel_c.decrypt(self.gap))
        dst = self.gap
        if loc == self.parked_la:
            # Cycle closes: the wanted data sits in the spare.
            src = self.spare_slot
            self.gap = self.spare_slot
            self.parked_la = None
        else:
            src = int(self.feistel_p.encrypt(loc))
            self.gap = src
        self._mark(loc, dst)
        return CopyMove(src=src, dst=dst)

    # ---- further cycles: swap-chain rotation, no spare involvement -------

    def _begin_cycle(self, la: int) -> Optional[Move]:
        """Start remapping the cycle containing line ``la``."""
        old_home = int(self.feistel_p.encrypt(la))
        new_home = int(self.feistel_c.encrypt(la))
        if new_home == old_home:
            # Fixed point: already home under the new keys; no movement.
            self._mark(la, new_home)
            return None
        return self._swap_from_pivot(pivot=old_home, la=la, target=new_home)

    def _chain_step(self) -> Move:
        la = self.displaced_la
        target = int(self.feistel_c.encrypt(la))
        return self._swap_from_pivot(
            pivot=self.displaced_slot, la=la, target=target
        )

    def _swap_from_pivot(self, pivot: int, la: int, target: int) -> Move:
        """Swap the pivot slot (holding ``la``'s data) with ``la``'s new home.

        After the swap ``la`` is remapped; the line whose data the pivot
        received becomes the displaced line — unless the pivot happens to
        *be* its new home, which closes the cycle.
        """
        self._mark(la, target)
        displaced = int(self.feistel_p.decrypt(target))
        if int(self.feistel_c.encrypt(displaced)) == pivot:
            # The incoming data lands exactly at its own new home.
            self._mark(displaced, pivot)
            self.displaced_la = None
            self.displaced_slot = None
        else:
            self.displaced_la = displaced
            self.displaced_slot = pivot
            self._place(displaced, pivot)
        return SwapMove(pa_a=pivot, pa_b=target)

    def _mark(self, la: int, home: int) -> None:
        """Line ``la`` is remapped; its data now sits in slot ``home``."""
        self.is_remapped[la] = True
        self._n_remapped += 1
        self._place(la, home)

    def _place(self, la: int, slot: int) -> None:
        """Record in the live table (if filled) that ``la`` reads ``slot``."""
        if self._ia_live:
            self._ia[la] = slot

    def _lowest_unremapped(self) -> int:
        return int(np.argmin(self.is_remapped))

    # -------------------------------------------------------------- oracle

    def mapping_snapshot(self) -> List[int]:
        """Full LA → slot table (tests / small domains)."""
        return self._table().tolist()

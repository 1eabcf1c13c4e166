"""Common interface for wear-leveling schemes.

The split of responsibilities mirrors a real memory controller:

* the *scheme* owns the address mapping and its registers/counters;
* the *controller* (:class:`repro.sim.memory_system.MemoryController`) owns
  the PCM array and executes the data movements the scheme requests,
  accounting wear and — crucially for the Remapping Timing Attack — latency.

``record_write`` returns the movements triggered by one logical write.  The
scheme's mapping state is already updated when the movements are returned,
so the caller must execute them (in order) before translating the write.
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pcm.timing import TimingModel
    from repro.sim.trace import TraceSpec


@dataclass(frozen=True)
class CopyMove:
    """Copy the content of physical line ``src`` to physical line ``dst``.

    Cost model (Fig. 4a): one read of ``src`` plus one write of ``dst`` with
    ``src``'s data — 250 ns for ALL-0 content, 1125 ns otherwise.
    """

    src: int
    dst: int


@dataclass(frozen=True)
class SwapMove:
    """Exchange the contents of two physical lines (Security Refresh).

    Cost model (Fig. 4b): two reads plus two writes — 500/1375/2250 ns
    depending on the two contents.
    """

    pa_a: int
    pa_b: int


Move = Union[CopyMove, SwapMove]


def spread_exact(expected: np.ndarray, total: int) -> np.ndarray:
    """Integer wear counts summing to ``total`` that round ``expected``.

    Floor each slot's expected count, then hand the remaining units to the
    slots with the largest fractional parts (ties broken by lower index).
    This is the "two-pass-exact" discretization the deterministic trace
    kinds (sequential, RAA) use: the aggregate is exact and no slot is off
    by more than one write.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    floors = np.floor(expected).astype(np.int64)
    short = total - int(floors.sum())
    if short < 0:
        raise ValueError("expected counts sum above total")
    if short > 0:
        frac = expected - floors
        top = np.argsort(-frac, kind="stable")[:short]
        floors[top] += 1
    return floors


@dataclass(frozen=True)
class RoundProfile:
    """Closed-form wear increment for a run of remap rounds.

    Produced by :meth:`WearLeveler.round_wear_profile` and committed by
    :meth:`WearLeveler.apply_round`.  The profile describes what ``writes``
    logical writes of a known trace distribution do to the device while the
    scheme's mapping evolves through zero or more remap rounds:

    ``wear_counts``
        Dense per-PA *exact* wear (``int64``, length ``n_physical``) — the
        deterministic part: remap movement wear and deterministic trace
        kinds (sequential sweeps, RAA).  ``None`` means all-zero.
    ``wear_rates``
        Dense per-PA *expected* wear (``float64``) for the stochastic part
        of the round; the driver draws ``Poisson(wear_rates)`` so per-line
        wear keeps its natural balls-into-bins fluctuations.  ``None``
        means the profile is fully deterministic (``exact`` is then True).
    ``elapsed_ns``
        Expected simulated time for the round: user-write latency plus
        remap movement latency, computed from the controller's timing
        model.  Returned again by ``apply_round`` so callers account it.
    ``meta``
        Scheme-private advance payload (movement counts, completed rounds)
        carried from profile construction to :meth:`apply_round`.
    """

    writes: int
    elapsed_ns: float
    wear_counts: Optional[np.ndarray] = None
    wear_rates: Optional[np.ndarray] = None
    exact: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.writes <= 0:
            raise ValueError(f"profile writes must be > 0, got {self.writes}")
        if self.wear_counts is None and self.wear_rates is None:
            raise ValueError("profile needs wear_counts and/or wear_rates")


class WearLeveler(abc.ABC):
    """Base class for all wear-leveling schemes.

    Attributes
    ----------
    n_lines:
        Number of logical lines the scheme exposes.
    n_physical:
        Number of physical lines the scheme requires (logical lines plus
        any gap/spare lines).
    """

    n_lines: int
    n_physical: int

    @abc.abstractmethod
    def translate(self, la: int) -> int:
        """Map logical address ``la`` to its current physical address."""

    @abc.abstractmethod
    def record_write(self, la: int) -> List[Move]:
        """Account one logical write to ``la``; return triggered movements.

        The returned movements reflect remappings whose effect is *already*
        visible through :meth:`translate`.
        """

    # ------------------------------------------------------- batched API
    #
    # The fast simulation engine exploits the schemes' shared structure:
    # between remap triggers the LA→PA mapping is *static*, so a chunk of
    # writes can be translated and accounted as numpy array operations.
    # The contract has three parts; `consume_chunk` composes them and is
    # what the controller actually calls.

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`translate` of in-range addresses.

        The default loops the scalar method (correct for any scheme);
        every shipped scheme overrides it with array arithmetic.  Bounds
        are the caller's responsibility (the controller validates whole
        chunks at once).
        """
        return np.fromiter(
            (self.translate(int(la)) for la in las),
            dtype=np.int64,
            count=int(las.size),
        )

    def writes_until_next_remap(self) -> int:
        """``k``: the ``k``-th next write *may* trigger a remap.

        The first ``k - 1`` writes are guaranteed remap-free regardless of
        their addresses.  The base class returns 1 — "the very next write
        may remap" — the *conservative fallback*: always safe, and it makes
        the chunk engine degrade transparently to the scalar path one write
        at a time.  Schemes with countable triggers return their real
        counter distance; region-partitioned schemes return a conservative
        minimum here and do the exact per-address split in
        :meth:`consume_chunk`.

        The analytic fast-forward tier mirrors exactly this contract one
        level up: :meth:`round_wear_profile` returning ``None`` is the
        round-granular analogue of returning 1 here — "I cannot promise
        anything about whole rounds; drive me through the chunk (and
        ultimately scalar) path instead."  A scheme that overrides neither
        method still simulates correctly, just without the speedups.
        """
        return 1

    # -------------------------------------------------- fast-forward API
    #
    # One more rung up the same ladder: between remap *events* the mapping
    # is static (the chunk contract above), and across a whole remap
    # *round* the wear deposited by a known trace distribution has a
    # closed form.  `round_wear_profile` returns that closed form as a
    # dense per-PA increment (exact counts, expected rates, or both) and
    # `apply_round` commits the matching mapping-state jump.  See
    # repro.sim.fastforward for the driver and docs/performance.md for
    # the error-bound model.

    def round_wear_profile(
        self,
        spec: "TraceSpec",
        writes: int,
        timing: "TimingModel",
    ) -> Optional[RoundProfile]:
        """Closed-form wear profile for ``writes`` writes of ``spec``.

        Returns ``None`` — the conservative fallback mirroring the base
        :meth:`writes_until_next_remap` contract — when the scheme cannot
        (or chooses not to) describe the requested trace analytically; the
        fast-forward driver then drops back to the chunk-exact engine,
        which is always correct.  Schemes that do return a profile may
        clip ``profile.writes`` below the requested ``writes`` (e.g. to a
        key-rotation boundary); the driver honors the clip.
        """
        return None

    def apply_round(self, profile: RoundProfile) -> float:
        """Commit the mapping-state jump described by ``profile``.

        Called by the fast-forward driver *after* the wear increment was
        accepted by :meth:`repro.pcm.array.PCMArray.apply_wear_bulk`.
        Returns the round's ``elapsed_ns`` — simulated latency the caller
        must account, exactly like the scalar/batched write paths.  The
        base class raises: a scheme that never returns a profile from
        :meth:`round_wear_profile` is never asked to apply one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} returned no round profile; "
            "apply_round must not be called"
        )

    def record_writes_many(self, las: np.ndarray) -> None:
        """Account a run of writes *known* to trigger no remap.

        Only valid for the remap-free prefix established by
        :meth:`writes_until_next_remap` / :meth:`consume_chunk`.  The
        default loops :meth:`record_write` and insists nothing fires.
        """
        for la in las:
            if self.record_write(int(la)):
                raise RuntimeError(
                    "record_writes_many crossed a remap trigger; "
                    "writes_until_next_remap over-promised"
                )

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """Translate and account the longest remap-free prefix of ``las``.

        Returns ``(pas, n)``: physical addresses of the first ``n`` writes,
        whose counters are now advanced.  ``n == 0`` means the very next
        write may remap — the caller must issue it through the scalar
        :meth:`record_write`/:meth:`translate` path (executing any
        movements), then try the next chunk.

        Translation happens against the pre-chunk state, which equals the
        per-write state because no remap fires inside the prefix — the
        static-mapping invariant the fast engine is built on.
        """
        n = min(int(las.size), self.writes_until_next_remap() - 1)
        if n <= 0:
            return np.empty(0, dtype=np.int64), 0
        prefix = las[:n]
        pas = self.translate_many(prefix)
        self.record_writes_many(prefix)
        return pas, n

    # ------------------------------------------------------------- helpers

    def _zipf_user_wear(self, spec: "TraceSpec") -> np.ndarray:
        """Per-PA share of one zipf write under the current mapping.

        One snapshot of :meth:`translate_many` over every LA, weighted by
        the trace's zipf probabilities; the closed-form round profiles
        scale it by the round's writes.
        """
        weights = spec.weights()
        assert weights is not None
        user = np.zeros(self.n_physical)
        np.add.at(
            user,
            self.translate_many(np.arange(self.n_lines, dtype=np.int64)),
            weights,
        )
        return user

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.n_lines:
            raise ValueError(f"logical address {la} outside [0, {self.n_lines})")

    def mapping_snapshot(self) -> List[int]:
        """Full LA→PA table under the current state (tests / small configs)."""
        return [self.translate(la) for la in range(self.n_lines)]


def grouped_cumcount(groups: np.ndarray) -> np.ndarray:
    """Occurrence number (0-based) of each element within its group.

    ``grouped_cumcount([3, 1, 3, 3, 1]) == [0, 0, 1, 2, 1]``.  This is the
    primitive :meth:`RegionPartitionedScheme.consume_chunk` uses to find
    the first write of a chunk that reaches a region's remap trigger:
    element ``i`` is its region's ``occ[i]``-th write in the chunk.
    """
    n = int(groups.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    positions = np.arange(n, dtype=np.int64)
    group_start = positions.copy()
    group_start[1:] = np.where(
        sorted_groups[1:] != sorted_groups[:-1], positions[1:], 0
    )
    np.maximum.accumulate(group_start, out=group_start)
    occ = np.empty(n, dtype=np.int64)
    occ[order] = positions - group_start
    return occ


class RegionEngine(Protocol):
    """Per-region engine (Start-Gap or Security Refresh) of a region layer.

    Both engines count their region's writes behind one counter API, so
    :class:`RegionPartitionedScheme` drives either without knowing which.
    ``gap_slots`` is the number of physical slots a region owns beyond
    its data lines (Start-Gap's gap line).
    """

    gap_slots: int
    n_lines: int
    write_count: int

    def translate(self, la: int) -> int: ...

    @property
    def writes_until_next_remap(self) -> int: ...

    def pending_triggers(self, writes: int) -> int: ...

    def advance_triggers(self, triggers: int) -> None: ...

    @staticmethod
    def translate_bank(
        bank: Sequence[Any], regions: np.ndarray, locals_: np.ndarray
    ) -> np.ndarray: ...


class RegionPartitionedScheme(WearLeveler):
    """An outer LA→IA stage over equal IA regions, one engine per region.

    RBSG (static randomizer over Start-Gap regions), Security RBSG
    (dynamic Feistel network over Start-Gap regions), two-level SR (an
    outer SR region over SR regions) and Multi-Way SR (the identity over
    SR regions) all have this shape.  The IA space ``[0, n_lines)`` is
    cut into ``len(regions)`` contiguous regions of ``_size`` addresses;
    region ``r`` owns the physical slots ``[r * _stride, (r + 1) *
    _stride)`` — its data lines plus a Start-Gap gap line, if any.  IA
    ``n_lines``, one past the last region, is the outer stage's spare
    slot (Security RBSG's DFN park slot) and maps to the physical line
    right after the last region.

    This class owns the placement (scalar and vectorized), the exact
    chunk split and the regions' half of a fast-forward round.  A
    subclass supplies the outer stage through four hooks —
    :meth:`_outer_ia` / :meth:`_outer_ias` (LA→IA), and for an outer
    stage with its own remap trigger :meth:`_outer_left` /
    :meth:`_outer_count` — plus its scalar ``record_write`` and its
    ``round_wear_profile``, which must put the per-region write counts
    in ``meta["region_writes"]``.
    """

    regions: List[Any]

    def __init__(
        self,
        n_lines: int,
        n_regions: int,
        engine: Type[RegionEngine],
        spare_slot: bool = False,
        count_name: str = "n_regions",
    ) -> None:
        if n_regions < 1 or n_lines % n_regions != 0:
            raise ValueError(
                f"{count_name} ({n_regions}) must divide n_lines ({n_lines})"
            )
        self.n_lines = n_lines
        self._engine = engine
        self._size = n_lines // n_regions
        self._stride = self._size + engine.gap_slots
        self._spare_pa = n_regions * self._stride
        self.n_physical = self._spare_pa + int(spare_slot)

    # ---------------------------------------------------------- outer stage

    @abc.abstractmethod
    def _outer_ia(self, la: int) -> int:
        """Outer LA → IA mapping of one address."""

    @abc.abstractmethod
    def _outer_ias(self, las: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_outer_ia`."""

    def _outer_left(self) -> int:
        """Writes until the outer stage's next remap may fire.

        The default is a static outer stage, which never remaps.
        """
        return sys.maxsize

    def _outer_count(self, writes: int) -> None:
        """Advance the outer stage's write counter over a remap-free run."""

    # ------------------------------------------------------------- mapping

    def _phys_of_ia(self, ia: int) -> int:
        """IA slot (``n_lines`` = outer spare slot) to physical line."""
        region, local = divmod(ia, self._size)
        if region == len(self.regions):
            return self._spare_pa
        return region * self._stride + self.regions[region].translate(local)

    def _phys_of_ias(self, ias: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_phys_of_ia` (spare slot handled by patch)."""
        regions = ias // self._size
        spare = regions == len(self.regions)
        regions = np.where(spare, 0, regions)
        pas = regions * self._stride + self._engine.translate_bank(
            self.regions, regions, ias % self._size
        )
        pas[spare] = self._spare_pa
        return pas

    def translate(self, la: int) -> int:
        self._check_la(la)
        return self._phys_of_ia(self._outer_ia(la))

    # ------------------------------------------------------- batched API

    def translate_many(self, las: np.ndarray) -> np.ndarray:
        return self._phys_of_ias(self._outer_ias(las))

    def writes_until_next_remap(self) -> int:
        # Conservative (any region's trigger might be hit first); the
        # exact per-address split lives in consume_chunk.
        return min(
            self._outer_left(),
            min(r.writes_until_next_remap for r in self.regions),
        )

    def consume_chunk(self, las: np.ndarray) -> Tuple[np.ndarray, int]:
        """Exact split: stop right before the first write that remaps.

        The prefix ends strictly before the outer trigger (every write
        counts there) *and* before the first write whose occurrence
        number within its region — a grouped cumcount, not a global
        minimum — reaches that region's remaining count.  This is what
        keeps chunks long under spread-out traffic.  Writes to the outer
        spare slot advance no region counter, exactly as the scalar
        ``record_write`` skips them.
        """
        limit = min(int(las.size), self._outer_left() - 1)
        if limit <= 0:
            return np.empty(0, dtype=np.int64), 0
        n_regions = len(self.regions)
        remaining = np.fromiter(
            (r.writes_until_next_remap for r in self.regions),
            dtype=np.int64,
            count=n_regions,
        )
        # The call right after a remap sees the trigger at index 0; one
        # scalar outer translate answers that without scanning a window.
        first = self._outer_ia(int(las[0])) // self._size
        if first < n_regions and remaining[first] <= 1:
            return np.empty(0, dtype=np.int64), 0
        # Cap the scan window at sum(remaining): by pigeonhole a window
        # that long always contains a trigger, so one scan per remap
        # cycle suffices — while scanning further than that only
        # re-translates and re-sorts tail writes a later call must redo.
        # Spare-slot writes only stretch the run, never trigger in it.
        limit = min(limit, max(int(remaining.sum()), 1))
        ias = self._outer_ias(np.asarray(las[:limit], dtype=np.int64))
        regions = ias // self._size
        # Spare-slot writes form group n_regions, whose remaining count
        # no occurrence number in the window can reach.
        remaining = np.append(remaining, limit + 1)
        trigger = np.nonzero(grouped_cumcount(regions) + 1 >= remaining[regions])[0]
        n = int(trigger[0]) if trigger.size else limit
        pas = self._phys_of_ias(ias[:n])
        self._outer_count(n)
        counts = np.bincount(regions[:n], minlength=n_regions + 1)
        for r in np.nonzero(counts[:n_regions])[0]:
            self.regions[int(r)].write_count += int(counts[r])
        return pas, n

    # -------------------------------------------------- fast-forward API

    def apply_round(self, profile: RoundProfile) -> float:
        """Advance every region over its ``meta["region_writes"]``."""
        region_writes = profile.meta["region_writes"]
        assert isinstance(region_writes, np.ndarray)
        for region, w_r in zip(self.regions, region_writes):
            triggers = region.pending_triggers(int(w_r))
            region.write_count += int(w_r)
            region.advance_triggers(triggers)
        return profile.elapsed_ns

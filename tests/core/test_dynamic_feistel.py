"""Tests for the Dynamic Feistel Network remapping engine (Figs. 8-10).

The load-bearing invariant: at *every* point of the gap walk, the algebraic
translation (Kc/Kp selected by the isRemap bit, park slot for the parked
line) must agree with where the data actually sits after executing the
returned copies — checked here against an explicit slot-content shadow.
The batched translation is also checked against the Fig. 10 rule
recomputed here from the mapper's registers.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_feistel import DynamicFeistelMapper
from repro.wearlevel.base import CopyMove, SwapMove


def fig10_slots(mapper):
    """The Fig. 10 rule: ENC_Kc if isRemap else ENC_Kp, registers patched."""
    las = np.arange(mapper.n_lines, dtype=np.uint64)
    slots = np.where(
        mapper.is_remapped,
        mapper.feistel_c.encrypt(las),
        mapper.feistel_p.encrypt(las),
    ).astype(np.int64)
    if mapper.parked_la is not None:
        slots[mapper.parked_la] = mapper.spare_slot
    if mapper.displaced_la is not None:
        slots[mapper.displaced_la] = mapper.displaced_slot
    return slots


class ShadowMemory:
    """Executes DFN copies on explicit slot contents."""

    def __init__(self, n_lines):
        self.slots = [None] * (n_lines + 1)

    def seed(self, mapper):
        # From the rule, not from translate, so the mapper's first
        # translation happens wherever the test first checks it.
        for la, slot in enumerate(fig10_slots(mapper)):
            self.slots[slot] = la

    def apply(self, move):
        if move is None:
            return
        if isinstance(move, CopyMove):
            self.slots[move.dst] = self.slots[move.src]
        else:
            a, b = move.pa_a, move.pa_b
            self.slots[a], self.slots[b] = self.slots[b], self.slots[a]


def check_consistency(mapper, shadow):
    seen = set()
    for la in range(mapper.n_lines):
        slot = mapper.translate(la)
        assert shadow.slots[slot] == la, (
            f"LA {la}: translate says slot {slot}, but it holds "
            f"{shadow.slots[slot]}"
        )
        assert slot not in seen
        seen.add(slot)
    batched = mapper.translate_many(np.arange(mapper.n_lines))
    np.testing.assert_array_equal(batched, fig10_slots(mapper))


class TestBootState:
    def test_boot_is_completed_round(self):
        mapper = DynamicFeistelMapper(16, n_stages=3, rng=0)
        assert mapper.round_complete()
        assert mapper.gap == mapper.spare_slot == 16
        assert mapper.round_count == 0

    def test_boot_translation_is_bijection(self):
        mapper = DynamicFeistelMapper(32, n_stages=5, rng=1)
        table = mapper.mapping_snapshot()
        assert sorted(table) == list(range(32))

    def test_domain_check(self):
        mapper = DynamicFeistelMapper(8, rng=0)
        with pytest.raises(ValueError):
            mapper.translate(8)
        with pytest.raises(ValueError):
            mapper.translate(-1)


class TestRemappingRound:
    @pytest.mark.parametrize("n_lines,stages,seed", [
        (8, 3, 0), (8, 3, 1), (16, 5, 2), (32, 7, 3), (64, 2, 4),
    ])
    def test_consistency_through_rounds(self, n_lines, stages, seed):
        """Shadow-checked: three full rounds, every single movement."""
        mapper = DynamicFeistelMapper(n_lines, n_stages=stages, rng=seed)
        shadow = ShadowMemory(n_lines)
        shadow.seed(mapper)
        rounds_done = 0
        steps = 0
        while rounds_done < 3:
            shadow.apply(mapper.step())
            check_consistency(mapper, shadow)
            steps += 1
            if mapper.round_complete():
                rounds_done += 1
                # Mapping now fully under the new keys.
                for la in range(n_lines):
                    assert mapper.translate(la) == mapper.feistel_c.encrypt(la)
        # Each round costs at least ~N/2 triggers (2-cycles cost 1 swap).
        assert steps >= 3 * (n_lines // 2)

    def test_round_cost_matches_cycle_structure(self):
        """Round triggers: first cycle costs k0+1 copies (spare walk),
        every further non-fixed cycle of length k costs k-1 swaps, fixed
        points cost one free trigger each."""
        mapper = DynamicFeistelMapper(32, n_stages=3, rng=7)
        first = mapper.step()  # begins the round (keys rotated inside)
        perm = [
            int(mapper.feistel_p.encrypt(int(mapper.feistel_c.decrypt(s))))
            for s in range(32)
        ]
        seen = [False] * 32
        lengths = []
        for start in range(32):
            if seen[start]:
                continue
            length = 0
            s = start
            while not seen[s]:
                seen[s] = True
                s = perm[s]
                length += 1
            lengths.append((start, length))
        expected = 0
        for st, ln in lengths:
            if self._in_cycle(perm, st, ln, 0):
                expected += 1 if ln == 1 else ln + 1  # park + walk
            elif ln == 1:
                expected += 1  # fixed point, free
            else:
                expected += ln - 1  # swap chain
        steps = 1
        while not mapper.round_complete():
            mapper.step()
            steps += 1
        assert steps == expected

    @staticmethod
    def _in_cycle(perm, start, length, slot):
        s = start
        for _ in range(length):
            if s == slot:
                return True
            s = perm[s]
        return False

    def test_fixed_points_need_no_movement(self):
        """A fixed-point trigger returns None and marks the line remapped."""
        mapper = DynamicFeistelMapper(64, n_stages=2, rng=13)
        saw_fixed = False
        for _ in range(5 * 70):
            before = int(mapper._n_remapped)
            move = mapper.step()
            if move is None:
                saw_fixed = True
                after = int(mapper._n_remapped)
                assert after == 1 or after == before + 1
        # With 2 stages at 6 bits, fixed points are common enough to appear.
        assert saw_fixed

    def test_spare_wear_bounded_per_round(self):
        """At most one spare write per round — the endurance fix for the
        multi-cycle permutation structure."""
        mapper = DynamicFeistelMapper(64, n_stages=3, rng=14)
        spare_writes = 0
        rounds = 0
        while rounds < 10:
            move = mapper.step()
            if isinstance(move, CopyMove) and move.dst == mapper.spare_slot:
                spare_writes += 1
            if isinstance(move, SwapMove):
                assert mapper.spare_slot not in (move.pa_a, move.pa_b)
            if mapper.round_complete():
                rounds += 1
        assert spare_writes <= 10

    def test_all_lines_remapped_each_round(self):
        mapper = DynamicFeistelMapper(16, n_stages=4, rng=9)
        mapper.step()
        while not mapper.round_complete():
            mapper.step()
        assert mapper.is_remapped.all()

    def test_key_rotation(self):
        mapper = DynamicFeistelMapper(16, n_stages=4, rng=10)
        old_current = mapper.feistel_c
        mapper.step()  # round start
        assert mapper.feistel_p is old_current
        assert mapper.feistel_c is not old_current

    def test_round_counter(self):
        mapper = DynamicFeistelMapper(8, n_stages=3, rng=11)
        for expected in (1, 2, 3):
            mapper.step()
            while not mapper.round_complete():
                mapper.step()
            assert mapper.round_count == expected


class TestParkedLine:
    def test_parked_line_reads_from_spare(self):
        mapper = DynamicFeistelMapper(16, n_stages=3, rng=12)
        # Step until a cycle actually parks a line (fixed points don't).
        for _ in range(200):
            move = mapper.step()
            if mapper.parked_la is not None:
                break
        assert isinstance(move, CopyMove)
        assert move.dst == mapper.spare_slot
        parked = mapper.parked_la
        assert mapper.translate(parked) == mapper.spare_slot


class TestTranslationTable:
    @pytest.mark.parametrize("register", ["parked_la", "displaced_la"])
    def test_first_translate_mid_round(self, register):
        """Nothing is translated until a parked or displaced line is live;
        translation must then agree with the data, and keep agreeing."""
        mapper = DynamicFeistelMapper(64, n_stages=3, rng=21)
        shadow = ShadowMemory(64)
        shadow.seed(mapper)
        for _ in range(500):
            shadow.apply(mapper.step())
            if getattr(mapper, register) is not None:
                break
        assert getattr(mapper, register) is not None
        check_consistency(mapper, shadow)
        for _ in range(100):
            shadow.apply(mapper.step())
            check_consistency(mapper, shadow)

    def test_translate_after_advance_rounds(self):
        mapper = DynamicFeistelMapper(64, n_stages=3, rng=22)
        for _ in range(40):
            mapper.step()
        mapper.translate(0)  # first translation mid-round
        mapper.advance_rounds(2)
        expected = mapper.feistel_c.encrypt(np.arange(64, dtype=np.uint64))
        assert mapper.mapping_snapshot() == expected.tolist()
        # The jump lands on the boundary layout; remapping on from it
        # must track the data.
        shadow = ShadowMemory(64)
        shadow.seed(mapper)
        check_consistency(mapper, shadow)
        for _ in range(100):
            shadow.apply(mapper.step())
            check_consistency(mapper, shadow)

    def test_first_translate_many_memory(self):
        """The 2^20-line table is filled blockwise: at most its own 4 B
        per line plus 2 MiB of temporaries, never whole-domain cipher
        passes."""
        n_lines = 1 << 20
        mapper = DynamicFeistelMapper(n_lines, rng=0)
        tracemalloc.start()
        try:
            mapper.translate_many(np.arange(128, dtype=np.int64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n_lines + (2 << 20)


class TestFixedPointFraction:
    @staticmethod
    def _rotate(mapper, how):
        if how == "advance":
            mapper.advance_rounds(1)
            return
        mapper.step()  # begins a round: the keys rotate
        while not mapper.round_complete():
            mapper.step()

    @pytest.mark.parametrize("how", ["step", "advance"])
    def test_value_follows_key_rotation(self, how):
        """Across rotations the (kept) value equals a first computation on
        an identically seeded mapper and the fraction of the key pair."""
        mapper = DynamicFeistelMapper(64, n_stages=2, rng=13)
        probe = np.arange(64, dtype=np.uint64)
        values = []
        for rotations in range(4):
            twin = DynamicFeistelMapper(64, n_stages=2, rng=13)
            for _ in range(rotations):
                self._rotate(twin, how)
            value = mapper.fixed_point_fraction()
            assert mapper.fixed_point_fraction() == value
            assert twin.fixed_point_fraction() == value
            same = mapper.feistel_c.encrypt(probe) == mapper.feistel_p.encrypt(
                probe
            )
            assert value == float(same.mean())
            values.append(value)
            self._rotate(mapper, how)
        assert len(set(values)) > 1


@settings(max_examples=20, deadline=None)
@given(
    n_bits=st.integers(2, 6),
    stages=st.integers(1, 7),
    seed=st.integers(0, 2**31),
    n_steps=st.integers(1, 120),
)
def test_consistency_property(n_bits, stages, seed, n_steps):
    """Arbitrary step counts never break translation/data agreement."""
    n_lines = 1 << n_bits
    mapper = DynamicFeistelMapper(n_lines, n_stages=stages, rng=seed)
    shadow = ShadowMemory(n_lines)
    shadow.seed(mapper)
    for _ in range(n_steps):
        shadow.apply(mapper.step())
    check_consistency(mapper, shadow)

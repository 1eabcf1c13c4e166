"""Tests for Start-Gap, including the paper's Fig. 2 walkthrough."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wearlevel.base import CopyMove
from repro.wearlevel.startgap import StartGap, StartGapRegion


class TestFig2Walkthrough:
    """Reproduce Fig. 2 exactly: 8 lines, one remapping round."""

    def test_initial_state(self):
        region = StartGapRegion(8, 1)
        assert region.gap == 8
        assert [region.translate(i) for i in range(8)] == list(range(8))

    def test_first_movement(self):
        region = StartGapRegion(8, 1)
        src, dst = region.gap_movement()
        assert (src, dst) == (7, 8)  # IA7's content moves into the gap line
        assert region.gap == 7
        assert region.translate(7) == 8
        assert region.translate(6) == 6

    def test_eighth_movement_full_shift(self):
        region = StartGapRegion(8, 1)
        for _ in range(8):
            region.gap_movement()
        assert region.gap == 0
        assert [region.translate(i) for i in range(8)] == list(range(1, 9))

    def test_round_wrap_increments_start(self):
        region = StartGapRegion(8, 1)
        for _ in range(8):
            region.gap_movement()
        src, dst = region.gap_movement()  # the wrap movement
        assert (src, dst) == (8, 0)
        assert region.gap == 8
        assert region.start == 1
        # Fig. 2(d): IA7 now at slot 0, IA0 at slot 1, ...
        assert region.translate(7) == 0
        assert [region.translate(i) for i in range(7)] == list(range(1, 8))


class TestStartGapRegion:
    def test_interval_counts_writes(self):
        region = StartGapRegion(8, 4)
        assert region.record_write() is None
        assert region.record_write() is None
        assert region.record_write() is None
        assert region.record_write() is not None  # 4th write triggers

    def test_writes_until_next_movement(self):
        region = StartGapRegion(8, 5)
        assert region.writes_until_next_remap == 5
        region.record_write()
        assert region.writes_until_next_remap == 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StartGapRegion(0, 1)
        with pytest.raises(ValueError):
            StartGapRegion(8, 0)

    def test_translate_range_check(self):
        region = StartGapRegion(8, 1)
        with pytest.raises(ValueError):
            region.translate(8)

    @settings(max_examples=40, deadline=None)
    @given(
        n_lines=st.integers(2, 40),
        movements=st.integers(0, 200),
    )
    def test_translation_always_bijective_avoiding_gap(self, n_lines, movements):
        region = StartGapRegion(n_lines, 1)
        for _ in range(movements):
            region.gap_movement()
        slots = [region.translate(i) for i in range(n_lines)]
        assert len(set(slots)) == n_lines
        assert region.gap not in slots
        assert all(0 <= s <= n_lines for s in slots)

    def test_data_follows_movements(self):
        """Shadow check: slot contents always match translate()."""
        n = 10
        region = StartGapRegion(n, 1)
        slots = [None] * (n + 1)
        for ia in range(n):
            slots[region.translate(ia)] = ia
        for _ in range(3 * (n + 1) + 5):
            src, dst = region.gap_movement()
            slots[dst] = slots[src]
            for ia in range(n):
                assert slots[region.translate(ia)] == ia

    def test_full_rotation_returns_to_start(self):
        """After n*(n+1) movements every line has cycled home."""
        n = 6
        region = StartGapRegion(n, 1)
        initial = [region.translate(i) for i in range(n)]
        for _ in range(n * (n + 1)):
            region.gap_movement()
        assert [region.translate(i) for i in range(n)] == initial


class TestStartGapScheme:
    def test_physical_size(self):
        assert StartGap(16, 4).n_physical == 17

    def test_record_write_returns_copy_moves(self):
        scheme = StartGap(8, 2)
        assert scheme.record_write(0) == []
        moves = scheme.record_write(0)
        assert len(moves) == 1
        assert isinstance(moves[0], CopyMove)

    def test_la_check(self):
        scheme = StartGap(8, 2)
        with pytest.raises(ValueError):
            scheme.translate(8)
        with pytest.raises(ValueError):
            scheme.record_write(-1)

    def test_lvf_bounded(self):
        """A hammered LA moves at least once per (n+1)*interval writes —
        the Line Vulnerability Factor of Start-Gap."""
        scheme = StartGap(8, 3)
        pa_history = {scheme.translate(5)}
        for _ in range((8 + 1) * 3):
            scheme.record_write(5)
            pa_history.add(scheme.translate(5))
        assert len(pa_history) >= 2

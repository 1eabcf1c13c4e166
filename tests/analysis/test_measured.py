"""Tests for the measured (simulator-driven) analysis entry points."""

import pytest

from repro.analysis import measured_lifetime_ns, measured_write_overhead
from repro.config import PCMConfig
from repro.sim.trace import TraceSpec
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.startgap import StartGap


class TestMeasuredLifetime:
    def test_raa_on_nowl_is_exact(self):
        pcm = PCMConfig(n_lines=64, endurance=100)
        ns = measured_lifetime_ns(
            NoWearLeveling(64), pcm, TraceSpec("raa", 64, target=5)
        )
        # 100 writes of ALL1 at 1000 ns each wear the line out.
        assert ns == pytest.approx(100 * 1000.0)

    def test_fast_and_scalar_agree(self):
        results = []
        for fast in (True, False):
            pcm = PCMConfig(n_lines=64, endurance=200)
            results.append(measured_lifetime_ns(
                StartGap(64, remap_interval=16), pcm,
                TraceSpec("uniform", 64, seed=1),
                max_writes=200_000, fast=fast,
            ))
        assert results[0] == results[1]

    def test_returns_failure(self):
        """Both engines stop at the first failure and report its time."""
        for fast in (True, False):
            pcm = PCMConfig(n_lines=16, endurance=5)
            ns = measured_lifetime_ns(
                NoWearLeveling(16), pcm, TraceSpec("raa", 16, target=1),
                max_writes=100, fast=fast,
            )
            assert ns == pytest.approx(5 * 1000.0)

    def test_raises_when_device_survives(self):
        pcm = PCMConfig(n_lines=64, endurance=1e9)
        with pytest.raises(RuntimeError, match="did not fail"):
            measured_lifetime_ns(
                NoWearLeveling(64), pcm,
                TraceSpec("uniform", 64, seed=0), max_writes=1000,
            )


class TestMeasuredOverhead:
    def test_start_gap_amplification(self):
        pcm = PCMConfig(n_lines=64, endurance=1e9)
        result = measured_write_overhead(
            StartGap(64, remap_interval=2), pcm,
            TraceSpec("raa", 64, target=0), max_writes=1000,
        )
        # One remap copy per 2 user writes -> amplification 1.5.
        assert result.write_amplification == pytest.approx(1.5)

    def test_nowl_has_no_overhead(self):
        pcm = PCMConfig(n_lines=64, endurance=1e9)
        result = measured_write_overhead(
            NoWearLeveling(64), pcm,
            TraceSpec("uniform", 64, seed=2), max_writes=5000,
        )
        assert result.write_amplification == 1.0
        assert result.user_writes == 5000

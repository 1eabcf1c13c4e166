"""Tests for the online attack detector."""

import numpy as np
import pytest

from repro.defense.attack_detector import OnlineAttackDetector
from repro.sim.trace import TraceSpec, trace_entries


class TestValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            OnlineAttackDetector(window=0)
        with pytest.raises(ValueError):
            OnlineAttackDetector(threshold=0.0)
        with pytest.raises(ValueError):
            OnlineAttackDetector(top_k=0)


class TestDetection:
    def test_raa_stream_detected(self):
        detector = OnlineAttackDetector(window=256)
        alarmed = [detector.record(5) for _ in range(300)]
        assert any(alarmed)
        # Once the window is full of the same address, always alarmed.
        assert all(alarmed[256:])

    def test_rotating_small_set_detected(self):
        """A delayed-write-buffer-cycling attacker rotates over a few
        lines — caught by the pooled top-k."""
        detector = OnlineAttackDetector(window=256, top_k=4)
        alarmed = False
        for i in range(1000):
            alarmed |= detector.record(i % 3)
        assert alarmed

    def test_uniform_traffic_clean(self):
        detector = OnlineAttackDetector(window=512)
        for entry in trace_entries(TraceSpec("uniform", 4096, 5000, seed=0)):
            assert not detector.record(entry.la)

    def test_zipf_traffic_clean(self):
        """Even heavily skewed benign traffic stays under the default
        threshold (zipf-1.1's top-4 share is ~26 %, attacks are ~100 %)."""
        detector = OnlineAttackDetector(window=512)
        alarms = sum(
            detector.record(entry.la)
            for entry in trace_entries(
                TraceSpec("zipf", 4096, 5000, alpha=1.1, seed=1)
            )
        )
        assert alarms == 0

    def test_warmup_never_alarms(self):
        detector = OnlineAttackDetector(window=1000)
        assert not any(detector.record(0) for _ in range(999))

    def test_reset(self):
        detector = OnlineAttackDetector(window=64)
        for _ in range(100):
            detector.record(1)
        detector.reset()
        assert detector.concentration == 0.0
        assert not detector.record(1)

    def test_concentration_diagnostic(self):
        detector = OnlineAttackDetector(window=100, top_k=1)
        for i in range(100):
            detector.record(i % 2)
        assert detector.concentration == pytest.approx(0.5)

    def test_recovers_after_attack_stops(self):
        detector = OnlineAttackDetector(window=128)
        for _ in range(200):
            detector.record(7)
        rng = np.random.default_rng(2)
        clean_tail = [
            detector.record(int(rng.integers(0, 4096))) for _ in range(300)
        ]
        assert not clean_tail[-1]

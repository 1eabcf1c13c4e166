"""Failure-injection tests: behaviour at and beyond end-of-life."""

import numpy as np
import pytest

from repro.config import PCMConfig
from repro.pcm.array import LineFailure
from repro.pcm.sparing import SparesExhausted, SparingController
from repro.pcm.timing import ALL0, ALL1
from repro.sim.engine import run_trace
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceSpec
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.security_refresh import SecurityRefresh
from repro.wearlevel.startgap import StartGap


class TestFailureDuringRemap:
    def test_remap_copy_can_kill_a_line(self):
        """Gap-line wear from remap copies alone can end the device —
        failures are not limited to user-written lines."""
        config = PCMConfig(n_lines=16, endurance=30)
        controller = MemoryController(StartGap(16, remap_interval=1), config)
        with pytest.raises(LineFailure) as info:
            for i in range(2000):
                controller.write(i % 16, ALL0)
        # Failure metadata is coherent regardless of which path wore it out.
        failure = info.value
        assert 0 <= failure.pa < 17
        assert failure.wear >= 30
        assert failure.total_writes == controller.total_writes

    def test_swap_failure_reports_correct_line(self):
        config = PCMConfig(n_lines=16, endurance=10)
        controller = MemoryController(
            SecurityRefresh(16, remap_interval=1, rng=3), config
        )
        with pytest.raises(LineFailure) as info:
            for _ in range(500):
                controller.write(5, ALL1)
        assert int(controller.array.wear[info.value.pa]) >= 10

    def test_elapsed_time_includes_failing_operation(self):
        config = PCMConfig(n_lines=16, endurance=3)
        controller = MemoryController(NoWearLeveling(16), config)
        with pytest.raises(LineFailure) as info:
            for _ in range(10):
                controller.write(0, ALL1)
        assert info.value.elapsed_ns == pytest.approx(3 * 1000.0)


class TestBeyondFirstFailure:
    def test_no_raise_mode_keeps_full_history(self):
        config = PCMConfig(n_lines=16, endurance=5)
        controller = MemoryController(
            NoWearLeveling(16), config, raise_on_failure=False
        )
        for _ in range(50):
            controller.write(2, ALL1)
        assert controller.array.failed
        assert controller.array.first_failure.pa == 2
        assert controller.array.first_failure.wear == 5  # frozen at first
        assert controller.array.wear[2] == 50  # history continues

    def test_run_trace_reports_remap_failures_too(self):
        config = PCMConfig(n_lines=16, endurance=40)
        controller = MemoryController(StartGap(16, remap_interval=1), config)
        result = run_trace(
            controller, TraceSpec("raa", 16, target=3),
            max_writes=100_000,
        )
        assert result.failed
        assert result.failed_pa is not None


class TestSparingUnderPressure:
    def test_sparing_absorbs_remap_failures(self):
        """Failures raised by remap copies (not user writes) must also be
        spared out transparently."""
        config = PCMConfig(n_lines=16, endurance=50)
        controller = SparingController(
            StartGap(16, remap_interval=1), config, n_spares=32
        )
        rng = np.random.default_rng(0)
        shadow = {}
        writes = 0
        try:
            while writes < 20_000:
                la = int(rng.integers(0, 16))
                data = ALL1 if rng.random() < 0.5 else ALL0
                controller.write(la, data)
                shadow[la] = data
                writes += 1
        except SparesExhausted:
            pass
        assert controller.failures > 1
        # Whatever survived must still read back correctly.
        for la, data in shadow.items():
            got, _ = controller.read(la)
            assert got == data

    def test_spare_lines_can_fail_and_be_respared(self):
        config = PCMConfig(n_lines=4, endurance=10)
        controller = SparingController(
            NoWearLeveling(4), config, n_spares=3
        )
        with pytest.raises(SparesExhausted) as info:
            for _ in range(1000):
                controller.write(0, ALL1)
        # Original + 3 spares all consumed, 40 writes absorbed in total.
        assert info.value.failures == 4
        assert info.value.total_writes == 40

    def test_first_failure_metrics_recorded(self):
        config = PCMConfig(n_lines=8, endurance=20)
        controller = SparingController(
            NoWearLeveling(8), config, n_spares=2
        )
        for _ in range(30):
            controller.write(1, ALL1)
        assert controller.first_failure_writes == 20
        assert controller.first_failure_ns == pytest.approx(20 * 1000.0)

"""Tests for the exact per-write simulation driver."""

import gc
import weakref

import pytest

from repro.config import PCMConfig
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceEntry, TraceSpec
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.startgap import StartGap


def hammer(la, n_writes=None, n_lines=16):
    return TraceSpec("raa", n_lines, n_writes, target=la)


def make_controller(n_lines=16, endurance=1e12, scheme=None):
    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = scheme or NoWearLeveling(n_lines)
    return MemoryController(scheme, config)


class TestRunTrace:
    def test_runs_to_stream_end(self):
        controller = make_controller()
        result = run_trace(controller, hammer(0, n_writes=50))
        assert result.user_writes == 50
        assert not result.failed
        assert result.total_writes == 50

    def test_max_writes_caps(self):
        controller = make_controller()
        result = run_trace(
            controller, hammer(0), max_writes=30
        )
        assert result.user_writes == 30

    def test_failure_reported(self):
        controller = make_controller(endurance=10)
        result = run_trace(controller, hammer(4, n_writes=100))
        assert result.failed
        assert result.failed_pa == 4
        assert result.user_writes == 10

    def test_lifetime_seconds(self):
        controller = make_controller(endurance=10)
        result = run_trace(controller, hammer(0, n_writes=100))
        assert result.lifetime_seconds == pytest.approx(10 * 1000e-9)

    def test_write_amplification(self):
        controller = make_controller(scheme=StartGap(16, remap_interval=2))
        result = run_trace(controller, hammer(0, n_writes=100))
        # One remap copy per 2 user writes → amplification 1.5.
        assert result.write_amplification == pytest.approx(1.5)

    def test_empty_trace(self):
        result = run_trace(make_controller(), iter(()))
        assert result.user_writes == 0
        assert result.write_amplification == 0.0

    def test_accepts_chunk_and_entry_streams(self):
        results = []
        for trace in (
            hammer(2, n_writes=20).chunks(),
            iter([TraceEntry(2)] * 20),
        ):
            results.append(run_trace(make_controller(), trace))
        assert results[0] == results[1]
        assert results[0].user_writes == 20


class TestFailedRunIsFreed:
    @pytest.mark.parametrize("driver", [run_trace, run_trace_fast])
    def test_no_reference_cycle_keeps_the_array(self, driver):
        """The array keeps its first failure; the failure must not keep
        the array, or a finished run's arrays wait for a full GC."""
        gc.disable()
        try:
            controller = make_controller(endurance=10)
            assert driver(controller, hammer(4, n_writes=100)).failed
            array = weakref.ref(controller.array)
            del controller
            assert array() is None
        finally:
            gc.enable()

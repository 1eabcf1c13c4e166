"""Bit-exactness of the batched fast engine against the scalar driver.

``run_trace_fast`` promises results *identical* to ``run_trace`` — same
``elapsed_ns``, ``total_writes``, per-line wear, failure PA, and RNG
stream — for every scheme, every trace shape, and every configuration,
falling back to the scalar path automatically whenever a scheme or
config cannot be chunked.  These tests hold it to that promise.
"""

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.pcm.timing import LineData
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceEntry, TraceSpec, trace_entries
from repro.util.rng import as_generator
from repro.wearlevel.nowl import NoWearLeveling

SCHEMES = [
    "none",
    "start-gap",
    "table",
    "random-swap",
    "rbsg",
    "sr",
    "multiway-sr",
    "two-level-sr",
    "security-rbsg",
]
TRACES = ["uniform", "zipf", "sequential", "raa"]

N_LINES = 256
N_WRITES = 4000


def make_trace(kind, seed, batch=512):
    """One synthetic trace; each engine expands it at its own granularity
    from the identical address stream."""
    return TraceSpec(kind, N_LINES, N_WRITES, target=7, seed=seed,
                     batch=batch)


def run_both(scheme_name, trace_kind, seed, endurance=1e9, max_writes=None,
             **config_kwargs):
    """Run the scalar and batched engines on fresh twin controllers."""
    outcomes = []
    for fast in (False, True):
        config = PCMConfig(
            n_lines=N_LINES, endurance=endurance, **config_kwargs
        )
        scheme = build_scheme(scheme_name, N_LINES, seed, {})
        controller = MemoryController(scheme, config, fault_rng=seed)
        driver = run_trace_fast if fast else run_trace
        result = driver(
            controller, make_trace(trace_kind, seed),
            max_writes=max_writes,
        )
        outcomes.append((result, controller))
    return outcomes


def assert_identical(scalar, fast):
    """Every observable of the two runs must match bit-for-bit."""
    scalar_result, scalar_ctrl = scalar
    fast_result, fast_ctrl = fast
    assert fast_result == scalar_result
    assert fast_ctrl.total_writes == scalar_ctrl.total_writes
    assert fast_ctrl.elapsed_ns == scalar_ctrl.elapsed_ns
    assert np.array_equal(fast_ctrl.array.wear, scalar_ctrl.array.wear)
    assert np.array_equal(fast_ctrl.array.data, scalar_ctrl.array.data)
    mapping_scalar = [scalar_ctrl.scheme.translate(la)
                      for la in range(N_LINES)]
    mapping_fast = [fast_ctrl.scheme.translate(la) for la in range(N_LINES)]
    assert mapping_fast == mapping_scalar


class TestBitIdentical:
    """The full matrix: every scheme x trace shape x seed."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("trace_kind", TRACES)
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_matrix(self, scheme_name, trace_kind, seed):
        scalar, fast = run_both(scheme_name, trace_kind, seed)
        assert_identical(scalar, fast)

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_scalar_continuation_after_fast_run(self, scheme_name):
        """Counters and RNG state line up after a fast run: issuing more
        scalar writes afterwards stays in lockstep with the reference."""
        controllers = []
        for fast in (False, True):
            config = PCMConfig(n_lines=N_LINES, endurance=1e9)
            scheme = build_scheme(scheme_name, N_LINES, 3, {})
            controller = MemoryController(scheme, config)
            driver = run_trace_fast if fast else run_trace
            driver(controller, make_trace("uniform", 3))
            controllers.append(controller)
        scalar_ctrl, fast_ctrl = controllers
        tail = list(trace_entries(TraceSpec("uniform", N_LINES, 200,
                                            seed=11)))
        for entry in tail:
            a = scalar_ctrl.write(entry.la, entry.data)
            b = fast_ctrl.write(entry.la, entry.data)
            assert b == a
        assert fast_ctrl.elapsed_ns == scalar_ctrl.elapsed_ns
        assert np.array_equal(fast_ctrl.array.wear, scalar_ctrl.array.wear)


class TestFailureAttribution:
    """Mid-chunk failures report the exact scalar-equivalent write."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_raa_failure(self, scheme_name):
        scalar, fast = run_both(scheme_name, "raa", 1, endurance=60)
        assert scalar[0].failed, "test needs a failing run to mean anything"
        assert_identical(scalar, fast)

    @pytest.mark.parametrize("scheme_name", ["none", "rbsg", "security-rbsg"])
    def test_uniform_mid_chunk_failure(self, scheme_name):
        scalar, fast = run_both(scheme_name, "uniform", 2, endurance=20)
        assert scalar[0].failed
        assert_identical(scalar, fast)


DATA_VALUES = np.array([int(d) for d in LineData], dtype=np.int8)


def mixed_chunks(seed, n_writes=3000, batch=512):
    """Random addresses *and* random latency classes, materialized so the
    scalar and chunked consumers replay the identical stream."""
    gen = as_generator(seed)
    chunks = []
    remaining = n_writes
    while remaining:
        size = min(batch, remaining)
        las = np.asarray(gen.integers(0, N_LINES, size=size), dtype=np.int64)
        datas = np.asarray(gen.choice(DATA_VALUES, size=size), dtype=np.int8)
        chunks.append((las, datas))
        remaining -= size
    return chunks


def entries_of(chunks):
    for las, datas in chunks:
        for la, data in zip(las.tolist(), datas.tolist()):
            yield TraceEntry(la, LineData(data))


class TestConfigurations:
    @pytest.mark.parametrize(
        "scheme_name", ["none", "rbsg", "sr", "security-rbsg"]
    )
    def test_differential_writes(self, scheme_name):
        """Differential writes: intra-chunk old-data chaining must match
        the write-by-write view (no-wear rewrites included)."""
        chunks = mixed_chunks(5)
        outcomes = []
        for fast in (False, True):
            config = PCMConfig(
                n_lines=N_LINES, endurance=1e9, differential_writes=True
            )
            scheme = build_scheme(scheme_name, N_LINES, 5, {})
            controller = MemoryController(scheme, config)
            if fast:
                result = run_trace_fast(controller, iter(chunks))
            else:
                result = run_trace(controller, entries_of(chunks))
            outcomes.append((result, controller))
        assert_identical(*outcomes)

    def test_differential_rewrites_do_not_wear(self):
        config = PCMConfig(
            n_lines=N_LINES, endurance=1e9, differential_writes=True
        )
        controller = MemoryController(NoWearLeveling(N_LINES), config)
        result = run_trace_fast(
            controller, TraceSpec("raa", N_LINES, 100, target=3)
        )
        assert result.user_writes == 100
        # First write flips ALL0 -> ALL1 and wears; 99 rewrites do not.
        assert controller.array.wear[3] == 1

    @pytest.mark.parametrize("scheme_name", ["none", "rbsg", "security-rbsg"])
    def test_fault_injection_falls_back_scalar(self, scheme_name):
        """An armed fault model draws RNG per write, so write_many must
        replay scalar writes — including every verify/retry draw."""
        scalar, fast = run_both(
            scheme_name, "uniform", 4,
            endurance=1e9, verify_fail_base=0.05, ecp_entries=2,
        )
        assert scalar[1].array.faults is not None
        assert_identical(scalar, fast)


class TestFallbacks:
    def test_unboundable_scheme_runs_scalar(self):
        """A scheme that cannot bound its next remap (the base default,
        writes_until_next_remap == 1) is transparently driven write by
        write and stays bit-identical."""

        class Unbounded(NoWearLeveling):
            def writes_until_next_remap(self):
                return 1

        outcomes = []
        for fast, cls in ((False, NoWearLeveling), (True, Unbounded)):
            config = PCMConfig(n_lines=N_LINES, endurance=1e9)
            controller = MemoryController(cls(N_LINES), config)
            driver = run_trace_fast if fast else run_trace
            result = driver(controller, make_trace("uniform", 6))
            outcomes.append((result, controller))
        (scalar_result, scalar_ctrl), (fast_result, fast_ctrl) = outcomes
        assert fast_result == scalar_result
        assert np.array_equal(fast_ctrl.array.wear, scalar_ctrl.array.wear)
        assert fast_ctrl.elapsed_ns == scalar_ctrl.elapsed_ns

    def test_entry_stream_is_batched_by_adapter(self):
        """run_trace_fast accepts plain TraceEntry streams too."""
        scalars = []
        for driver in (run_trace, run_trace_fast):
            config = PCMConfig(n_lines=N_LINES, endurance=1e9)
            scheme = build_scheme("rbsg", N_LINES, 8, {})
            controller = MemoryController(scheme, config)
            entries = trace_entries(TraceSpec("uniform", N_LINES, 2000,
                                              seed=8))
            result = driver(controller, entries)
            scalars.append((result, controller))
        assert_identical(*scalars)

    def test_empty_trace(self):
        config = PCMConfig(n_lines=N_LINES, endurance=1e9)
        controller = MemoryController(NoWearLeveling(N_LINES), config)
        result = run_trace_fast(controller, iter(()))
        assert result.user_writes == 0
        assert not result.failed


class TestMaxWrites:
    @pytest.mark.parametrize("scheme_name", ["none", "rbsg", "security-rbsg"])
    def test_budget_cuts_mid_chunk(self, scheme_name):
        scalar, fast = run_both(
            scheme_name, "uniform", 9, max_writes=1234
        )
        assert scalar[0].user_writes == 1234
        assert_identical(scalar, fast)

    def test_budget_not_multiple_of_batch(self):
        config = PCMConfig(n_lines=N_LINES, endurance=1e9)
        controller = MemoryController(NoWearLeveling(N_LINES), config)
        result = run_trace_fast(
            controller,
            TraceSpec("uniform", N_LINES, seed=0, batch=500),
            max_writes=1234,
        )
        assert result.user_writes == 1234
        assert controller.total_writes == 1234

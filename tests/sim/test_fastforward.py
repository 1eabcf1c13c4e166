"""The analytic fast-forward tier: equivalence, contract, and drop-back.

Three promises under test:

* **Small-scale bit-identity** — ``fast_forward="auto"`` falls through to
  the chunk engine below paper scale, so spec-driven runs are
  bit-identical to the scalar engine and to the chunk engine fed the
  spec's plain chunk stream, for every scheme and trace kind.
* **Conservative-fallback contract** — a scheme without
  ``round_wear_profile`` (the base returns ``None``, the round-granular
  analogue of ``writes_until_next_remap() == 1``) runs bit-identically
  through the chunk path even when the analytic tier is *forced*.
* **Analytic accuracy + exact end-of-life** — forced-analytic lifetimes
  land within the documented error bound of the chunk-measured ones, and
  the drop-back tail attributes the failing write exactly (wear stops at
  the endurance limit, not past it).
"""

import numpy as np
import pytest

from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.fastforward import (
    fast_forward_engaged,
    scheme_supports_fast_forward,
)
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceSpec
from repro.wearlevel.base import WearLeveler

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
#: Schemes that implement the analytic round API (the other two inherit
#: the base-class conservative fallback).
ANALYTIC_SCHEMES = [
    "none", "start-gap", "rbsg", "sr",
    "multiway-sr", "two-level-sr", "security-rbsg",
]
TRACES = ["uniform", "zipf", "sequential", "raa"]

N_LINES = 256
N_WRITES = 4000
BATCH = 512


def make_spec(kind, seed, n_lines=N_LINES, n_writes=N_WRITES, batch=BATCH):
    return TraceSpec(
        kind=kind, n_lines=n_lines, n_writes=n_writes,
        target=7, seed=seed, batch=batch,
    )


def make_chunk_trace(kind, seed):
    """The spec's writes as a plain chunk stream, which no analytic tier
    can see through."""
    return make_spec(kind, seed).chunks()


def fresh_controller(scheme_name, seed, endurance=1e9, n_lines=N_LINES,
                     raise_on_failure=True):
    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, seed, {})
    return MemoryController(scheme, config, raise_on_failure=raise_on_failure)


def assert_same_device(ctrl_a, ctrl_b):
    assert ctrl_a.total_writes == ctrl_b.total_writes
    assert ctrl_a.elapsed_ns == ctrl_b.elapsed_ns
    assert np.array_equal(ctrl_a.array.wear, ctrl_b.array.wear)
    assert np.array_equal(ctrl_a.array.data, ctrl_b.array.data)
    mapping_a = [ctrl_a.scheme.translate(la) for la in range(N_LINES)]
    mapping_b = [ctrl_b.scheme.translate(la) for la in range(N_LINES)]
    assert mapping_a == mapping_b


class TestSmallScaleEquivalence:
    """spec+auto == plain chunk stream == scalar, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("trace_kind", TRACES)
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    def test_three_tier_matrix(self, scheme_name, trace_kind, seed):
        # Tier 1: scalar engine expanding the spec entry by entry.
        c_scalar = fresh_controller(scheme_name, seed)
        r_scalar = run_trace(c_scalar, make_spec(trace_kind, seed))
        # Tier 2: chunk engine on the spec's plain chunk stream.
        c_chunk = fresh_controller(scheme_name, seed)
        r_chunk = run_trace_fast(
            c_chunk, make_chunk_trace(trace_kind, seed)
        )
        # Tier 3 entry point: spec with auto policy — below paper scale
        # this must fall through to the chunk engine unchanged.
        c_auto = fresh_controller(scheme_name, seed)
        r_auto = run_trace_fast(
            c_auto, make_spec(trace_kind, seed), fast_forward="auto"
        )
        assert r_auto == r_chunk == r_scalar
        assert_same_device(c_auto, c_chunk)
        assert_same_device(c_auto, c_scalar)

    @pytest.mark.parametrize("scheme_name", ["none", "rbsg", "security-rbsg"])
    def test_failure_attribution_matches(self, scheme_name):
        """A failing run through the spec path reports the same failure."""
        c_spec = fresh_controller(scheme_name, 2, endurance=20)
        r_spec = run_trace_fast(
            c_spec, make_spec("uniform", 2), fast_forward="auto"
        )
        c_gen = fresh_controller(scheme_name, 2, endurance=20)
        r_gen = run_trace_fast(c_gen, make_chunk_trace("uniform", 2))
        assert r_spec.failed and r_spec == r_gen
        assert_same_device(c_spec, c_gen)


class TestConservativeFallbackContract:
    """Base-class ``round_wear_profile`` => chunk-exact behaviour."""

    def test_base_class_declines(self):
        scheme = build_scheme("table", N_LINES, 1, {})
        assert not scheme_supports_fast_forward(scheme)
        spec = make_spec("uniform", 1)
        assert scheme.round_wear_profile(spec, 1000, None) is None
        with pytest.raises(NotImplementedError):
            scheme.apply_round(None)

    @pytest.mark.parametrize("scheme_name", ["table", "random-swap"])
    @pytest.mark.parametrize("trace_kind", ["uniform", "sequential"])
    def test_forced_analytic_falls_back_bit_identically(
        self, scheme_name, trace_kind
    ):
        """Even ``fast_forward="analytic"`` cannot engage without the
        scheme API: the run must be bit-identical to plain chunking."""
        c_forced = fresh_controller(scheme_name, 3)
        assert not fast_forward_engaged(
            c_forced, make_spec(trace_kind, 3), "analytic"
        )
        r_forced = run_trace_fast(
            c_forced, make_spec(trace_kind, 3), fast_forward="analytic"
        )
        c_plain = fresh_controller(scheme_name, 3)
        r_plain = run_trace_fast(c_plain, make_chunk_trace(trace_kind, 3))
        assert r_forced == r_plain
        assert_same_device(c_forced, c_plain)

    def test_policy_gates(self):
        spec = make_spec("uniform", 1)
        ctrl = fresh_controller("rbsg", 1)
        assert not fast_forward_engaged(ctrl, spec, "off")
        # Small scale: auto declines, analytic engages.
        assert not fast_forward_engaged(ctrl, spec, "auto")
        assert fast_forward_engaged(ctrl, spec, "analytic")
        # Non-spec traces can never engage.
        assert not fast_forward_engaged(
            ctrl, make_chunk_trace("uniform", 1), "analytic"
        )
        with pytest.raises(ValueError):
            fast_forward_engaged(ctrl, spec, "warp")

    def test_differential_writes_disengage(self):
        config = PCMConfig(
            n_lines=N_LINES, endurance=1e9, differential_writes=True
        )
        scheme = build_scheme("rbsg", N_LINES, 1, {})
        ctrl = MemoryController(scheme, config)
        assert not fast_forward_engaged(
            ctrl, make_spec("uniform", 1), "analytic"
        )

    def test_docstring_contract_mirrored(self):
        """The conservative fallback is documented on both layers."""
        assert "round_wear_profile" in WearLeveler.writes_until_next_remap.__doc__
        assert "None" in WearLeveler.round_wear_profile.__doc__


class TestForcedAnalytic:
    """Accuracy and end-of-life exactness of the analytic tier proper."""

    ENDURANCE = 8_000

    def run_to_failure(self, scheme_name, trace_kind, seed, mode):
        ctrl = fresh_controller(
            scheme_name, seed, endurance=self.ENDURANCE, n_lines=1024
        )
        spec = TraceSpec(
            kind=trace_kind, n_lines=1024, n_writes=None, seed=seed
        )
        result = run_trace_fast(ctrl, spec, fast_forward=mode)
        assert result.failed
        return result, ctrl

    # Every scheme is checked on at least one stochastic kind and every
    # kind on three schemes; the full cross product would re-measure the
    # two slowest chunk references for no extra model coverage.
    @pytest.mark.parametrize(
        "scheme_name, trace_kind",
        [
            ("none", "uniform"),
            ("none", "zipf"),
            ("start-gap", "uniform"),
            ("start-gap", "zipf"),
            ("rbsg", "zipf"),
            ("security-rbsg", "uniform"),
        ],
    )
    def test_lifetime_within_error_bound(self, scheme_name, trace_kind):
        """Analytic lifetime tracks the chunk-measured one.

        The documented relative error is O(sqrt(ln N / E)) ~ 2% here;
        the 10% gate leaves room for the max-order-statistic noise of
        individual seeds without ever letting a systematic model error
        (wrong movement wear, wrong round accounting) through.
        """
        analytic, _ = self.run_to_failure(scheme_name, trace_kind, 5, "analytic")
        chunk, _ = self.run_to_failure(scheme_name, trace_kind, 5, "off")
        ratio = analytic.user_writes / chunk.user_writes
        assert 0.9 < ratio < 1.1, (
            f"{scheme_name}/{trace_kind}: analytic {analytic.user_writes} "
            f"vs chunk {chunk.user_writes} ({ratio:.3f})"
        )
        amp_gap = abs(
            analytic.write_amplification - chunk.write_amplification
        )
        assert amp_gap < 0.05

    @pytest.mark.parametrize("scheme_name", ANALYTIC_SCHEMES)
    def test_drop_back_gives_exact_failure(self, scheme_name):
        """The chunk-exact tail finds the true first-failing write: wear
        stops exactly at the limit and the failure PA is in range."""
        result, ctrl = self.run_to_failure(scheme_name, "uniform", 7, "analytic")
        assert ctrl.array.max_wear == self.ENDURANCE
        assert result.failed_pa is not None
        assert 0 <= result.failed_pa < ctrl.scheme.n_physical
        assert ctrl.array.first_failure.wear == self.ENDURANCE

    def test_sequential_phase_survives_skip(self):
        """The analytic prefix advances the sequential phase exactly, so
        the chunk tail resumes mid-cycle where the skipped writes ended."""
        spec = TraceSpec(kind="sequential", n_lines=1024, n_writes=None, seed=0)
        ctrl = fresh_controller("none", 0, endurance=5000, n_lines=1024)
        result = run_trace_fast(ctrl, spec, fast_forward="analytic")
        assert result.failed
        # NoWL + sequential: perfectly even coverage, every line within
        # one write of every other at the moment of first failure.
        wear = ctrl.array.wear
        assert int(wear.max()) - int(wear.min()) <= 1
        assert result.user_writes == ctrl.total_writes

    def test_max_writes_budget_respected(self):
        spec = TraceSpec(kind="uniform", n_lines=1024, n_writes=None, seed=1)
        ctrl = fresh_controller("rbsg", 1, endurance=10**9, n_lines=1024)
        result = run_trace_fast(
            ctrl, spec, max_writes=500_000, fast_forward="analytic"
        )
        assert not result.failed
        assert result.user_writes <= 500_000
        assert spec.pos == result.user_writes


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec(kind="burst", n_lines=16)
        with pytest.raises(ValueError):
            TraceSpec(kind="zipf", n_lines=16, alpha=0.0)
        with pytest.raises(ValueError):
            TraceSpec(kind="raa", n_lines=16, target=16)
        with pytest.raises(ValueError):
            TraceSpec(kind="uniform", n_lines=16).skip(-1)

    def test_remaining_and_skip(self):
        spec = TraceSpec(kind="uniform", n_lines=16, n_writes=100)
        assert spec.remaining() == 100
        spec.skip(40)
        assert spec.remaining() == 60
        total = sum(las.size for las, _ in spec.chunks())
        assert total == 60
        assert spec.remaining() == 0

    def test_zipf_weights_normalised(self):
        spec = TraceSpec(kind="zipf", n_lines=64, alpha=1.2)
        weights = spec.weights()
        assert weights.shape == (64,)
        assert weights[0] > weights[-1]
        assert np.isclose(weights.sum(), 1.0)

    def test_uniform_stream_is_batch_independent(self):
        def stream(batch):
            spec = TraceSpec(kind="uniform", n_lines=64, n_writes=1000,
                             seed=9, batch=batch)
            return np.concatenate([las for las, _ in spec.chunks()])

        assert np.array_equal(stream(128), stream(1000))

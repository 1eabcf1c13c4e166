"""Closed-form lifetime models for every scheme/attack pair in the paper.

All models return nanoseconds of device lifetime and use the paper's time
accounting: one write occupies one SET pulse (``config.set_ns``), which is
what makes the models land on the paper's quoted numbers:

* RBSG under RTA, recommended config → 478 s (paper: 478 s),
* RBSG under RAA → 27435x the RTA lifetime (paper: 27435x),
* ideal lifetime → 4.63e3 days (consistent with Figs. 12-15's ceiling),
* two-level SR under RAA → ≈0.68 of ideal ≈ 105 months (paper: 105 months).

Trend note: the paper's §V-A prose claims RBSG fails *faster* under RTA as
the remapping interval grows, while §III-B says increasing the wear-leveling
*rate* (i.e. shrinking the interval) accelerates RTA.  The two statements
conflict; this model follows §III-B's detection-cost formula (which exactly
reproduces the 478 s / 27435x headline): smaller interval ⇒ cheaper
detection ⇒ shorter lifetime.  See DESIGN.md / EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.analysis.ballsbins import dwells_to_max_load
from repro.config import PCMConfig, RBSGConfig, SecurityRBSGConfig, SRConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import Trace
    from repro.wearlevel.base import WearLeveler


def ideal_lifetime_ns(pcm: PCMConfig) -> float:
    """Perfectly uniform wear: every line absorbs the full endurance."""
    return pcm.ideal_lifetime_ns


def raa_nowl_lifetime_ns(pcm: PCMConfig) -> float:
    """RAA against no wear leveling: one line eats every write."""
    return pcm.endurance * pcm.set_ns


# --------------------------------------------------------------------- RBSG


def raa_rbsg_lifetime_ns(pcm: PCMConfig, cfg: RBSGConfig) -> float:
    """RAA against RBSG (the line of Fig. 11).

    The hammered LA's physical slot shifts by one per Start-Gap round, so
    each of the region's ``N/R + 1`` slots receives the full attack stream
    once per rotation; a slot dies after absorbing ``E`` writes, which takes
    ``E * (N/R + 1)`` attack writes.  Independent of the remap interval.
    """
    region_slots = pcm.n_lines // cfg.n_regions + 1
    return pcm.endurance * region_slots * pcm.set_ns


def rta_rbsg_detection_writes(pcm: PCMConfig, cfg: RBSGConfig) -> float:
    """Writes the RTA spends recovering the address sequence (§III-B step 6).

    ``(N + (psi - 1) * N/R) * log2(N)``: one full-memory labelling sweep plus
    the re-synchronisation writes, per address bit.
    """
    n = pcm.n_lines
    region = n // cfg.n_regions
    return (n + (cfg.remap_interval - 1) * region) * math.log2(n)


def rta_rbsg_lifetime_ns(pcm: PCMConfig, cfg: RBSGConfig) -> float:
    """RTA against RBSG (the bars of Fig. 11).

    Detection cost plus ``E`` wear writes, all landing on one physical slot
    (the attacker always writes the LA currently resident there).
    """
    writes = rta_rbsg_detection_writes(pcm, cfg) + pcm.endurance
    return writes * pcm.set_ns


# ------------------------------------------------------------ two-level SR


def _sr_dwell_writes(pcm: PCMConfig, n_subregions: int, inner_interval: int) -> float:
    """Writes a hammered LA delivers to one slot before the inner SR moves it.

    One inner round of its sub-region: ``(N/R) * inner_interval`` writes.
    """
    return (pcm.n_lines / n_subregions) * inner_interval


def raa_two_level_sr_lifetime_ns(pcm: PCMConfig, cfg: SRConfig) -> float:
    """RAA against two-level SR (Fig. 13).

    Each dwell parks ``D = (N/R) * psi_inner`` writes on one uniformly
    random slot (inner key XOR per inner round; outer remap re-randomises
    the sub-region each outer round) — balls-into-bins with ball weight
    ``D`` over all ``N`` lines; death when the max-loaded bin accumulates
    ``E / D`` balls.
    """
    dwell = _sr_dwell_writes(pcm, cfg.n_subregions, cfg.inner_interval)
    balls_needed = dwells_to_max_load(pcm.endurance / dwell, pcm.n_lines)
    return balls_needed * dwell * pcm.set_ns


def bpa_two_level_sr_lifetime_ns(pcm: PCMConfig, cfg: SRConfig) -> float:
    """BPA against two-level SR — "RAA has been proved to have the same
    effect with BPA" (§V-B): random-address hammering lands on the same
    balls-into-bins process."""
    return raa_two_level_sr_lifetime_ns(pcm, cfg)


def rta_two_level_sr_lifetime_ns(
    pcm: PCMConfig, cfg: SRConfig, detection_factor: float = 0.75
) -> float:
    """RTA against two-level SR (Fig. 12).

    Per outer round the attacker spends ``detection_factor * N * log2(R)``
    writes re-detecting the outer key's high bits (paper §III-E: between
    ``N/2 * log2 R`` and ``N * log2 R``; 0.75 is the mean) and sprays the
    rest onto the target sub-region, whose inner SR spreads them evenly over
    its ``N/R`` lines.  The sub-region dies after absorbing
    ``(N/R) * E`` attack writes.
    """
    n = pcm.n_lines
    round_writes = n * cfg.outer_interval
    detect_writes = detection_factor * n * math.log2(cfg.n_subregions)
    if detect_writes >= round_writes:
        raise ValueError(
            "detection cannot finish within an outer round for this config"
        )
    attack_fraction = 1.0 - detect_writes / round_writes
    subregion_capacity = (n / cfg.n_subregions) * pcm.endurance
    total_writes = subregion_capacity / attack_fraction
    return total_writes * pcm.set_ns


# ------------------------------------------------------------ Security RBSG


def raa_security_rbsg_lifetime_ns(
    pcm: PCMConfig, cfg: SecurityRBSGConfig
) -> float:
    """RAA against Security RBSG with an *ideal* (uniform) outer randomizer
    (Fig. 15's model; the measured stage-count sensitivity is Fig. 14).

    Per outer round the hammered LA lands at a pseudo-random slot and the
    inner Start-Gap walks it through a contiguous window of
    ``W = R * psi_outer / psi_inner`` slots, delivering
    ``D = (N/R + 1) * psi_inner`` writes per slot.  Marginally each slot is
    covered with probability ``W / N`` per round; the window's contiguity
    only reduces within-round collisions, so the balls-into-bins max-load
    estimate over per-slot *coverage events* (weight ``D``) applies with
    a ``(1 - W/N)`` variance correction — the source of the (mild) "longer
    outer interval ⇒ longer lifetime" trend the paper reports.
    """
    n = pcm.n_lines
    subregion = n // cfg.n_subregions
    dwell = (subregion + 1) * cfg.inner_interval
    window = max(1.0, cfg.n_subregions * cfg.outer_interval / cfg.inner_interval)
    # A window longer than its sub-region laps it: every slot is covered
    # and receives `laps` dwells per round.
    laps = max(1.0, window / subregion)
    window = min(window, float(subregion))
    coverage = window / n
    hits_needed = pcm.endurance / (dwell * laps)
    # Solve mu + sqrt(2 mu (1 - coverage) ln N) = hits_needed  for mu.
    shrink = max(1e-12, 1.0 - coverage)
    b = math.sqrt(2.0 * shrink * math.log(n))
    x = (-b + math.sqrt(b * b + 4.0 * hits_needed)) / 2.0
    mu = x * x
    rounds = mu / coverage
    round_writes = n * cfg.outer_interval
    return rounds * round_writes * pcm.set_ns


# ---------------------------------------------------- measured lifetime


def measured_lifetime_ns(
    scheme: "WearLeveler",
    pcm: PCMConfig,
    trace: "Trace",
    max_writes: int = 10_000_000,
    fast: bool = True,
    fast_forward: str = "auto",
) -> float:
    """Lifetime *measured* on the exact simulator, not modelled.

    Drives ``scheme`` with ``trace`` until the first line failure and
    returns the elapsed nanoseconds — the empirical counterpart of the
    closed-form models above, for the scheme/workload pairs they do not
    cover.  ``fast=True`` (default) uses the chunked vectorized engine,
    which is bit-identical to the scalar path (``fast=False``) and falls
    back to it automatically where chunking does not apply.

    ``fast_forward`` selects the third, analytic tier when ``trace`` is a
    :class:`~repro.sim.trace.TraceSpec`: ``"auto"`` (default)
    engages it only at paper scale, where it is within the documented
    error bound of the closed forms above (see docs/performance.md) and
    the chunk engine would take hours; ``"off"`` forces chunk-exact;
    ``"analytic"`` forces the analytic tier regardless of scale.  At
    small scale ``"auto"`` falls through to the chunk engine, keeping the
    historical bit-exact behaviour.

    Raises ``RuntimeError`` if the device survives ``max_writes`` user
    writes — a lifetime measurement must end in a failure.
    """
    from repro.sim.engine import run_trace, run_trace_fast
    from repro.sim.memory_system import MemoryController

    controller = MemoryController(scheme, pcm)
    if fast:
        result = run_trace_fast(
            controller, trace, max_writes=max_writes, fast_forward=fast_forward
        )
    else:
        result = run_trace(controller, trace, max_writes=max_writes)
    if not result.failed:
        raise RuntimeError(
            f"device did not fail within {max_writes} writes; "
            "increase max_writes or reduce endurance for this experiment"
        )
    return result.elapsed_ns

"""Analytic remap-round fast-forward — the third engine tier.

The chunk engine (:func:`repro.sim.engine.run_trace_fast`) already exploits
the static-mapping invariant *between remap events*; this module exploits it
one level up: across whole remap **rounds** the wear a known trace
distribution deposits has a closed form.  A
:class:`~repro.sim.trace.TraceSpec` names that distribution (instead of
materialising its writes), the scheme turns "``W`` writes of this spec"
into a dense per-line wear increment
(:meth:`repro.wearlevel.base.WearLeveler.round_wear_profile`), and
:func:`run_fast_forward` commits increments of geometrically shrinking size
until the remaining endurance headroom is too small to jump safely — then
drops back to the chunk-exact engine (and through it the scalar one) so the
failing write is attributed exactly.

Error model (see docs/performance.md for the full derivation): exact counts
for deterministic trace kinds, Poisson-sampled expected rates for the
stochastic ones, so per-line wear keeps its natural balls-into-bins
fluctuations; the resulting lifetime error is O(sqrt(ln N / E)) relative.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.trace import TraceSpec
from repro.util.rng import SeedLike, as_generator, derive_seed
from repro.wearlevel.base import WearLeveler

#: Auto policy: engage the analytic tier only at scales where the chunk
#: engine is the bottleneck AND the statistical error bound is tight.
FF_AUTO_MIN_LINES = 1 << 18
FF_AUTO_MIN_ENDURANCE = 100_000

#: Target at most this fraction of the endurance headroom per round, so a
#: Poisson overshoot (refused by apply_wear_bulk) stays improbable.
HEADROOM_FRACTION = 0.5


# --------------------------------------------------------------- policy


def scheme_supports_fast_forward(scheme: WearLeveler) -> bool:
    """Does the scheme override the analytic round API at all?"""
    return (
        type(scheme).round_wear_profile is not WearLeveler.round_wear_profile
    )


def fast_forward_engaged(controller, trace, mode: str) -> bool:
    """Decide whether the analytic tier runs for this (controller, trace).

    ``mode`` is the ``fast_forward=`` argument: ``"off"`` never engages;
    ``"analytic"`` engages whenever it is *possible* (scheme has the API,
    no fault injection, no differential writes, trace is a spec);
    ``"auto"`` additionally requires paper-like scale
    (``n_lines >= 2**18`` and ``endurance >= 1e5``) — below that the chunk
    engine is fast enough and the equivalence suite's bit-identity
    guarantee holds because auto falls through to it.
    """
    if mode not in ("off", "auto", "analytic"):
        raise ValueError(f"fast_forward must be off/auto/analytic, got {mode!r}")
    if mode == "off" or not isinstance(trace, TraceSpec):
        return False
    if not scheme_supports_fast_forward(controller.scheme):
        return False
    config = controller.config
    if config.fault_injection_enabled or config.differential_writes:
        return False
    if mode == "analytic":
        return True
    return (
        controller.scheme.n_lines >= FF_AUTO_MIN_LINES
        and config.endurance >= FF_AUTO_MIN_ENDURANCE
    )


# --------------------------------------------------------------- driver


def run_fast_forward(
    controller,
    spec: TraceSpec,
    max_writes: Optional[int] = None,
    *,
    batch: Optional[int] = None,
    floor: Optional[int] = None,
    rng: SeedLike = None,
):
    """Drive ``controller`` with ``spec`` through the analytic tier.

    Loop: pick a round size ``W`` targeting half the remaining endurance
    headroom, ask the scheme for the closed-form wear profile, draw the
    stochastic part as Poisson counts, and commit through
    ``apply_wear_bulk`` — which refuses (mutating nothing) if any line
    would cross its limit, in which case ``W`` halves and the round is
    redrawn.  When ``W`` falls below ``floor`` the remaining trace runs
    through the chunk-exact engine, which attributes the failing write
    exactly (and scalar-replays remap-boundary writes), so end-of-life
    behaviour is genuine, not modelled.

    Returns a :class:`repro.sim.engine.SimulationResult`; ``total_writes``
    and ``elapsed_ns`` are read from the controller, which both tiers
    advance cumulatively.
    """
    from repro.sim.engine import SimulationResult, run_trace_fast

    array = controller.array
    scheme = controller.scheme
    timing = array.timing
    if spec.n_lines != scheme.n_lines:
        raise ValueError(
            f"spec covers {spec.n_lines} lines but scheme exposes "
            f"{scheme.n_lines}"
        )
    if batch is None:
        batch = spec.batch
    if floor is None:
        floor = max(8 * batch, scheme.n_lines // 8)
    if rng is None and isinstance(spec.seed, int):
        # Independent of the trace stream, reproducible from the spec seed.
        rng = derive_seed(spec.seed, "fast-forward")
    gen = as_generator(rng)

    if array.endurance_map is None:
        limit_min = float(controller.config.endurance)
    else:
        limit_min = float(array.endurance_map.min())

    n_scheme = scheme.n_physical
    user_writes = 0
    analytic_ns = 0.0
    shrink = 1.0
    filled = False

    while not array.failed:
        budget: Optional[int] = spec.remaining()
        if max_writes is not None:
            left = max_writes - user_writes
            budget = left if budget is None else min(budget, left)
        if budget is not None and budget <= floor:
            break
        headroom = limit_min - array.max_wear
        if headroom <= 1:
            break
        # Optimistic initial guess: perfectly even spread over all lines,
        # filling HEADROOM_FRACTION of the headroom; the refinement loop
        # below corrects it against the profile's actual worst line.
        guess = int(headroom * HEADROOM_FRACTION * scheme.n_lines * shrink)
        if budget is not None:
            guess = min(guess, budget)
        profile = None
        for _ in range(8):
            if guess <= floor:
                profile = None
                break
            profile = scheme.round_wear_profile(spec, guess, timing)
            if profile is None:
                break
            worst = 0.0
            if profile.wear_counts is not None:
                worst += float(profile.wear_counts.max())
            if profile.wear_rates is not None:
                worst += float(profile.wear_rates.max())
            if worst <= HEADROOM_FRACTION * headroom:
                break
            # Damped correction: aim 10% under the target so the iteration
            # lands strictly inside it instead of converging onto the
            # boundary from above (the movement-wear constant in ``worst``
            # makes the undamped update a boundary fixed point, which
            # would abandon the analytic tier with headroom still worth
            # millions of chunk-engine writes).
            guess = max(
                int(
                    profile.writes
                    * 0.9
                    * HEADROOM_FRACTION
                    * headroom
                    / worst
                ),
                1,
            )
            profile = None
        if profile is None or guess <= floor:
            break
        counts = np.zeros(array.n_physical, dtype=np.int64)
        if profile.wear_counts is not None:
            counts[:n_scheme] += profile.wear_counts
        if profile.wear_rates is not None:
            counts[:n_scheme] += gen.poisson(profile.wear_rates)
        if not filled:
            # Steady-state data model: from here on every scheme-visible
            # line holds the trace's write data (docs/performance.md).
            array.fill_data(spec.data, n_scheme)
            filled = True
        if not array.apply_wear_bulk(counts, profile.elapsed_ns):
            # A line would cross its limit: halve the next attempt; once
            # the attempts shrink under the floor, the loop exits to the
            # chunk-exact tail, which finds the failing write for real.
            shrink *= 0.5
            if guess * shrink <= floor:
                break
            continue
        shrink = min(1.0, shrink * 2.0)
        analytic_ns += scheme.apply_round(profile)
        spec.skip(profile.writes)
        user_writes += profile.writes

    tail_budget = None if max_writes is None else max_writes - user_writes
    if (tail_budget is not None and tail_budget <= 0) or spec.remaining() == 0:
        return SimulationResult(
            user_writes=user_writes,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=array.failed,
            failed_pa=array.first_failure.pa if array.failed else None,
        )
    tail = run_trace_fast(
        controller, spec.chunks(), max_writes=tail_budget, batch=batch
    )
    return SimulationResult(
        user_writes=user_writes + tail.user_writes,
        total_writes=tail.total_writes,
        elapsed_ns=tail.elapsed_ns,
        failed=tail.failed,
        failed_pa=tail.failed_pa,
    )

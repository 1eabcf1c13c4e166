"""Simulation layer.

Three granularities, trading exactness for reach:

* :mod:`repro.sim.memory_system` + :mod:`repro.sim.engine` — exact per-write
  simulation through a memory controller; the attacker sees true latencies
  (the RTA side channel).  :func:`run_trace` is the scalar reference,
  :func:`run_trace_fast` its bit-identical chunked twin, and
  ``run_trace_fast(..., fast_forward=...)`` reaches the analytic
  remap-round tier (:mod:`repro.sim.fastforward`).  Every driver takes
  any trace granularity: a :class:`TraceSpec` — the one way to name a
  synthetic trace — or a recorded chunk or entry stream
  (:mod:`repro.sim.trace`).
* :mod:`repro.sim.roundsim` — remapping-round-granularity vectorized
  simulators for Repeated Address Attack wear studies at paper scale
  (Figs. 14-16); validated against the exact engine at small scale.
* :mod:`repro.analysis.lifetime` (separate package) — closed-form models.
"""

from repro.sim.engine import (
    SimulationResult,
    run_trace,
    run_trace_fast,
)
from repro.sim.fastforward import run_fast_forward
from repro.sim.memory_system import MemoryController
from repro.sim.multibank import MultiBankSystem
from repro.sim.roundsim import (
    RBSGBPASim,
    RoundSimResult,
    SecurityRBSGRAASim,
    TwoLevelSRRAASim,
)
from repro.sim.trace import (
    TraceEntry,
    TraceSpec,
    trace_chunks,
    trace_entries,
)

__all__ = [
    "MemoryController",
    "MultiBankSystem",
    "RBSGBPASim",
    "RoundSimResult",
    "SecurityRBSGRAASim",
    "SimulationResult",
    "TraceEntry",
    "TraceSpec",
    "TwoLevelSRRAASim",
    "run_fast_forward",
    "run_trace",
    "run_trace_fast",
    "trace_chunks",
    "trace_entries",
]

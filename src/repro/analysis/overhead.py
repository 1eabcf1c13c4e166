"""Hardware overhead model of Security RBSG (paper Section V-C3).

Storage:

* registers: ``(S+1)*B + log2(psi_outer)`` bits for the outer level (Gap,
  the Kc/Kp arrays, the write counter) plus
  ``R * (2*log2(N/R) + log2(psi_inner))`` bits for the per-sub-region
  Start/Gap registers and write counters — about 2 KB for the recommended
  1 GB-bank configuration, matching the paper;
* spare PCM lines: one per sub-region plus one for the outer level,
  ``(R+1) * line_bytes``  (the paper prints "(S+1) x 256 byte", an apparent
  typo — spare lines scale with sub-regions, not Feistel stages);
* isRemap SRAM: one bit per line = ``N`` bits (0.5 MB at 2^22 lines; the
  paper's value matches, its "log2(N) bit" formula is another typo).

Logic: one cubing circuit per stage at ``(3/8) * B^2`` gates (a squarer at
``B^2/2`` plus a multiplier at ``B^2``, scaled per the paper's source),
``(3/8) * S * B^2`` gates total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import PCMConfig, SecurityRBSGConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import SimulationResult
    from repro.sim.trace import Trace
    from repro.wearlevel.base import WearLeveler


@dataclass(frozen=True)
class HardwareOverhead:
    """Storage and logic costs of one Security RBSG instance."""

    register_bits: int
    spare_lines: int
    spare_bytes: int
    isremap_sram_bits: int
    cubing_gates: int

    @property
    def register_bytes(self) -> float:
        return self.register_bits / 8.0

    @property
    def isremap_sram_bytes(self) -> float:
        return self.isremap_sram_bits / 8.0


def security_rbsg_overhead(
    pcm: PCMConfig, cfg: SecurityRBSGConfig
) -> HardwareOverhead:
    """Evaluate the §V-C3 overhead formulas for a configuration."""
    n = pcm.n_lines
    b = pcm.address_bits
    r = cfg.n_subregions
    subregion = n // r
    outer_bits = (cfg.n_stages + 1) * b + math.ceil(math.log2(cfg.outer_interval))
    inner_bits = r * (
        2 * math.ceil(math.log2(subregion))
        + math.ceil(math.log2(cfg.inner_interval))
    )
    gates = (3 * cfg.n_stages * b * b) // 8
    return HardwareOverhead(
        register_bits=outer_bits + inner_bits,
        spare_lines=r + 1,
        spare_bytes=(r + 1) * pcm.line_bytes,
        isremap_sram_bits=n,
        cubing_gates=gates,
    )


# ------------------------------------------------- measured write cost


def measured_write_overhead(
    scheme: "WearLeveler",
    pcm: PCMConfig,
    trace: "Trace",
    max_writes: int,
    fast: bool = True,
) -> "SimulationResult":
    """Write overhead *measured* on the exact simulator.

    Drives ``scheme`` with up to ``max_writes`` writes of ``trace`` and
    returns the :class:`~repro.sim.engine.SimulationResult`, whose
    ``write_amplification`` (physical writes per user write) is the
    empirical counterpart of the hardware table above: it counts the
    actual remap movements the workload triggered.  ``fast=True``
    (default) uses the chunked vectorized engine — bit-identical to the
    scalar path, with automatic fallback where chunking does not apply.
    """
    from repro.sim.engine import run_trace, run_trace_fast
    from repro.sim.memory_system import MemoryController

    controller = MemoryController(scheme, pcm, raise_on_failure=False)
    driver = run_trace_fast if fast else run_trace
    return driver(controller, trace, max_writes=max_writes)

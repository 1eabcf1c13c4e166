"""Ablation — wear-leveling write overhead vs remapping interval.

§II-A: "the write overhead of wear-leveling algorithms is expected to be
no more than 1%".  Measures write amplification (physical writes per user
write) across intervals for the Start-Gap and SR families; the paper's
recommended configurations sit at or under the 1% budget.
"""

import pytest
from _bench_util import print_table

from repro.config import PCMConfig
from repro.sim.engine import run_trace
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceSpec
from repro.wearlevel.rbsg import RegionBasedStartGap
from repro.wearlevel.security_refresh import SecurityRefresh
from repro.core.security_rbsg import SecurityRBSG

N_LINES = 2**10
WRITES = 40_000


def amplification(scheme) -> float:
    config = PCMConfig(n_lines=N_LINES, endurance=1e12)
    controller = MemoryController(scheme, config)
    result = run_trace(
        controller, TraceSpec("uniform", N_LINES, n_writes=WRITES, seed=0)
    )
    return result.write_amplification - 1.0


def test_ablation_write_overhead(benchmark):
    def run():
        rows = []
        for interval in (8, 16, 32, 64, 100, 128):
            rbsg = amplification(
                RegionBasedStartGap(N_LINES, 8, interval, rng=1)
            )
            sr = amplification(SecurityRefresh(N_LINES, interval, rng=1))
            srbsg = amplification(
                SecurityRBSG(N_LINES, 8, interval, 2 * interval, 7, rng=1)
            )
            rows.append((interval, rbsg * 100, sr * 100, srbsg * 100))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: wear-leveling write overhead (%), uniform traffic "
        "(paper budget: <= 1%; RBSG recommends interval 100)",
        ["interval", "RBSG", "SR (swap = 2 writes)", "Security RBSG"],
        rows,
    )
    # Overhead falls as ~1/interval; the recommended configs meet ~1-2%.
    by_interval = {int(r[0]): r for r in rows}
    assert by_interval[100][1] <= 1.05  # RBSG at its recommended interval
    for column in (1, 2, 3):
        series = [r[column] for r in rows]
        assert series == sorted(series, reverse=True)

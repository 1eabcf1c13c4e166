"""§I motivation — non-uniform benign traffic without wear leveling.

Not a numbered figure, but the paper's opening claim: "some memory lines
written heavily could fail much faster than the others, causing the whole
system to fail much earlier than its expected lifetime."  Reproduced with a
zipf workload: the unprotected bank dies at ~1 % of ideal lifetime; every
wear-leveling scheme recovers the bulk of it.
"""

import pytest
from _bench_util import print_table

from repro.config import PCMConfig
from repro.core.security_rbsg import SecurityRBSG
from repro.sim.engine import run_trace
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceSpec
from repro.wearlevel.nowl import NoWearLeveling
from repro.wearlevel.startgap import StartGap
from repro.wearlevel.two_level_sr import TwoLevelSecurityRefresh

N_LINES = 2**9
ENDURANCE = 1e4
BUDGET = 30_000_000


def lifetime_under_zipf(scheme) -> float:
    config = PCMConfig(n_lines=N_LINES, endurance=ENDURANCE)
    controller = MemoryController(scheme, config)
    result = run_trace(
        controller, TraceSpec("zipf", N_LINES, alpha=1.2, seed=7),
        max_writes=BUDGET,
    )
    return result.user_writes if result.failed else float(BUDGET)


def test_motivation_zipf(benchmark):
    ideal = N_LINES * ENDURANCE

    def run():
        return {
            "none": lifetime_under_zipf(NoWearLeveling(N_LINES)),
            "Start-Gap": lifetime_under_zipf(StartGap(N_LINES, 16)),
            "2-level SR": lifetime_under_zipf(
                TwoLevelSecurityRefresh(N_LINES, 8, 16, 32, rng=1)
            ),
            "Security RBSG": lifetime_under_zipf(
                SecurityRBSG(N_LINES, 8, 16, 32, 7, rng=1)
            ),
        }

    lifetimes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Section I motivation: zipf(1.2) benign traffic, writes to failure "
        f"(ideal = {ideal:g})",
        ["scheme", "writes to failure", "fraction of ideal"],
        [(name, writes, writes / ideal) for name, writes in lifetimes.items()],
    )
    assert lifetimes["none"] < 0.02 * ideal
    for name in ("Start-Gap", "2-level SR", "Security RBSG"):
        assert lifetimes[name] > 20 * lifetimes["none"]
        assert lifetimes[name] > 0.4 * ideal

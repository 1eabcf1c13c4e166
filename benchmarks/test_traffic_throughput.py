"""Throughput guard for the traffic layer: mixer and .rbt replay.

Two sources feed ``run_trace_fast`` here: a 1000-tenant mixed
population from :func:`repro.traffic.mixed_spec` and the bundled
MSR-sample ``.rbt`` fixture.  For each, the batched engine must stay
bit-identical to the scalar reference and must not be slower — the
same floor ``test_engine_throughput.py`` holds the synthetic
generators to.  The printed table documents how much of the synthetic
speedup survives realistic, churning multi-tenant traffic.

No pytest-benchmark fixture: the scalar leg is the expensive part and
runs exactly once per source, timed with ``perf_counter``.
"""

import pathlib
import time

import pytest

from _bench_util import print_table
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.traffic import mixed_spec, open_trace_chunks

N_LINES = 1 << 12
N_WRITES = 150_000
SEED = 7
RBT = (pathlib.Path(__file__).resolve().parents[1]
       / "tests" / "data" / "msr_sample.rbt")


def _controller():
    config = PCMConfig(n_lines=N_LINES, endurance=1e15)
    scheme = build_scheme("security-rbsg", N_LINES, SEED, {"interval": 100})
    return MemoryController(scheme, config)


def _mixer_traffic():
    mixer = mixed_spec(1000, churn_interval=40_000).build_mixer(
        N_LINES, SEED
    )
    return mixer.chunks()


def _rbt_traffic():
    return open_trace_chunks(RBT, n_lines=N_LINES)


SOURCES = {
    "tenant-mixer": (_mixer_traffic, N_WRITES),
    "rbt-replay": (_rbt_traffic, None),
}


def _measure(source, fast):
    maker, max_writes = SOURCES[source]
    controller = _controller()
    driver = run_trace_fast if fast else run_trace
    start = time.perf_counter()
    result = driver(controller, maker(), max_writes=max_writes)
    elapsed = time.perf_counter() - start
    return result, controller.array.wear.copy(), elapsed


@pytest.fixture(scope="module")
def report():
    rows = []
    yield rows
    print_table(
        f"traffic sources, batched vs scalar (security-rbsg, "
        f"{N_LINES} lines)",
        ["source", "writes", "scalar wr/s", "batched wr/s", "speedup"],
        rows,
    )


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_batched_replay_outruns_scalar(report, source):
    scalar_result, scalar_wear, scalar_s = _measure(source, fast=False)
    batched_result, batched_wear, batched_s = _measure(source, fast=True)

    # Fast is only allowed to be fast because it is *exact*.
    assert batched_result == scalar_result
    assert (batched_wear == scalar_wear).all()
    assert scalar_result.user_writes > 0

    n = scalar_result.user_writes
    speedup = scalar_s / batched_s
    report.append((source, n, round(n / scalar_s), round(n / batched_s),
                   round(speedup, 2)))
    # The .rbt fixture is tiny (5354 writes), so hold only the mixer to
    # the not-slower floor — small replays are dominated by setup noise.
    if source == "tenant-mixer":
        assert speedup > 1.0, (
            f"batched replay slower than scalar for {source}: "
            f"{batched_s:.3f}s vs {scalar_s:.3f}s"
        )

"""Throughput guard: the batched engine vs the scalar reference.

Drives a 64Ki-line device with the same uniform trace through
``run_trace`` and ``run_trace_fast``, checks the results are
bit-identical, asserts the batched engine is faster, and records the
measured throughputs into ``BENCH_5.json`` at the repo root (the
committed copy documents the reference speedup; ``make bench-fast``
refreshes it).

No pytest-benchmark fixture here: each engine runs exactly once per
scheme and is timed with ``perf_counter`` — the scalar leg is the
expensive part and repeating it buys no precision the JSON needs.
"""

import json
import pathlib
import sys
import time

import pytest

from _bench_util import print_table
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim.engine import run_trace, run_trace_fast
from repro.sim.memory_system import MemoryController
from repro.sim.trace import TraceSpec

N_LINES = 1 << 16  # 64Ki lines
N_WRITES = 400_000
SEED = 7
SCHEMES = ["start-gap", "rbsg", "security-rbsg"]
BENCH_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_5.json"


def _measure(scheme_name, fast):
    config = PCMConfig(n_lines=N_LINES, endurance=1e15)
    scheme = build_scheme(scheme_name, N_LINES, SEED, {"interval": 100})
    controller = MemoryController(scheme, config)
    trace = TraceSpec("uniform", N_LINES, N_WRITES, seed=SEED, batch=4096)
    driver = run_trace_fast if fast else run_trace
    start = time.perf_counter()
    result = driver(controller, trace)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def report():
    rows = {}
    yield rows
    document = {
        "benchmark": "engine_throughput",
        "trace": "uniform",
        "n_lines": N_LINES,
        "n_writes": N_WRITES,
        "seed": SEED,
        "python": sys.version.split()[0],
        "schemes": rows,
    }
    BENCH_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                          + "\n")
    print_table(
        f"batched vs scalar engine ({N_LINES} lines, {N_WRITES} writes)",
        ["scheme", "scalar wr/s", "batched wr/s", "speedup"],
        [
            (name, row["scalar_writes_per_s"], row["batched_writes_per_s"],
             row["speedup"])
            for name, row in rows.items()
        ],
    )


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_batched_engine_outruns_scalar(report, scheme_name):
    scalar_result, scalar_s = _measure(scheme_name, fast=False)
    batched_result, batched_s = _measure(scheme_name, fast=True)

    # Fast is only allowed to be fast because it is *exact*.
    assert batched_result == scalar_result
    assert scalar_result.user_writes == N_WRITES

    speedup = scalar_s / batched_s
    report[scheme_name] = {
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "scalar_writes_per_s": round(N_WRITES / scalar_s),
        "batched_writes_per_s": round(N_WRITES / batched_s),
        "speedup": round(speedup, 2),
    }
    # Hard floor for CI (any machine): batched must not be slower.  The
    # committed BENCH_5.json documents the reference-machine speedup,
    # which is an order of magnitude for chunkable schemes.
    assert speedup > 1.0, (
        f"batched engine slower than scalar for {scheme_name}: "
        f"{batched_s:.3f}s vs {scalar_s:.3f}s"
    )

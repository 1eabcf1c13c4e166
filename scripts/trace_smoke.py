#!/usr/bin/env python
"""Traffic-layer smoke (``make trace-smoke``): convert, replay, mix.

End-to-end proof that the ``repro.traffic`` stack holds its contracts:

1. ``repro trace convert`` turns the bundled MSR-style CSV into
   ``.rbt`` — byte-identical to the committed fixture;
2. replaying that ``.rbt`` chunked (``run_trace_fast``) and entry-wise
   (``run_trace``) on Security RBSG gives bit-identical results and
   wear;
3. a 1000-tenant mixed population (zipf/uniform/sequential, churn)
   drives ``run_trace_fast`` on Security RBSG: scalar replay agrees
   bit-for-bit on a prefix, then the full budget writes a lifetime
   JSON document;
4. the ``tenant-lifetime`` example campaign grid aggregates
   byte-identically serial vs ``--workers 2``.

Exit 0 and a final ``trace-smoke: OK`` only if every step held.
Run from the repo root with ``PYTHONPATH=src``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.campaign.tasks import build_scheme  # noqa: E402
from repro.config import PCMConfig  # noqa: E402
from repro.sim.engine import run_trace, run_trace_fast  # noqa: E402
from repro.sim.memory_system import MemoryController  # noqa: E402
from repro.traffic import mixed_spec, open_trace_chunks  # noqa: E402

OUT_DIR = REPO / "build" / "trace-smoke"
CSV_FIXTURE = REPO / "tests" / "data" / "msr_sample.csv"
RBT_FIXTURE = REPO / "tests" / "data" / "msr_sample.rbt"
GRID_SPEC = REPO / "examples" / "campaigns" / "tenant_grid.toml"

N_LINES = 4096
SEED = 7


def cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO, env=env, check=True,
    )


def controller(endurance: float) -> MemoryController:
    scheme = build_scheme("security-rbsg", N_LINES, SEED, {})
    return MemoryController(
        scheme, PCMConfig(n_lines=N_LINES, endurance=endurance)
    )


def step_convert() -> Path:
    rbt = OUT_DIR / "msr_sample.rbt"
    cli("trace", "convert", str(CSV_FIXTURE), str(rbt),
        "--lines", str(N_LINES))
    assert rbt.read_bytes() == RBT_FIXTURE.read_bytes(), (
        "conversion no longer reproduces the committed .rbt fixture"
    )
    print("convert: CSV -> .rbt matches the committed fixture")
    return rbt


def step_replay_bit_identity(rbt: Path) -> None:
    fast_ctrl = controller(endurance=100)
    fast = run_trace_fast(
        fast_ctrl, open_trace_chunks(rbt, n_lines=N_LINES)
    )
    scalar_ctrl = controller(endurance=100)
    scalar = run_trace(
        scalar_ctrl, open_trace_chunks(rbt, n_lines=N_LINES)
    )
    assert fast == scalar, (fast, scalar)
    assert np.array_equal(fast_ctrl.array.wear, scalar_ctrl.array.wear)
    assert fast.user_writes == 5354
    print(f"replay: chunked == entry-wise on security-rbsg "
          f"({fast.user_writes} writes, {fast.elapsed_ns:.0f} ns)")


def step_tenant_mix() -> None:
    spec = mixed_spec(1000, alpha=1.2, churn_interval=50_000)
    mixer = spec.build_mixer(N_LINES, SEED)
    assert mixer.n_tenants == 1000

    # Scalar agreement on a prefix (full scalar run would just be slow).
    fast_ctrl = controller(endurance=400)
    fast = run_trace_fast(fast_ctrl, mixer.chunks(), max_writes=60_000)
    scalar_ctrl = controller(endurance=400)
    scalar = run_trace(scalar_ctrl, mixer.chunks(), max_writes=60_000)
    assert fast == scalar, (fast, scalar)
    assert np.array_equal(fast_ctrl.array.wear, scalar_ctrl.array.wear)

    full_ctrl = controller(endurance=400)
    result = run_trace_fast(
        full_ctrl, mixer.chunks(), max_writes=1_000_000
    )
    document = {
        "scheme": "security-rbsg",
        "tenants": mixer.n_tenants,
        "churn_interval": spec.churn_interval,
        "user_writes": result.user_writes,
        "total_writes": result.total_writes,
        "elapsed_ns": result.elapsed_ns,
        "write_amplification": result.write_amplification,
        "failed": result.failed,
        "failed_pa": result.failed_pa,
        "lifetime_seconds": result.lifetime_seconds,
    }
    target = OUT_DIR / "lifetime.json"
    target.write_text(json.dumps(document, sort_keys=True, indent=2))
    loaded = json.loads(target.read_text())
    assert loaded["tenants"] == 1000
    assert loaded["user_writes"] > 0
    assert loaded["write_amplification"] >= 1.0
    print(f"tenants: 1000-tenant mix, scalar prefix agrees; lifetime "
          f"JSON at {target.relative_to(REPO)} "
          f"(failed={loaded['failed']}, "
          f"writes={loaded['user_writes']})")


def step_campaign_determinism() -> None:
    reports = {}
    for label, workers in (("serial", 1), ("parallel", 2)):
        out = OUT_DIR / f"grid-{label}"
        cli("campaign", "run", str(GRID_SPEC), "--out", str(out),
            "--workers", str(workers), "--quiet")
        report = out / "report.json"
        cli("campaign", "report", str(out), "--format", "json",
            "--output", str(report))
        reports[label] = report.read_bytes()
    assert reports["serial"] == reports["parallel"], (
        "tenant-lifetime campaign aggregate differs serial vs parallel"
    )
    print("campaign: tenant-grid aggregate byte-identical "
          "serial vs --workers 2")


def main() -> int:
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    OUT_DIR.mkdir(parents=True)
    rbt = step_convert()
    step_replay_bit_identity(rbt)
    step_tenant_mix()
    step_campaign_determinism()
    print("trace-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ff-lifetime --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs a fixed set of units with every layer wrapped, re-runs them
untraced for the tracing overhead, and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (metadata, per-unit simulated statistics, spans) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json`` or ``--out``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started for ``setup_s`` before the timed units and
#: again after them, so the median spans the run's drift in host speed.
SETUP_SAMPLES = (4, 5)
#: Host seconds one batch of units takes today.  A traced run covers
#: ``round(seconds / (2 * nominal))`` batches, traced and then untraced,
#: so its counts depend only on ``--seed`` and ``--seconds``.
NOMINAL_BATCH_S = {"ff-lifetime": 13.0, "tenant-replay": 2.5,
                   "rta-rbsg": 3.2}


def _fingerprint() -> Dict[str, Any]:
    import numpy

    info: Dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu_model": None,
        "l2_cache": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info["l2_cache"] = Path(
            "/sys/devices/system/cpu/cpu0/cache/index2/size"
        ).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    return info


def _setup_seconds(workload: str, unit_seed: int, count: int) -> List[float]:
    """Fresh interpreter to first simulated write, ``count`` times."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(unit_seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def untraced(workload, seed: int, seconds: float, sizes) -> Dict[str, Any]:
    """End-to-end metrics of a time-bounded untraced run."""
    import workloads

    first = next(workload.units(seed, sizes))[0]
    setup = _setup_seconds(workload.name, first, SETUP_SAMPLES[0])
    records = workloads.run_timed(workload, seed, sizes, seconds)
    peak = _peak_rss_mb()
    setup += _setup_seconds(workload.name, first, SETUP_SAMPLES[1])
    if workload.name == "tenant-replay":
        records[0].problems += workloads.replay_prefix_problems(
            records[0].seed, sizes)
    host = [r.host_s for r in records]
    unit_s = statistics.mean(host)
    metrics = {
        "unit_s": {"value": unit_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    # Every replay unit replays exactly ``replay_writes`` (a checked
    # output), so replay_wps is unit_s restated, not a second measurement.
    name, value, unit = {
        "ff-lifetime": ("lifetime_s", unit_s, "s"),
        "tenant-replay": ("replay_wps", sizes.replay_writes / unit_s, "1/s"),
        "rta-rbsg": ("attack_s", statistics.median(host), "s"),
    }[workload.name]
    print(f"{name} = {value:.6g} {unit}  (units {len(host)}, "
          f"mean {unit_s:.4f} s, median {statistics.median(host):.4f} s)")
    return {"metrics": metrics, "records": records, "setup_samples": setup,
            "named": {name: {"value": value, "unit": unit}}}


def traced(workload, seed: int, seconds: float, sizes) -> Dict[str, Any]:
    """Per-layer metrics of a fixed set of units, traced then untraced."""
    import layers
    import workloads
    from tracer import Tracer

    batches = max(1, round(seconds / (2 * NOMINAL_BATCH_S[workload.name])))
    seeds = workloads.fixed_units(workload, seed, sizes, batches)
    tracer = Tracer()
    records, plain = [], []
    # Each unit runs traced and then untraced, back to back, so the
    # overhead ratio compares the two under the same host conditions.
    for unit_seed in seeds:
        layers.instrument_modules(tracer)
        try:
            record = workloads.run_unit(workload, unit_seed, sizes, tracer)
        finally:
            tracer.unwrap()
        reference = workloads.run_unit(workload, unit_seed, sizes)
        if record.simulated() != reference.simulated():
            record.problems.append("tracing changed the simulated statistics")
        record.problems += reference.problems
        records.append(record)
        plain.append(reference)
    traced_s = sum(r.host_s for r in records)
    untraced_s = sum(r.host_s for r in plain)
    metrics = layers.layer_metrics(
        tracer, units=len(records),
        user_writes=sum(r.user_writes for r in records),
        traced_s=traced_s, untraced_s=untraced_s,
    )
    top = tracer.top_level()
    print(f"tracing overhead = {traced_s:.3f} s traced / "
          f"{untraced_s:.3f} s untraced = "
          f"{metrics['bench.trace_overhead']['value']:.3f} "
          f"over {len(records)} units")
    for name, spent in sorted(top.items()):
        print(f"  top-level {name}: {spent:.3f} s "
              f"({spent / traced_s:.1%} of traced wall)")
    return {"metrics": metrics, "records": records, "spans": tracer.table(),
            "counters": dict(tracer.counters), "top_level": top}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.Sizes()
    pool = next(workload.units(args.seed, sizes))
    document: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "held_out_seed": workload.held_out(args.seed, sizes),
        "machine": _fingerprint(),
    }
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}; "
          f"first unit seeds {pool}, held-out seed "
          f"{document['held_out_seed']}")
    run = traced if args.trace else untraced
    document.update(run(workload, args.seed, args.seconds, sizes))
    metrics, records = document["metrics"], document["records"]
    failed = sum(1 for r in records if r.problems)
    for record in records:
        for problem in record.problems:
            print(f"FAILED unit seed {record.seed}: {problem}")
    print(f"fail_ratio = {failed}/{len(records)} = "
          f"{failed / len(records):.4f}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    document.update(
        records=[r.to_dict() for r in records],
        unit_seeds=[r.seed for r in records],
        attempted=len(records), failed=failed,
    )
    out = args.out or HERE / "results" / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

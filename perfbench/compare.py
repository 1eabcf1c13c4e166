"""List simulated statistics and deterministic counts that differ.

Usage: ``python3 perfbench/compare.py A.json B.json``

``A`` and ``B`` are result files written by ``run.py``.  Work units are
matched by workload and seed; for every unit present in both, each field
of :data:`workloads.UnitRecord.SIMULATED` must be identical.  When both
files are traced runs of the same units, every per-layer count metric
must be identical too.  A change that only speeds the simulator up must
print nothing and exit 0; any difference is printed and exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layers import COUNT_UNITS  # noqa: E402
from workloads import UnitRecord  # noqa: E402


def differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Human-readable lines, one per differing statistic or count."""
    out: List[str] = []
    units_a = {(r["workload"], r["seed"]): r for r in a["records"]}
    units_b = {(r["workload"], r["seed"]): r for r in b["records"]}
    for key in sorted(units_a.keys() & units_b.keys()):
        ra, rb = units_a[key], units_b[key]
        for name in UnitRecord.SIMULATED:
            if ra.get(name) != rb.get(name):
                out.append(f"{key[0]} seed {key[1]}: {name} "
                           f"{ra.get(name)!r} != {rb.get(name)!r}")
    if (a.get("trace") and b.get("trace")
            and a.get("unit_seeds") == b.get("unit_seeds")):
        for name, metric in sorted(a["metrics"].items()):
            other = b["metrics"].get(name)
            if metric["unit"] in COUNT_UNITS and (
                    other is None or other["value"] != metric["value"]):
                out.append(f"{a['workload']}: {name} {metric['value']!r} != "
                           f"{None if other is None else other['value']!r}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    lines = differences(a, b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

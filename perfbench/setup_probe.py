"""One set-up sample for ``setup_s``, in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``

Imports the simulator, builds the first work unit's scheme, controller
and trace source, and prints ``time.monotonic()`` at the point where the
first simulated write would be issued.  ``CLOCK_MONOTONIC`` is shared by
every process, so the parent subtracts its own reading taken just before
it started this interpreter.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]), workloads.Sizes())
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()

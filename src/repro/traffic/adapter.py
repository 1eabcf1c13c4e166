"""Glue between the traffic layer and the exact simulator.

Two jobs:

* :func:`open_trace_chunks` — one dispatch point that turns *any*
  on-disk trace (MSR/SNIA CSV, gzipped CSV, ``.rbt``) into a chunked
  stream, by suffix with a magic-byte fallback.  Every engine driver
  takes it directly (:func:`repro.sim.engine.run_trace` unrolls it
  entry-wise through :func:`repro.sim.trace.trace_entries`).
* :func:`convert_to_rbt` — CSV → ``.rbt`` conversion with the windowing
  already applied, so the binary file replays with zero further
  normalisation.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, Union

from repro.pcm.timing import ALL1, LineData
from repro.sim.trace import TraceChunk
from repro.traffic.csvtrace import (
    AddressWindow,
    csv_trace_chunks,
)
from repro.traffic.errors import TraceFileMissingError
from repro.traffic.rbt import read_rbt_chunks, write_rbt

PathLike = Union[str, Path]

_RBT_SUFFIX = ".rbt"


def _is_rbt(path: Path) -> bool:
    if path.suffix == _RBT_SUFFIX:
        return True
    if not path.exists():
        raise TraceFileMissingError(f"{path}: no such trace file")
    with open(path, "rb") as handle:
        return handle.read(3) == b"RBT"


def trace_format(path: PathLike) -> str:
    """``"rbt"`` or ``"csv"``, by suffix with a magic-byte fallback."""
    return "rbt" if _is_rbt(Path(path)) else "csv"


def open_trace_chunks(
    path: PathLike,
    *,
    n_lines: int,
    line_bytes: int = 64,
    window_start: int = 0,
    window_mode: str = "wrap",
    data: LineData = ALL1,
    batch: int = 8192,
) -> Iterator[TraceChunk]:
    """Open any supported trace file as a chunked stream.

    ``.rbt`` files replay as stored (their addresses were normalised at
    conversion time); CSV files are normalised here through an
    :class:`~repro.traffic.csvtrace.AddressWindow` built from
    ``n_lines``/``window_start``/``window_mode``.
    """
    source = Path(path)
    if _is_rbt(source):
        return read_rbt_chunks(source)
    return csv_trace_chunks(
        source,
        window=AddressWindow(
            n_lines=n_lines, start=window_start, mode=window_mode
        ),
        line_bytes=line_bytes,
        data=data,
        batch=batch,
    )


def convert_to_rbt(
    csv_path: PathLike,
    rbt_path: PathLike,
    *,
    n_lines: int,
    line_bytes: int = 64,
    window_start: int = 0,
    window_mode: str = "wrap",
    data: LineData = ALL1,
    batch: int = 8192,
) -> int:
    """Convert a CSV trace to ``.rbt``, normalising addresses now.

    Returns the number of line writes stored.  The conversion
    parameters are recorded in the ``.rbt`` metadata so ``repro trace
    info`` can show where a binary trace came from.
    """
    metadata: Dict[str, object] = {
        "source": str(Path(csv_path).name),
        "n_lines": int(n_lines),
        "line_bytes": int(line_bytes),
        "window_start": int(window_start),
        "window_mode": window_mode,
        "data": LineData(data).name,
    }
    return write_rbt(
        rbt_path,
        csv_trace_chunks(
            csv_path,
            window=AddressWindow(
                n_lines=n_lines, start=window_start, mode=window_mode
            ),
            line_bytes=line_bytes,
            data=data,
            batch=batch,
        ),
        metadata=metadata,
        batch=batch,
    )

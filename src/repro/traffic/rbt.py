"""``.rbt`` — the repro binary trace: chunked, versioned, zero-copy.

A compact on-disk format whose reader yields ``(las, datas)`` numpy
chunks straight into :func:`repro.sim.engine.run_trace_fast` without
per-entry Python objects.  Layout (all integers little-endian)::

    magic    4 bytes   b"RBT\\x01"  (the byte is the format version)
    hlen     4 bytes   uint32 — length of the JSON header that follows
    header   hlen bytes  UTF-8 JSON: dtypes, entry count, user metadata
    chunks   repeated:
        n       4 bytes  uint32 — entries in this chunk (never 0)
        las     n * 8 bytes  int64 line addresses
        datas   n * 1 bytes  int8 LineData classes

The header records ``{"las_dtype": "<i8", "datas_dtype": "i1",
"n_entries": N, "meta": {...}}``; readers check the dtypes so a file
written by a foreign tool cannot silently misparse.  End of file is
only legal on a chunk boundary — anything else raises
:class:`~repro.traffic.errors.TraceFileTruncatedError`.  The chunk
arrays are built with :func:`numpy.frombuffer` over the read buffer
(zero-copy; the las array is handed out read-only).

Writers accept any trace granularity (:func:`repro.sim.trace.
trace_chunks`) — a :class:`~repro.sim.trace.TraceSpec`, scalar
:class:`~repro.sim.trace.TraceEntry` iterators or native chunk streams —
so any synthetic, loaded or recorded trace in the repo converts.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Union

import numpy as np

from repro.sim.trace import Trace, TraceChunk, trace_chunks
from repro.traffic.errors import (
    TraceFileCorruptError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    TraceFileVersionError,
)

PathLike = Union[str, Path]

MAGIC = b"RBT"
FORMAT_VERSION = 1

_LAS_DTYPE = "<i8"
_DATAS_DTYPE = "i1"
_CHUNK_HEADER = struct.Struct("<I")


def _read_exact(handle: IO[bytes], n: int, path: Path, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise TraceFileTruncatedError(
            f"{path}: truncated .rbt file — expected {n} byte(s) of "
            f"{what}, got {len(data)}; re-write it with write_rbt"
        )
    return data


def _read_header(handle: IO[bytes], path: Path) -> Dict[str, object]:
    magic = handle.read(4)
    if len(magic) < 4:
        raise TraceFileTruncatedError(
            f"{path}: truncated .rbt file — shorter than its magic"
        )
    if magic[:3] != MAGIC:
        raise TraceFileCorruptError(
            f"{path}: not an .rbt trace (bad magic {magic[:3]!r})"
        )
    version = magic[3]
    if version != FORMAT_VERSION:
        raise TraceFileVersionError(
            f"{path}: .rbt format version {version} is not supported "
            f"(this reader understands version {FORMAT_VERSION})"
        )
    (hlen,) = _CHUNK_HEADER.unpack(
        _read_exact(handle, 4, path, "header length")
    )
    raw = _read_exact(handle, hlen, path, "JSON header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise TraceFileCorruptError(
            f"{path}: corrupt .rbt JSON header ({exc})"
        ) from exc
    if not isinstance(header, dict):
        raise TraceFileCorruptError(
            f"{path}: .rbt header is not a JSON object"
        )
    for key, expected in (("las_dtype", _LAS_DTYPE),
                          ("datas_dtype", _DATAS_DTYPE)):
        if header.get(key) != expected:
            raise TraceFileCorruptError(
                f"{path}: .rbt header declares {key}={header.get(key)!r}; "
                f"this reader requires {expected!r}"
            )
    count = header.get("n_entries")
    if isinstance(count, str) and set(count) == {"@"}:
        raise TraceFileTruncatedError(
            f"{path}: .rbt writer died before finalizing the header; "
            "re-write it with write_rbt"
        )
    try:
        header["n_entries"] = int(str(count))
    except (TypeError, ValueError) as exc:
        raise TraceFileCorruptError(
            f"{path}: .rbt header lacks a usable n_entries "
            f"(got {count!r})"
        ) from exc
    return header


def rbt_metadata(path: PathLike) -> Dict[str, object]:
    """Read the header of an ``.rbt`` file: dtypes, counts, user metadata."""
    source = Path(path)
    if not source.exists():
        raise TraceFileMissingError(f"{source}: no such trace file")
    with open(source, "rb") as handle:
        return _read_header(handle, source)


def read_rbt_chunks(path: PathLike) -> Iterator[TraceChunk]:
    """Stream ``(las, datas)`` chunks from an ``.rbt`` file.

    The header is read and validated eagerly at the call; chunk payloads
    stream lazily.  Arrays are :func:`numpy.frombuffer` views over the
    read buffer (no copy); treat them as read-only.
    """
    source = Path(path)
    if not source.exists():
        raise TraceFileMissingError(f"{source}: no such trace file")
    handle = open(source, "rb")
    try:
        header = _read_header(handle, source)
    except Exception:
        handle.close()
        raise
    declared = int(header["n_entries"])  # normalised by _read_header

    def chunks() -> Iterator[TraceChunk]:
        seen = 0
        with handle:
            while True:
                head = handle.read(4)
                if len(head) == 0:
                    break
                if len(head) < 4:
                    raise TraceFileTruncatedError(
                        f"{source}: truncated .rbt file — partial chunk "
                        "header at EOF"
                    )
                (n,) = _CHUNK_HEADER.unpack(head)
                if n == 0:
                    raise TraceFileCorruptError(
                        f"{source}: corrupt .rbt file — zero-length chunk"
                    )
                payload = _read_exact(
                    handle, n * 9, source, f"chunk payload ({n} entries)"
                )
                las = np.frombuffer(payload, dtype=_LAS_DTYPE, count=n)
                datas = np.frombuffer(
                    payload, dtype=_DATAS_DTYPE, count=n, offset=n * 8
                )
                seen += n
                yield las, datas
        if seen != declared:
            raise TraceFileTruncatedError(
                f"{source}: .rbt header declares {declared} entries but "
                f"the chunks hold {seen}"
            )

    return chunks()


def write_rbt(
    path: PathLike,
    trace: Trace,
    *,
    metadata: Optional[Dict[str, object]] = None,
    batch: int = 8192,
) -> int:
    """Convert any trace — a spec, scalar entries or native chunks — to
    ``.rbt``.

    Returns the number of entries written.  The header's ``n_entries``
    count is patched in after the chunk walk, so readers can detect a
    writer that died mid-stream.  Scalar input is batched ``batch`` at a
    time; chunked input keeps its own chunk boundaries.
    """
    target = Path(path)
    header: Dict[str, object] = {
        "las_dtype": _LAS_DTYPE,
        "datas_dtype": _DATAS_DTYPE,
        "n_entries": 0,
        "meta": dict(metadata or {}),
    }
    # Fixed-width n_entries placeholder so the patch-in-place below
    # cannot change the header length.
    total = 0
    with open(target, "wb") as handle:
        handle.write(MAGIC + bytes([FORMAT_VERSION]))
        raw = json.dumps(
            {**header, "n_entries": "@" * 20}, sort_keys=True
        ).encode("utf-8")
        handle.write(_CHUNK_HEADER.pack(len(raw)))
        header_at = handle.tell()
        handle.write(raw)
        for las, datas in trace_chunks(trace, batch):
            n = int(las.size)
            if n == 0:
                continue
            las64 = np.ascontiguousarray(las, dtype=_LAS_DTYPE)
            datas8 = np.ascontiguousarray(datas, dtype=_DATAS_DTYPE)
            if datas8.size != n:
                raise ValueError(
                    f"chunk las/datas length mismatch: {n} vs {datas8.size}"
                )
            handle.write(_CHUNK_HEADER.pack(n))
            handle.write(las64.tobytes())
            handle.write(datas8.tobytes())
            total += n
        patched = json.dumps(
            {**header, "n_entries": f"{total:020d}"}, sort_keys=True
        ).encode("utf-8")
        assert len(patched) == len(raw)
        handle.seek(header_at)
        handle.write(patched)
    return total


def rbt_n_entries(path: PathLike) -> int:
    """The entry count a well-formed header declares."""
    return int(rbt_metadata(path)["n_entries"])  # type: ignore[arg-type]

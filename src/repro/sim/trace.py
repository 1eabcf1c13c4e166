"""Write traces: the entry record, the synthetic-trace spec, and the
granularity adapters.

A trace reaches an engine in one of three shapes:

* a :class:`TraceSpec` — a synthetic trace named by its distribution:
  the benign uniform / skewed (zipf) / sequential traffic the paper's
  discussion relies on, or the single-address stream of a Repeated
  Address Attack.  It is the one way to build a synthetic trace;
* a *chunked* stream of ``(las, datas)`` numpy array pairs — what
  recorded traces (:mod:`repro.traffic`) yield and the vectorized fast
  engine (:func:`repro.sim.engine.run_trace_fast`) consumes without
  per-entry Python objects;
* a *scalar* stream of :class:`TraceEntry` objects (``la`` always a plain
  ``int``) — what attacks emit and the scalar engine replays.

:func:`trace_chunks` and :func:`trace_entries` turn any of the three into
the granularity an engine wants without changing the write stream, so an
experiment can switch engines without changing its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.pcm.timing import ALL1, LineData
from repro.util.rng import SeedLike, as_generator

TraceChunk = Tuple[np.ndarray, np.ndarray]

TRACE_KINDS = ("uniform", "zipf", "sequential", "raa")


@dataclass(frozen=True)
class TraceEntry:
    """One logical write: target address and the data latency class."""

    la: int
    data: LineData = ALL1


@dataclass
class TraceSpec:
    """A synthetic trace *by distribution*, not by materialised writes.

    ``kind`` is one of :data:`TRACE_KINDS`: ``uniform`` random addresses;
    ``zipf``, where rank ``r`` (0-based) is written with probability
    proportional to ``(r+1)**-alpha`` and ranks are identity-mapped, so
    address 0 is the hottest line; ``sequential`` round-robin over the
    address space; or ``raa``, which hammers ``target``.
    ``n_writes=None`` is unbounded.

    Stateful: :meth:`chunks` draws ``batch`` addresses per chunk (one RNG
    draw per chunk; for uniform and zipf the stream does not depend on
    ``batch``), advancing :attr:`pos`; the analytic driver instead
    *skips* writes with :meth:`skip`, so a chunk-exact tail resumes
    exactly where the analytic prefix left the trace position.

    Every engine tier accepts a spec: the scalar and chunk engines expand
    it through :func:`trace_entries`/:func:`trace_chunks`, the
    fast-forward driver hands it to the scheme whole.
    """

    kind: str
    n_lines: int
    n_writes: Optional[int] = None
    data: LineData = ALL1
    alpha: float = 1.2
    target: int = 0
    seed: SeedLike = None
    batch: int = 8192
    pos: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; expected one of {TRACE_KINDS}"
            )
        if self.n_lines < 1:
            raise ValueError("n_lines must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.kind == "zipf" and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.kind == "raa" and not 0 <= self.target < self.n_lines:
            raise ValueError(f"raa target {self.target} outside [0, {self.n_lines})")
        self._gen: Optional[np.random.Generator] = None
        self._weights: Optional[np.ndarray] = None

    # ------------------------------------------------------------ queries

    def remaining(self) -> Optional[int]:
        """Writes left in the stream (None = unbounded)."""
        if self.n_writes is None:
            return None
        return max(self.n_writes - self.pos, 0)

    def weights(self) -> Optional[np.ndarray]:
        """Per-LA write probabilities (zipf only; None = uniform/other)."""
        if self.kind != "zipf":
            return None
        if self._weights is None:
            ranks = np.arange(1, self.n_lines + 1, dtype=np.float64)
            w = ranks ** (-self.alpha)
            self._weights = w / w.sum()
        return self._weights

    # ----------------------------------------------------------- consume

    def skip(self, n: int) -> None:
        """Advance the trace position by ``n`` writes without drawing them.

        Used by the analytic driver: the skipped writes' random draws are
        never made (their aggregate effect was applied in closed form), so
        a subsequent :meth:`chunks` tail continues the generator stream
        from wherever it stood — sequential phase stays exact.
        """
        if n < 0:
            raise ValueError("cannot skip a negative number of writes")
        self.pos += n

    def chunks(self) -> Iterator[TraceChunk]:
        """Chunked ``(las, datas)`` stream from the current position."""
        if self._gen is None:
            self._gen = as_generator(self.seed)
        gen = self._gen
        datas_of = lambda size: np.full(size, int(self.data), dtype=np.int8)
        while self.n_writes is None or self.pos < self.n_writes:
            size = (
                self.batch
                if self.n_writes is None
                else min(self.batch, self.n_writes - self.pos)
            )
            if self.kind == "uniform":
                las = np.asarray(
                    gen.integers(0, self.n_lines, size=size), dtype=np.int64
                )
            elif self.kind == "zipf":
                las = np.asarray(
                    gen.choice(self.n_lines, size=size, p=self.weights()),
                    dtype=np.int64,
                )
            elif self.kind == "sequential":
                las = (
                    np.arange(self.pos, self.pos + size, dtype=np.int64)
                    % self.n_lines
                )
            else:  # raa
                las = np.full(size, self.target, dtype=np.int64)
            self.pos += size
            yield las, datas_of(size)


#: Anything an engine accepts as a trace.
Trace = Union[TraceSpec, Iterable[TraceEntry], Iterable[TraceChunk]]


def _peek(trace: Iterable[Any]) -> Tuple[Any, Iterator[Any]]:
    """The first item of ``trace`` (None when empty) and the full stream."""
    it = iter(trace)
    try:
        first = next(it)
    except StopIteration:
        return None, iter(())
    return first, chain([first], it)


def trace_chunks(trace: Trace, batch: int = 4096) -> Iterator[TraceChunk]:
    """Any trace as ``(las, datas)`` array chunks.

    A :class:`TraceSpec` expands to its chunk stream, a chunked stream
    passes through untouched, and a scalar :class:`TraceEntry` stream
    (attack streams, hand-built traces) is batched ``batch`` at a time.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if isinstance(trace, TraceSpec):
        return trace.chunks()
    first, stream = _peek(trace)
    if not isinstance(first, TraceEntry):
        return stream
    return _batched(stream, batch)


def _batched(entries: Iterator[TraceEntry], batch: int) -> Iterator[TraceChunk]:
    while True:
        block = list(islice(entries, batch))
        if not block:
            return
        las = np.fromiter(
            (entry.la for entry in block), dtype=np.int64, count=len(block)
        )
        datas = np.fromiter(
            (int(entry.data) for entry in block),
            dtype=np.int8,
            count=len(block),
        )
        yield las, datas


def trace_entries(trace: Trace) -> Iterator[TraceEntry]:
    """Any trace as :class:`TraceEntry` objects (``la`` a plain ``int``).

    The inverse of :func:`trace_chunks`: a :class:`TraceSpec` or chunked
    ``(las, datas)`` stream is unrolled entry-wise; an entry stream passes
    through untouched.  This is what lets the scalar engine consume a
    trace built for the fast one.
    """
    chunks = trace.chunks() if isinstance(trace, TraceSpec) else trace
    first, stream = _peek(chunks)
    if first is None or isinstance(first, TraceEntry):
        yield from stream
        return
    for las, datas in stream:
        for la, data in zip(las.tolist(), datas.tolist()):
            yield TraceEntry(la=la, data=LineData(data))

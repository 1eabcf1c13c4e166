"""Exact per-write simulation drivers.

Two drivers, one result type:

* :func:`run_trace` — the scalar reference: one Python call chain per
  logical write.
* :func:`run_trace_fast` — the chunked fast path: translates and applies
  whole remap-free runs of writes as numpy array operations, dropping to
  the scalar path only for the writes that may trigger a remap (and for
  schemes/configurations that cannot be chunked).  Bit-identical to
  :func:`run_trace`: same ``elapsed_ns``, ``total_writes``, per-line
  wear, failure PA, and RNG stream.  See ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.pcm.array import LineFailure
from repro.pcm.timing import LineData
from repro.sim.fastforward import fast_forward_engaged, run_fast_forward
from repro.sim.memory_system import MemoryController
from repro.sim.trace import Trace, TraceSpec, trace_chunks, trace_entries


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of driving a controller with a write stream."""

    user_writes: int  #: logical writes issued before stopping
    total_writes: int  #: physical writes including remap movements
    elapsed_ns: float  #: simulated time
    failed: bool  #: True if a line exhausted its endurance
    failed_pa: Optional[int] = None  #: physical address of the first failure

    @property
    def lifetime_seconds(self) -> float:
        """Simulated seconds until the stream ended or the device failed."""
        return self.elapsed_ns * 1e-9

    @property
    def write_amplification(self) -> float:
        """Physical writes per user write (wear-leveling overhead + 1)."""
        if self.user_writes == 0:
            return 0.0
        return self.total_writes / self.user_writes


def run_trace(
    controller: MemoryController,
    trace: Trace,
    max_writes: Optional[int] = None,
) -> SimulationResult:
    """Drive the controller with ``trace`` until it ends, fails, or hits
    ``max_writes`` user writes.

    ``trace`` may have any granularity; it is replayed one
    :class:`~repro.sim.trace.TraceEntry` at a time through
    :func:`repro.sim.trace.trace_entries`.
    """
    user_writes = 0
    try:
        for entry in trace_entries(trace):
            if max_writes is not None and user_writes >= max_writes:
                break
            # reprolint: disable=REP002 trace replay; elapsed_ns accounts it
            controller.write(entry.la, entry.data)
            user_writes += 1
    except LineFailure as failure:
        # The array keeps the failure as ``first_failure``; dropping the
        # traceback breaks the array -> failure -> frames -> array cycle,
        # so the run's arrays are freed by reference counting instead of
        # lingering until the next full garbage collection.
        failure.__traceback__ = None
        return SimulationResult(
            user_writes=user_writes + 1,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=True,
            failed_pa=failure.pa,
        )
    return SimulationResult(
        user_writes=user_writes,
        total_writes=controller.total_writes,
        elapsed_ns=controller.elapsed_ns,
        failed=False,
    )


def run_trace_fast(
    controller: MemoryController,
    trace: Trace,
    max_writes: Optional[int] = None,
    *,
    batch: int = 8192,
    fast_forward: str = "off",
) -> SimulationResult:
    """Chunked twin of :func:`run_trace`; bit-identical results.

    ``trace`` may have any granularity (see :func:`repro.sim.trace.
    trace_chunks`): a :class:`~repro.sim.trace.TraceSpec` naming a
    distribution, a native chunked stream of ``(las, datas)`` arrays,
    which skips per-entry Python objects entirely, or a scalar
    :class:`~repro.sim.trace.TraceEntry` stream, batched here.

    Each chunk is cut at remap boundaries by the scheme itself
    (``consume_chunk``); the boundary writes — and everything else when a
    scheme cannot bound its next remap — run through the scalar
    ``controller.write``, so remap movements and every RNG draw happen in
    exactly the scalar order.  Failures mid-chunk are attributed to the
    precise failing write via ``LineFailure.chunk_index``.

    ``fast_forward`` selects the analytic third tier (requires a
    ``TraceSpec`` trace): ``"off"`` (default — preserves the bit-identity
    contract above), ``"auto"`` (engage at paper-like scale when the
    scheme and configuration allow; fall through to chunk-exact
    otherwise), or ``"analytic"`` (engage whenever possible, for
    validation runs).  See :mod:`repro.sim.fastforward`.
    """
    if fast_forward_engaged(controller, trace, fast_forward):
        assert isinstance(trace, TraceSpec)
        return run_fast_forward(controller, trace, max_writes, batch=batch)
    user_writes = 0
    try:
        for las, datas in trace_chunks(trace, batch):
            pos = 0
            size = int(las.size)
            while pos < size:
                if max_writes is not None and user_writes >= max_writes:
                    break
                end = size
                if max_writes is not None:
                    end = min(size, pos + (max_writes - user_writes))
                _, n = controller.write_chunk(las[pos:end], datas[pos:end])
                if n == 0:
                    # The next write may remap: issue it scalar.
                    # reprolint: disable=REP002 trace replay
                    controller.write(int(las[pos]), LineData(int(datas[pos])))
                    n = 1
                user_writes += n
                pos += n
            if max_writes is not None and user_writes >= max_writes:
                break
    except LineFailure as failure:
        failure.__traceback__ = None  # see run_trace
        completed = failure.chunk_index if failure.chunk_index is not None else 0
        return SimulationResult(
            user_writes=user_writes + completed + 1,
            total_writes=controller.total_writes,
            elapsed_ns=controller.elapsed_ns,
            failed=True,
            failed_pa=failure.pa,
        )
    return SimulationResult(
        user_writes=user_writes,
        total_writes=controller.total_writes,
        elapsed_ns=controller.elapsed_ns,
        failed=False,
    )

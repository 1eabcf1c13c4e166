"""Memory controller: binds a wear-leveling scheme to a PCM array.

The controller is the attacker's only interface in the exact simulations:
``write(la, data)`` returns the observed latency, which includes the latency
of any remap movement the write triggered — the paper's premise that
"remapping halts other requests until it is completed thus incurs extra
latency to the request which happens just following the remapping".
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import PCMConfig
from repro.pcm.array import PCMArray
from repro.pcm.health import DeviceHealth
from repro.pcm.timing import LineData
from repro.util.rng import SeedLike
from repro.wearlevel.base import CopyMove, SwapMove, WearLeveler


class MemoryController:
    """Executes logical reads/writes through a wear-leveling scheme.

    Parameters
    ----------
    scheme:
        Any :class:`~repro.wearlevel.base.WearLeveler`; its ``n_lines`` must
        match ``config.n_lines``.
    config:
        PCM device parameters.
    raise_on_failure:
        Forwarded to :class:`~repro.pcm.array.PCMArray`; when True (default)
        the first worn-out line raises
        :class:`~repro.pcm.array.LineFailure`, ending a lifetime experiment.
    memmap_dir:
        Forwarded to :class:`~repro.pcm.array.PCMArray`: when set the
        array's per-line wear and data live in ``np.memmap`` files under
        this directory, so paper-scale devices need not fit in RAM.
    """

    def __init__(
        self,
        scheme: WearLeveler,
        config: PCMConfig,
        raise_on_failure: bool = True,
        initial_data: LineData = LineData.ALL0,
        endurance_variation: float = 0.0,
        rng: SeedLike = None,
        fault_rng: SeedLike = None,
        memmap_dir: Optional[str] = None,
    ) -> None:
        if scheme.n_lines != config.n_lines:
            raise ValueError(
                f"scheme exposes {scheme.n_lines} lines but config declares "
                f"{config.n_lines}"
            )
        self.scheme = scheme
        self.config = config
        self.array = PCMArray(
            config,
            n_physical=scheme.n_physical,
            initial_data=initial_data,
            raise_on_failure=raise_on_failure,
            endurance_variation=endurance_variation,
            rng=rng,
            fault_rng=fault_rng,
            memmap_dir=memmap_dir,
        )

    # ----------------------------------------------------------------- API

    def _check_la(self, la: int) -> None:
        if not 0 <= la < self.config.n_lines:
            raise ValueError(
                f"logical address {la} outside [0, {self.config.n_lines})"
            )

    def write(self, la: int, data: LineData) -> float:
        """Write ``data`` to logical line ``la``; return observed latency (ns).

        Any remap movements triggered by this write execute first and their
        latency is folded into the returned value — this is the remapping
        side channel.
        """
        self._check_la(la)
        latency = 0.0
        for move in self.scheme.record_write(la):
            if isinstance(move, CopyMove):
                latency += self.array.copy(move.src, move.dst)
            elif isinstance(move, SwapMove):
                latency += self.array.swap(move.pa_a, move.pa_b)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown move type {type(move)!r}")
        pa = self.scheme.translate(la)
        latency += self.array.write(pa, data)
        return latency

    def write_chunk(
        self, las: np.ndarray, datas: np.ndarray
    ) -> Tuple[float, int]:
        """Write the longest remap-free prefix of a chunk in one batch.

        Returns ``(latency_ns, n)``: the accumulated latency of the ``n``
        writes executed.  ``n == 0`` means the very next write may trigger
        a remap and must go through the scalar :meth:`write` (remap
        movements are rare and attacker-observable, so they always execute
        scalar).  Bit-identical to ``n`` scalar :meth:`write` calls — see
        :meth:`repro.pcm.array.PCMArray.write_many` for the guarantees.
        """
        las = np.asarray(las, dtype=np.int64)
        if las.size and (int(las.min()) < 0 or int(las.max()) >= self.config.n_lines):
            bad = las[(las < 0) | (las >= self.config.n_lines)][0]
            self._check_la(int(bad))
        pas, n = self.scheme.consume_chunk(las)
        if n == 0:
            return 0.0, 0
        return self.array.write_many(pas, np.asarray(datas)[:n]), n

    def read(self, la: int) -> Tuple[LineData, float]:
        """Read logical line ``la``; return ``(data, latency_ns)``.

        The latency includes any ECP correction cost the read incurred;
        without fault injection it is exactly ``config.read_ns``.
        """
        self._check_la(la)
        pa = self.scheme.translate(la)
        return self.array.read_with_latency(pa)

    # ------------------------------------------------------------- queries

    def baseline_write_latency(self, data: LineData) -> float:
        """Latency of a write that triggers no remap (attacker's reference)."""
        return self.array.timing.write_latency(data)

    @property
    def elapsed_ns(self) -> float:
        """Simulated time spent in PCM operations so far."""
        return self.array.elapsed_ns

    @property
    def total_writes(self) -> int:
        """Total physical line writes (user writes + remap movements)."""
        return self.array.total_writes

    def health(self) -> DeviceHealth:
        """Structured health snapshot (no spare pool at this level)."""
        array = self.array
        return DeviceHealth(
            n_lines=self.config.n_lines,
            n_physical=array.n_physical,
            total_writes=array.total_writes,
            elapsed_ns=array.elapsed_ns,
            max_wear=array.max_wear,
            failures=1 if array.failed else 0,
            retired_lines=0,
            n_spares=0,
            spares_left=0,
            read_only=False,
            retry_events=array.retry_events,
            stuck_cells=int(array.stuck_bits.sum())
            if array.stuck_bits is not None
            else 0,
            corrected_errors=array.ecc.corrected_total if array.ecc else 0,
            uncorrectable_errors=array.ecc.uncorrectable_total
            if array.ecc
            else 0,
            rejected_writes=0,
        )

"""The benchmark's three workloads, their work units and output checks.

A *work unit* is one operation a user of the simulator asks for: one
lifetime to first failure (``ff-lifetime``), one fixed-length replay of
tenant traffic (``tenant-replay``) or one Remapping Timing Attack to
device failure (``rta-rbsg``).  Each unit builds its own scheme,
controller and trace source from a seed, runs, and yields a
:class:`UnitRecord` of simulated statistics that the checks below test
and that :mod:`compare` diffs between two result files.

Every size lives in :class:`Sizes`, so the benchmark's own tests run the
same code at 2^10 lines (:data:`TINY`).
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import layers
from tracer import Tracer

from repro.attacks.rta_rbsg import RBSGTimingAttack
from repro.campaign.tasks import build_scheme
from repro.config import PCMConfig
from repro.sim import engine
from repro.sim.fastforward import TraceSpec
from repro.sim.memory_system import MemoryController
from repro.traffic.profiles import mixed_spec
from repro.wearlevel.rbsg import RegionBasedStartGap

#: Scheme knobs of BENCH_5/BENCH_10 (8 sub-regions, inner interval 100,
#: outer interval 200, 7 Feistel stages).
SCHEME_PARAMS = {"interval": 100}


@dataclass(frozen=True)
class Sizes:
    """Every scale knob of the three workloads."""

    ff_lines: int = 1 << 18
    ff_endurance: float = 1e6
    #: Fixed lifetime seeds.  Per-seed cost ranges over about 4x (1.3 s to
    #: 5.7 s on a 2-vCPU Xeon), so every run uses the same pool and the
    #: run seed only rotates its order; see README.md.
    ff_pool: Tuple[int, ...] = (1, 2, 3, 4, 5)
    replay_lines: int = 1 << 20
    replay_tenants: int = 1000
    replay_churn: int = 40_000
    replay_writes: int = 250_000
    replay_check_writes: int = 20_000
    rta_lines: int = 4096
    rta_regions: int = 8
    rta_interval: int = 8
    rta_endurance: float = 2e5
    rta_target: int = 5


TINY = Sizes(
    ff_lines=1 << 10,
    ff_endurance=2000,
    ff_pool=(1, 2),
    replay_lines=1 << 10,
    replay_tenants=20,
    replay_churn=1000,
    replay_writes=5000,
    replay_check_writes=2000,
    rta_lines=1 << 10,
    rta_endurance=2e4,
)


def derive(seed: int, *labels: object) -> int:
    """Stable 31-bit child seed of ``seed`` (benchmark-side, so the
    program's own seed derivation can change without moving inputs)."""
    text = "/".join([str(int(seed))] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


# ------------------------------------------------------------ records


@dataclass
class UnitRecord:
    """Simulated statistics of one work unit, plus its host time."""

    workload: str
    seed: int
    host_s: float = 0.0
    user_writes: int = 0
    total_writes: int = 0
    elapsed_ns: float = 0.0
    failed: bool = False
    failed_pa: Optional[int] = None
    wear_digest: str = ""
    sum_wear: int = 0
    max_wear: int = 0
    n_physical: int = 0
    endurance: float = 0.0
    detection_writes: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    #: Fields a speed-only change must leave identical.
    SIMULATED = (
        "user_writes", "total_writes", "elapsed_ns", "failed", "failed_pa",
        "wear_digest", "sum_wear", "max_wear", "detection_writes",
    )

    def simulated(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.SIMULATED}

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def wear_digest(wear: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(wear, dtype=np.int64).tobytes(), digest_size=8
    ).hexdigest()


def common_problems(record: UnitRecord) -> List[str]:
    if record.sum_wear != record.total_writes:
        return [f"sum(wear) {record.sum_wear} != total_writes "
                f"{record.total_writes}"]
    return []


# ---------------------------------------------------------- workloads


@dataclass
class Built:
    """Objects a unit builds before its first simulated write."""

    controller: MemoryController
    source: Any


class Workload:
    name = ""

    def units(self, seed: int, sizes: Sizes) -> Iterator[List[int]]:
        """Endless batches of unit seeds; a run stops between batches."""
        index = 0
        while True:
            yield [derive(seed, self.name, index)]
            index += 1

    def held_out(self, seed: int, sizes: Sizes) -> int:
        """A seed no run of this seed uses, kept for claim checks."""
        return derive(seed, self.name, "held-out")

    def build(self, seed: int, sizes: Sizes) -> Built:
        raise NotImplementedError

    def run(self, built: Built, sizes: Sizes, tracer: Optional[Tracer]) -> Any:
        raise NotImplementedError

    def check(self, record: UnitRecord, sizes: Sizes) -> List[str]:
        raise NotImplementedError


class FFLifetime(Workload):
    """Security RBSG at 2^18 lines to first failure on the analytic tier."""

    name = "ff-lifetime"

    def units(self, seed: int, sizes: Sizes) -> Iterator[List[int]]:
        pool = list(sizes.ff_pool)
        turn = seed % len(pool)
        order = pool[turn:] + pool[:turn]
        while True:
            yield order

    def held_out(self, seed: int, sizes: Sizes) -> int:
        candidate = derive(seed, self.name, "held-out")
        while candidate in sizes.ff_pool:
            candidate += 1
        return candidate

    def build(self, seed: int, sizes: Sizes) -> Built:
        n = sizes.ff_lines
        scheme = build_scheme("security-rbsg", n, seed, SCHEME_PARAMS)
        config = PCMConfig(n_lines=n, endurance=sizes.ff_endurance)
        return Built(MemoryController(scheme, config),
                     TraceSpec(kind="uniform", n_lines=n, seed=seed))

    def run(self, built: Built, sizes: Sizes, tracer: Optional[Tracer]) -> Any:
        if tracer is not None:
            layers.instrument_spec(tracer, built.source)
        # "analytic", not "auto": at 2^18 lines and E=1e6 the two engage
        # the same tier, but "analytic" keeps this workload on it at the
        # tests' 2^10 lines and if the auto thresholds ever move.
        return engine.run_trace_fast(
            built.controller, built.source, fast_forward="analytic"
        )

    def check(self, record: UnitRecord, sizes: Sizes) -> List[str]:
        return lifetime_problems(record)


def lifetime_problems(record: UnitRecord) -> List[str]:
    """A lifetime ends in a failure exactly at the endurance limit, with
    mean wear inside the balls-into-bins band of docs/performance.md:
    ``total_writes / (N E)`` (= user writes x amplification / (N E)) sits
    within ``2 err`` below 1, ``err = sqrt(2 ln N / E)``."""
    problems = []
    if not record.failed:
        problems.append("lifetime run ended without a line failure")
    if record.max_wear != record.endurance:
        problems.append(f"max wear {record.max_wear} != endurance "
                        f"{record.endurance:g}")
    n, e = record.n_physical, record.endurance
    err = math.sqrt(2.0 * math.log(n) / e)
    ratio = record.total_writes / (n * e)
    if not 1.0 - 2.0 * err <= ratio <= 1.0:
        problems.append(f"wear ratio {ratio:.6f} outside "
                        f"[{1.0 - 2.0 * err:.6f}, 1] (err {err:.6f})")
    return problems


class TenantReplay(Workload):
    """Mixed tenant traffic on a 2^20-line Security RBSG, chunk engine."""

    name = "tenant-replay"

    def build(self, seed: int, sizes: Sizes) -> Built:
        n = sizes.replay_lines
        scheme = build_scheme("security-rbsg", n, seed, SCHEME_PARAMS)
        config = PCMConfig(n_lines=n, endurance=1e15)
        mixer = mixed_spec(
            sizes.replay_tenants, churn_interval=sizes.replay_churn
        ).build_mixer(n, seed)
        return Built(MemoryController(scheme, config), mixer)

    def run(self, built: Built, sizes: Sizes, tracer: Optional[Tracer]) -> Any:
        chunks = built.source.chunks(sizes.replay_writes)
        if tracer is not None:
            chunks = layers.iterate_trace(tracer, chunks)
        return engine.run_trace_fast(built.controller, chunks)

    def check(self, record: UnitRecord, sizes: Sizes) -> List[str]:
        problems = []
        if record.failed:
            problems.append("replay device failed at E=1e15")
        if record.user_writes != sizes.replay_writes:
            problems.append(f"replayed {record.user_writes} of "
                            f"{sizes.replay_writes} writes")
        return problems


def replay_prefix_problems(seed: int, sizes: Sizes) -> List[str]:
    """Chunk-exact vs scalar ``run_trace`` on a prefix of the same mixer
    traffic: results and final wear must be identical."""
    replay = TenantReplay()
    n = sizes.replay_check_writes
    fast = replay.build(seed, sizes)
    fast_result = engine.run_trace_fast(fast.controller, fast.source.chunks(n))
    scalar = replay.build(seed, sizes)
    scalar_result = engine.run_trace(scalar.controller, scalar.source.entries(n))
    return compare_replays(fast_result, fast.controller.array.wear,
                           scalar_result, scalar.controller.array.wear)


def compare_replays(fast_result, fast_wear, scalar_result,
                    scalar_wear) -> List[str]:
    problems = []
    if fast_result != scalar_result:
        problems.append(f"chunk result {fast_result} != scalar {scalar_result}")
    if not np.array_equal(fast_wear, scalar_wear):
        problems.append("chunk and scalar final wear differ")
    return problems


class RTARBSG(Workload):
    """The paper's Remapping Timing Attack on RBSG, scalar writes only."""

    name = "rta-rbsg"

    def build(self, seed: int, sizes: Sizes) -> Built:
        scheme = RegionBasedStartGap(
            sizes.rta_lines, n_regions=sizes.rta_regions,
            remap_interval=sizes.rta_interval, rng=seed,
        )
        config = PCMConfig(n_lines=sizes.rta_lines,
                           endurance=sizes.rta_endurance)
        controller = MemoryController(scheme, config)
        return Built(controller,
                     RBSGTimingAttack(controller, target_la=sizes.rta_target))

    def run(self, built: Built, sizes: Sizes, tracer: Optional[Tracer]) -> Any:
        if tracer is not None:
            layers.instrument_attack(tracer, built.source)
        return built.source.run()

    def check(self, record: UnitRecord, sizes: Sizes) -> List[str]:
        return attack_problems(record)


def attack_problems(record: UnitRecord) -> List[str]:
    """The device fails after the detection phase completed."""
    problems = []
    if not record.failed:
        problems.append("attack ended without a device failure")
    detection = record.detection_writes or 0
    if not 0 < detection < record.user_writes:
        problems.append(f"detection writes {detection} not inside "
                        f"(0, {record.user_writes})")
    return problems


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FFLifetime(), TenantReplay(), RTARBSG())
}


# --------------------------------------------------------------- runs


def run_unit(workload: Workload, seed: int, sizes: Sizes,
             tracer: Optional[Tracer] = None) -> UnitRecord:
    """Build and run one unit; host time covers build plus run.

    Any exception is the unit's failure, recorded with its traceback tail,
    so one bad unit does not hide the rest of the run.
    """
    record = UnitRecord(workload=workload.name, seed=seed)
    clock = time.perf_counter
    start = clock()
    try:
        if tracer is None:
            built = workload.build(seed, sizes)
        else:
            built = tracer.call("bench.build", workload.build,
                                (seed, sizes), {})
            layers.instrument_controller(tracer, built.controller)
        result = workload.run(built, sizes, tracer)
        record.host_s = clock() - start
    except Exception:  # noqa: BLE001 - a unit boundary; reported, not hidden
        record.host_s = clock() - start
        record.problems.append(traceback.format_exc(limit=3).strip())
        return record
    array = built.controller.array
    wear = array.wear
    record.user_writes = int(result.user_writes)
    record.total_writes = int(built.controller.total_writes)
    record.elapsed_ns = float(result.elapsed_ns)
    record.failed = bool(result.failed)
    record.failed_pa = None if result.failed_pa is None else int(result.failed_pa)
    record.wear_digest = wear_digest(wear)
    record.sum_wear = int(wear.sum())
    record.max_wear = int(wear.max())
    record.n_physical = int(array.n_physical)
    record.endurance = float(built.controller.config.endurance)
    if hasattr(result, "detection_writes"):
        record.detection_writes = int(result.detection_writes)
    record.problems = common_problems(record) + workload.check(record, sizes)
    return record


def run_timed(workload: Workload, seed: int, sizes: Sizes,
              seconds: float) -> List[UnitRecord]:
    """Whole batches of units until ``seconds`` of host time are spent:
    a further batch starts only if the last one fits in what is left."""
    records: List[UnitRecord] = []
    start = time.perf_counter()
    for batch in workload.units(seed, sizes):
        batch_start = time.perf_counter()
        records.extend(run_unit(workload, s, sizes) for s in batch)
        now = time.perf_counter()
        if (now - start) + (now - batch_start) > seconds:
            return records
    return records


def fixed_units(workload: Workload, seed: int, sizes: Sizes,
                batches: int) -> List[int]:
    """The first ``batches`` batches of unit seeds (traced runs)."""
    seeds: List[int] = []
    for index, batch in enumerate(workload.units(seed, sizes)):
        if index == batches:
            break
        seeds.extend(batch)
    return seeds

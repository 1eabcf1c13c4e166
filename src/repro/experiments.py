"""High-level experiment harness: attack × scheme matrices in one call.

Gives scripts and notebooks a single entry point for the evaluation
pattern every example repeats by hand: build fresh (scheme, controller)
pairs, run a set of attacks to failure under a common budget, and collect
comparable results.

Example::

    from repro.experiments import attack_matrix

    results = attack_matrix(
        n_lines=2**9, endurance=2e4,
        schemes=["rbsg", "security-rbsg"],
        attacks=["raa", "bpa"],
        seed=7,
    )
    for row in results:
        print(row.scheme, row.attack, row.result.lifetime_seconds)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.attacks import (
    AttackResult,
    RBSGTimingAttack,
    SRTimingAttack,
)
from repro.campaign.tasks import SCHEME_NAMES

#: Attacks applicable to every scheme.
GENERIC_ATTACKS = ("raa", "bpa", "aia")
#: Timing attacks bound to specific scheme types.
TIMING_ATTACKS = {"rta": {"rbsg": RBSGTimingAttack, "sr": SRTimingAttack}}


@dataclass(frozen=True)
class MatrixCell:
    """One (scheme, attack) outcome."""

    scheme: str
    attack: str
    result: AttackResult
    wear_gini: float

    @property
    def lifetime_seconds(self) -> float:
        return self.result.lifetime_seconds


def _cell_from_result(
    scheme: str, attack: str, document: Mapping[str, object]
) -> MatrixCell:
    """Rebuild one :class:`MatrixCell` from a ``simulate`` task result."""
    failed_pa = document.get("failed_pa")
    result = AttackResult(
        attack=str(document["attack_label"]),
        user_writes=int(document["user_writes"]),  # type: ignore[arg-type]
        elapsed_ns=float(document["elapsed_ns"]),  # type: ignore[arg-type]
        failed=bool(document["failed"]),
        failed_pa=None if failed_pa is None else int(failed_pa),  # type: ignore[arg-type]
        detection_writes=int(document["detection_writes"]),  # type: ignore[arg-type]
    )
    return MatrixCell(
        scheme=scheme,
        attack=attack,
        result=result,
        wear_gini=float(document["wear_gini"]),  # type: ignore[arg-type]
    )


def attack_matrix(
    n_lines: int = 2**9,
    endurance: float = 2e4,
    schemes: Optional[Sequence[str]] = None,
    attacks: Sequence[str] = ("raa",),
    budget: int = 50_000_000,
    seed: int = 7,
    workers: int = 1,
) -> List[MatrixCell]:
    """Run every requested attack against every requested scheme.

    Each cell gets a fresh device; unsupported (scheme, attack) pairs —
    e.g. RTA against a scheme it has no procedure for — are skipped.

    Cells execute on the :mod:`repro.campaign` runner: ``workers > 1``
    fans them out across processes, and because every cell derives its
    RNG from (scheme, attack, seed) — never from scheduling — the
    results are identical to a serial run, in the same
    scheme-major/attack-minor order.
    """
    from repro.campaign import RunnerConfig, TaskKey, run_collect

    scheme_names = list(schemes or SCHEME_NAMES)
    unknown = set(scheme_names) - set(SCHEME_NAMES)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    known_attacks = set(GENERIC_ATTACKS) | set(TIMING_ATTACKS)
    unknown_attacks = set(attacks) - known_attacks
    if unknown_attacks:
        raise ValueError(f"unknown attacks: {sorted(unknown_attacks)}")
    keys: List[TaskKey] = []
    for scheme_name in scheme_names:
        for attack_name in attacks:
            if (attack_name in TIMING_ATTACKS
                    and scheme_name not in TIMING_ATTACKS[attack_name]):
                continue  # no timing-attack procedure for this scheme
            keys.append(TaskKey.create(
                kind="simulate",
                params={
                    "scheme": scheme_name,
                    "attack": attack_name,
                    "lines": n_lines,
                    "endurance": endurance,
                    "budget": budget,
                },
                seed=seed,
            ))
    records = run_collect(keys, RunnerConfig(workers=workers, retries=0))
    cells: List[MatrixCell] = []
    for key, record in zip(keys, records):
        if not record.ok:
            raise RuntimeError(
                f"matrix cell {key.param('scheme')}/{key.param('attack')} "
                f"failed: {record.error}"
            )
        cells.append(
            _cell_from_result(
                str(key.param("scheme")),
                str(key.param("attack")),
                record.result or {},
            )
        )
    return cells


def summarize_matrix(cells: Sequence[MatrixCell]) -> str:
    """Render a matrix run as an aligned text table."""
    if not cells:
        return "(empty matrix)"
    header = f"{'scheme':>14} {'attack':>6} {'failed':>6} " \
             f"{'lifetime (s)':>13} {'writes':>10} {'gini':>6}"
    lines = [header, "-" * len(header)]
    for cell in cells:
        lifetime = (
            f"{cell.lifetime_seconds:.4f}" if cell.result.failed else "--"
        )
        lines.append(
            f"{cell.scheme:>14} {cell.attack:>6} "
            f"{str(cell.result.failed):>6} {lifetime:>13} "
            f"{cell.result.user_writes:>10} {cell.wear_gini:>6.3f}"
        )
    return "\n".join(lines)

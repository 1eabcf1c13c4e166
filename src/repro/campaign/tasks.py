"""Task kinds: what one campaign point actually executes.

A *task function* maps ``(params, seed) -> JSON-able result dict``.  It
runs inside worker processes, so it must be a module-level function and
both its inputs and outputs must survive pickling/JSON.  These kinds
ship with the library:

* ``lifetime`` — closed-form paper-scale lifetime of a (scheme, attack)
  pair (:mod:`repro.analysis.lifetime`); deterministic, seed-free.
* ``simulate`` — run one real attack against one scheme on the exact
  simulator and report the attack outcome plus the wear Gini.  This is
  the inner loop of the ``matrix`` subcommand and of
  :func:`repro.experiments.attack_matrix`.
* ``trace-lifetime`` — the one measured-lifetime task: drive one scheme
  with one workload — a synthetic trace (uniform / zipf / sequential /
  raa), a loaded real trace (``trace_file``, CSV or ``.rbt``) or
  multi-tenant mixed traffic (``tenants`` / ``profile``) — to failure
  or budget on the batched, scalar or analytic fast-forward engine
  (:func:`run_trace_lifetime_task`); measured lifetime and write
  overhead rather than closed-form.
* ``lifetime-ff`` and ``tenant-lifetime`` — the same task with its
  historical defaults filled in (paper scale on the analytic tier; the
  1000-tenant mixed population).  They stay registered so the
  ``key_id`` of a stored campaign point (which hashes the kind name)
  and existing campaign specs keep resolving.
* ``faults``   — one seeded fault-injection campaign
  (:func:`repro.analysis.resilience.run_fault_campaign`); the PR-1
  sweep, gridded.

Register additional kinds with :func:`register_task_kind` (tests use
this for crash/timeout probes).  The registry is a plain dict in the
registering process; the runner pins the ``fork`` start method so those
runtime registrations reach workers — on platforms without ``fork``,
register custom kinds at import time of an importable module instead.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.campaign.spec import Scalar
from repro.config import (
    PAPER_PCM,
    PCMConfig,
    RBSGConfig,
    SecurityRBSGConfig,
    SRConfig,
)
from repro.wearlevel.base import WearLeveler

TaskFn = Callable[[Mapping[str, Scalar], int], Dict[str, object]]

_TASK_KINDS: Dict[str, TaskFn] = {}


class TaskError(RuntimeError):
    """A task cannot run with the given parameters."""


def register_task_kind(name: str, fn: TaskFn) -> None:
    """Add (or replace) a task kind in the registry."""
    _TASK_KINDS[name] = fn


def task_kinds() -> Tuple[str, ...]:
    """The registered kind names, sorted."""
    return tuple(sorted(_TASK_KINDS))


def registered_tasks() -> Dict[str, TaskFn]:
    """A snapshot of the registry: ``kind name -> task function``.

    Exists so tooling (reprolint's REP103 campaign-determinism rule,
    importable enumeration in tests) can compare the *runtime* registry
    against what static analysis discovered, without reaching into the
    private ``_TASK_KINDS`` dict.
    """
    return dict(_TASK_KINDS)


def get_task(kind: str) -> TaskFn:
    """Resolve a kind name; raises :class:`TaskError` when unknown."""
    try:
        return _TASK_KINDS[kind]
    except KeyError:
        raise TaskError(
            f"unknown task kind {kind!r}; registered: {sorted(_TASK_KINDS)}"
        ) from None


def _int(params: Mapping[str, Scalar], name: str, default: int) -> int:
    return int(params.get(name, default))  # type: ignore[arg-type]


def _float(params: Mapping[str, Scalar], name: str, default: float) -> float:
    return float(params.get(name, default))  # type: ignore[arg-type]


def _str(params: Mapping[str, Scalar], name: str) -> str:
    try:
        return str(params[name])
    except KeyError:
        raise TaskError(f"task needs parameter {name!r}") from None


# ------------------------------------------------------------- lifetime


def run_lifetime_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Closed-form lifetime of one (scheme, attack, config) point.

    The one closed-form ladder: ``repro lifetime`` calls it too.
    """
    from repro.analysis.lifetime import (
        ideal_lifetime_ns,
        raa_nowl_lifetime_ns,
        raa_rbsg_lifetime_ns,
        raa_security_rbsg_lifetime_ns,
        raa_two_level_sr_lifetime_ns,
        rta_rbsg_lifetime_ns,
        rta_two_level_sr_lifetime_ns,
    )

    scheme = _str(params, "scheme")
    attack = _str(params, "attack")
    pcm = PAPER_PCM.scaled(
        n_lines=_int(params, "lines", PAPER_PCM.n_lines),
        endurance=_float(params, "endurance", PAPER_PCM.endurance),
    )
    if scheme == "none" and attack == "raa":
        ns = raa_nowl_lifetime_ns(pcm)
    elif scheme == "rbsg":
        cfg = RBSGConfig(
            _int(params, "regions", 32), _int(params, "interval", 100)
        )
        fn = rta_rbsg_lifetime_ns if attack == "rta" else raa_rbsg_lifetime_ns
        ns = fn(pcm, cfg)
    elif scheme == "two-level-sr":
        sr = SRConfig(
            _int(params, "subregions", 512),
            _int(params, "inner", 64),
            _int(params, "outer", 128),
        )
        fn2 = (
            rta_two_level_sr_lifetime_ns
            if attack == "rta"
            else raa_two_level_sr_lifetime_ns
        )
        ns = fn2(pcm, sr)
    elif scheme == "security-rbsg" and attack == "raa":
        srbsg = SecurityRBSGConfig(
            _int(params, "subregions", 512),
            _int(params, "inner", 64),
            _int(params, "outer", 128),
            _int(params, "stages", 7),
        )
        ns = raa_security_rbsg_lifetime_ns(pcm, srbsg)
    else:
        raise TaskError(f"no lifetime model for pair {scheme} / {attack}")
    ideal = ideal_lifetime_ns(pcm)
    return {
        "scheme": scheme,
        "attack": attack,
        "lifetime_ns": ns,
        "ideal_ns": ideal,
        "fraction_of_ideal": ns / ideal,
    }


# ------------------------------------------------------------- simulate

#: Every scheme :func:`build_scheme` constructs, in presentation order.
SCHEME_NAMES = (
    "none", "start-gap", "table", "random-swap", "rbsg", "sr",
    "multiway-sr", "two-level-sr", "security-rbsg",
)


def build_scheme(
    name: str, n_lines: int, seed: int, params: Mapping[str, Scalar]
) -> "WearLeveler":
    """Construct one wear-leveling scheme instance by short name.

    The one scheme factory: campaign tasks, the CLI, the attack matrix
    and the fault campaigns all build their schemes here.  Defaults are
    interval 16, 8 regions, outer interval ``2 * interval`` and 7 DFN
    stages; the ``regions`` / ``interval`` / ``outer`` / ``stages``
    parameters override them (the knobs ``repro simulate`` has always
    exposed).
    """
    from repro.core.security_rbsg import SecurityRBSG
    from repro.wearlevel import (
        MultiWaySR,
        NoWearLeveling,
        RandomSwapWearLeveling,
        RegionBasedStartGap,
        SecurityRefresh,
        StartGap,
        TableBasedWearLeveling,
        TwoLevelSecurityRefresh,
    )

    interval = _int(params, "interval", 16)
    regions = _int(params, "regions", 8)
    outer = _int(params, "outer", 2 * interval)
    stages = _int(params, "stages", 7)
    if name == "none":
        return NoWearLeveling(n_lines)
    if name == "start-gap":
        return StartGap(n_lines, remap_interval=interval)
    if name == "table":
        return TableBasedWearLeveling(n_lines, swap_interval=interval)
    if name == "random-swap":
        return RandomSwapWearLeveling(
            n_lines, swap_interval=interval, rng=seed
        )
    if name == "rbsg":
        return RegionBasedStartGap(
            n_lines, n_regions=regions, remap_interval=interval, rng=seed
        )
    if name == "sr":
        return SecurityRefresh(n_lines, remap_interval=interval, rng=seed)
    if name == "multiway-sr":
        return MultiWaySR(
            n_lines, n_subregions=regions, remap_interval=interval, rng=seed
        )
    if name == "two-level-sr":
        return TwoLevelSecurityRefresh(
            n_lines, n_subregions=regions, inner_interval=interval,
            outer_interval=outer, rng=seed,
        )
    if name == "security-rbsg":
        return SecurityRBSG(
            n_lines, n_subregions=regions, inner_interval=interval,
            outer_interval=outer, n_stages=stages, rng=seed,
        )
    raise TaskError(f"unknown scheme {name!r}")


def run_simulate_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Run one real attack to failure (or budget) on the exact simulator."""
    from repro.attacks import (
        AddressInferenceAttack,
        BirthdayParadoxAttack,
        RBSGTimingAttack,
        RepeatedAddressAttack,
        SRTimingAttack,
    )
    from repro.pcm.stats import WearStats
    from repro.sim.memory_system import MemoryController

    scheme_name = _str(params, "scheme")
    attack_name = _str(params, "attack")
    n_lines = _int(params, "lines", 512)
    endurance = _float(params, "endurance", 2e4)
    budget = _int(params, "budget", 50_000_000)
    target = _int(params, "target", 5)

    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, seed, params)
    controller = MemoryController(scheme, config)
    attack: Any
    if attack_name == "raa":
        attack = RepeatedAddressAttack(controller, target_la=target)
    elif attack_name == "bpa":
        attack = BirthdayParadoxAttack(controller, rng=seed)
    elif attack_name == "aia":
        attack = AddressInferenceAttack(
            controller,
            knowledge_interval=_int(params, "knowledge_interval", 256),
        )
    elif attack_name == "rta" and scheme_name == "rbsg":
        attack = RBSGTimingAttack(controller, target_la=target)
    elif attack_name == "rta" and scheme_name == "sr":
        attack = SRTimingAttack(controller, target_la=max(1, target))
    else:
        raise TaskError(
            f"unsupported pair: {scheme_name} / {attack_name}"
        )
    result = attack.run(max_writes=budget)
    gini = WearStats.from_wear(controller.array.wear).gini
    return {
        "scheme": scheme_name,
        "attack": attack_name,
        "attack_label": result.attack,
        "user_writes": result.user_writes,
        "elapsed_ns": result.elapsed_ns,
        "failed": result.failed,
        "failed_pa": result.failed_pa,
        "detection_writes": result.detection_writes,
        "lifetime_seconds": result.lifetime_seconds,
        "wear_gini": gini,
    }


# ---------------------------------------------------- measured lifetime


def run_trace_lifetime_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """Measured lifetime / write overhead of one (scheme, workload) point.

    The one measured-lifetime task: it builds the device, scheme and
    controller, drives them with one workload until failure or the
    ``max_writes`` budget, and reports the simulator's own counts rather
    than a closed form.  The workload is picked from the parameters:

    * ``trace_file`` — a loaded real trace (CSV or ``.rbt``, windowed by
      ``line_bytes`` / ``window_start`` / ``window_mode``);
    * ``tenants`` or ``profile`` — multi-tenant mixed traffic
      (:class:`repro.traffic.TenantMixer`), from a spec file or the
      standard mixed population (:func:`repro.traffic.mixed_spec`) over
      the ``tenants`` / ``alpha`` / ``churn_*`` / ``schedule_interval``
      knobs; all tenant randomness descends from the task seed, so
      serial and parallel campaign runs are byte-identical;
    * otherwise ``trace`` — a synthetic
      :class:`~repro.sim.trace.TraceSpec` kind (uniform / zipf /
      sequential / raa, with ``alpha`` and ``target``).

    The engine is the batched one (:func:`repro.sim.engine.run_trace_fast`)
    unless ``fast = false`` selects the bit-identical scalar reference.
    ``fast_forward`` (``auto`` / ``analytic`` / ``off``) names a
    lifetime-to-failure run that may use the analytic tier: ``max_writes``
    then defaults to unbounded, and the document reports the engine as
    ``fast-forward:<mode>`` plus ``n_shards`` (recorded; no effect — kept
    so stored specs, their ``key_id``s and documents keep their bytes)
    and ``spares`` (spare lines appended to the physical space).
    ``memmap_dir`` backs the array's wear and data with ``np.memmap``
    files in that directory, in any mode.  The reported lifetime is the
    paper's **first-failure** metric: retirement is a scalar-controller
    feature (:class:`~repro.pcm.sparing.SparingController`), so the spare
    pool sizes the array without extending it, and wear statistics
    exclude the unworn spare tail.
    """
    from repro.pcm.stats import WearStats
    from repro.sim.engine import run_trace, run_trace_fast
    from repro.sim.memory_system import MemoryController

    scheme_name = _str(params, "scheme")
    n_lines = _int(params, "lines", 4096)
    endurance = _float(params, "endurance", 1e4)
    fast = bool(params.get("fast", True))
    mode = params.get("fast_forward")
    budget = params.get("max_writes", None if mode else 10_000_000)
    n_shards = _int(params, "n_shards", 0)  # recorded; no effect
    memmap_dir = params.get("memmap_dir")
    spares = _int(params, "spares", 0)

    config = PCMConfig(n_lines=n_lines, endurance=endurance)
    scheme = build_scheme(scheme_name, n_lines, seed, params)
    controller = MemoryController(
        scheme,
        config,
        memmap_dir=None if memmap_dir is None else str(memmap_dir),
    )
    if spares:
        controller.array.add_lines(spares)

    trace, labels = _workload(params, n_lines, seed)
    document: Dict[str, object] = {"scheme": scheme_name, **labels}
    max_writes = None if budget is None else int(budget)
    if not fast:
        result = run_trace(controller, trace, max_writes=max_writes)
    else:
        result = run_trace_fast(controller, trace, max_writes=max_writes,
                                fast_forward=str(mode or "off"))
    if mode is None:
        document["engine"] = "batched" if fast else "scalar"
    else:
        document.update(engine=f"fast-forward:{mode}", n_shards=n_shards,
                        spares=spares)
    wear = controller.array.wear
    if spares:  # spare PAs are contiguous at the end and unworn
        wear = wear[:-spares]
    document.update(
        user_writes=result.user_writes,
        total_writes=result.total_writes,
        elapsed_ns=result.elapsed_ns,
        write_amplification=result.write_amplification,
        failed=result.failed,
        failed_pa=result.failed_pa,
        lifetime_seconds=result.lifetime_seconds,
        wear_gini=WearStats.from_wear(wear).gini,
    )
    return document


def _workload(
    params: Mapping[str, Scalar], n_lines: int, seed: int
) -> Tuple[Any, Dict[str, object]]:
    """The measured-lifetime task's trace and the document keys naming it."""
    from repro.sim.trace import TRACE_KINDS, TraceSpec
    from repro.traffic.adapter import open_trace_chunks
    from repro.traffic.profiles import load_traffic_spec, mixed_spec

    trace_file = params.get("trace_file")
    if trace_file is not None:
        trace = open_trace_chunks(
            str(trace_file),
            n_lines=n_lines,
            line_bytes=_int(params, "line_bytes", 64),
            window_start=_int(params, "window_start", 0),
            window_mode=str(params.get("window_mode", "wrap")),
        )
        return trace, {"trace": str(params.get("trace", "file"))}
    if "tenants" in params or "profile" in params:
        profile = params.get("profile")
        if profile is not None:
            traffic = load_traffic_spec(str(profile))
        else:
            traffic = mixed_spec(
                _int(params, "tenants", 1000),
                alpha=_float(params, "alpha", 1.2),
                churn_interval=_int(params, "churn_interval", 0),
                churn_fraction=_float(params, "churn_fraction", 0.02),
                churn_boost=_float(params, "churn_boost", 8.0),
                schedule_interval=_int(params, "schedule_interval", 8192),
            )
        mixer = traffic.build_mixer(n_lines, seed)
        return mixer.chunks(), {
            "traffic": traffic.name,
            "tenants": mixer.n_tenants,
            "churn_interval": traffic.churn_interval,
        }
    kind = _str(params, "trace")
    if kind not in TRACE_KINDS:
        raise TaskError(
            f"unknown trace kind {kind!r}; expected one of {TRACE_KINDS}"
        )
    spec = TraceSpec(
        kind=kind,
        n_lines=n_lines,
        alpha=_float(params, "alpha", 1.2),
        target=_int(params, "target", 5),
        seed=seed,
    )
    return spec, {"trace": kind}


def run_lifetime_ff_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """``lifetime-ff``: paper-scale defaults (2^23 lines, E = 1e8, auto
    fast-forward) for :func:`run_trace_lifetime_task`."""
    defaults: Dict[str, Scalar] = {
        "lines": 1 << 23, "endurance": 1e8, "fast_forward": "auto"}
    return run_trace_lifetime_task({**defaults, **params}, seed)


def run_tenant_lifetime_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """``tenant-lifetime``: the 1000-tenant mixed population by default,
    for :func:`run_trace_lifetime_task`."""
    defaults: Dict[str, Scalar] = {"tenants": 1000}
    return run_trace_lifetime_task({**defaults, **params}, seed)


# --------------------------------------------------------------- faults


def run_faults_task(
    params: Mapping[str, Scalar], seed: int
) -> Dict[str, object]:
    """One seeded fault-injection campaign on one (scheme, config) point."""
    from repro.analysis.resilience import run_fault_campaign

    scheme = _str(params, "scheme")
    pcm_fields = {f.name for f in dataclasses.fields(PCMConfig)}
    config = PCMConfig(  # type: ignore[arg-type]
        **{k: v for k, v in params.items() if k in pcm_fields}
    )
    result = run_fault_campaign(
        scheme,
        config,
        n_spares=_int(params, "n_spares", 8),
        n_writes=_int(params, "n_writes", 20_000),
        seed=seed,
        degraded_mode=bool(params.get("degraded_mode", True)),
    )
    document = dataclasses.asdict(result)
    document["retirements"] = [list(r) for r in result.retirements]
    return document


register_task_kind("lifetime", run_lifetime_task)
register_task_kind("simulate", run_simulate_task)
register_task_kind("trace-lifetime", run_trace_lifetime_task)
register_task_kind("lifetime-ff", run_lifetime_ff_task)
register_task_kind("tenant-lifetime", run_tenant_lifetime_task)
register_task_kind("faults", run_faults_task)
